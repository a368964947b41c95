"""Builders shared by several test modules."""

from typing import Optional

import numpy as np

from mvt2.fusion import RepBranchSpec
from mvt2.model import ModelConfig
from mvt2.tensor import BN_EPS, BNSpec, ConvSpec

# The smallest network the tests build: one block per stage at 32x32.
TINY = ModelConfig(depths=(1, 1, 1), dims=(8, 8, 8), ffn_ratio=2,
                   num_classes=10, input_resolution=32)


def identity_bn(channels: int) -> BNSpec:
    """A float32 batch norm that maps x to x exactly (var = 1 - eps, so
    var + eps = 1)."""
    one = np.ones(channels, dtype=np.float32)
    return BNSpec(gamma=one.copy(), beta=np.zeros(channels, dtype=np.float32),
                  running_mean=np.zeros(channels, dtype=np.float32),
                  running_var=one - np.float32(BN_EPS))


def random_rep_branch_spec(
    in_channels: int,
    out_channels: int,
    kernel_size: int = 3,
    stride: int = 1,
    groups: int = 1,
    with_scale: bool = True,
    with_identity: bool = True,
    dtype=np.float32,
    rng: Optional[np.random.Generator] = None,
) -> RepBranchSpec:
    """A randomized valid branch group.

    Batch-norm statistics are drawn near (0, 1) so folding stays well
    conditioned.  Identity is dropped automatically when illegal.
    """
    if rng is None:
        rng = np.random.default_rng(0)

    def rand_bn(c):
        return BNSpec(
            gamma=(rng.uniform(0.5, 1.5, c)).astype(dtype),
            beta=rng.normal(0.0, 0.1, c).astype(dtype),
            running_mean=rng.normal(0.0, 0.1, c).astype(dtype),
            running_var=rng.uniform(0.5, 1.5, c).astype(dtype),
        )

    padding = kernel_size // 2
    main = ConvSpec(
        rng.normal(0.0, 0.1, (out_channels, in_channels // groups,
                              kernel_size, kernel_size)).astype(dtype),
        rng.normal(0.0, 0.1, out_channels).astype(dtype),
        stride=stride, padding=padding, groups=groups,
    )
    scale = scale_bn = None
    if with_scale:
        scale = ConvSpec(
            rng.normal(0.0, 0.1, (out_channels, in_channels // groups, 1, 1)).astype(dtype),
            rng.normal(0.0, 0.1, out_channels).astype(dtype),
            stride=stride, padding=padding - (kernel_size - 1) // 2, groups=groups,
        )
        scale_bn = rand_bn(out_channels)
    identity_bn = None
    if with_identity and stride == 1 and in_channels == out_channels:
        identity_bn = rand_bn(out_channels)
    return RepBranchSpec(main, rand_bn(out_channels), scale, scale_bn, identity_bn)


def reference_fold_bn(kernel, bias, bn: BNSpec, dtype):
    """``fold_bn``'s arithmetic written out: the float64 fold of ``bn``
    into (``kernel``, ``bias``), each weight rounded once to ``dtype``."""
    f64 = np.float64
    scale = bn.gamma.astype(f64) / np.sqrt(bn.running_var.astype(f64) + BN_EPS)
    w = (kernel.astype(f64) * scale[:, None, None, None]).astype(dtype)
    b = (bn.beta.astype(f64) + (bias.astype(f64) - bn.running_mean.astype(f64))
         * scale).astype(dtype)
    return w, b


def reference_fuse(spec: RepBranchSpec) -> ConvSpec:
    """``fuse`` by the arithmetic of its docstring, with no shortcut: each
    branch folded and rounded to the group's dtype (the identity branch as
    a one-hot 1x1 conv), the folds summed in float64 from zero on the main
    conv's grid, in the order main, scale, identity, and the sum rounded
    once.  A one-branch group is its fold."""
    m, dtype = spec.main, spec.main.dtype
    folds = [reference_fold_bn(m.kernel, m.bias, spec.main_bn, dtype)]
    if spec.scale is not None:
        folds.append(reference_fold_bn(spec.scale.kernel, spec.scale.bias, spec.scale_bn, dtype))
    c = m.out_channels
    if spec.identity_bn is not None:
        one_hot = np.zeros((c, m.in_channels // m.groups, 1, 1))
        one_hot[np.arange(c), np.arange(c) % one_hot.shape[1]] = 1
        folds.append(reference_fold_bn(one_hot, np.zeros(c), spec.identity_bn, dtype))
    if len(folds) > 1:
        kernel, bias, k = np.zeros(m.kernel.shape), np.zeros(c), m.kernel_size[0]
        for w, b in folds:
            lo = (k - w.shape[2]) // 2
            kernel[:, :, lo:k - lo, lo:k - lo] += w
            bias += b
        folds = [(kernel.astype(dtype), bias.astype(dtype))]
    return ConvSpec(*folds[0], stride=m.stride, padding=m.padding, groups=m.groups)
