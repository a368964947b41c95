"""Structural reparameterization: collapse a multi-branch block into one conv.

A train-form branch group runs up to three parallel paths, each ending in
batch norm: a k by k convolution (k in {1, 3}), an optional 1 by 1 "scale"
convolution, and an optional identity path.  At deployment the group is
replaced by a single convolution that computes the same function: fold
each BN into its convolution (the identity path as a one-hot 1 by 1
conv), centre each folded kernel on the grid ``fused_skeleton`` gives,
and sum kernels and biases.  A one-branch group, a plain conv and its
batch norm, folds the same way.

All fusion arithmetic runs in float64.  ``fold_bn`` rounds each folded
branch to the branch's own dtype, and ``fuse`` sums a group's rounded
branches in float64 and rounds the sum again.  So a float32 one-branch
unit is its float64 fold rounded once, but a multi-branch weight takes
two rounding steps and may differ in its last bit from the float64 fold
of the whole group rounded once.  Functions here are pure over immutable
inputs and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import kernels
from .tensor import BN_EPS, BNSpec, ConvSpec, conv2d


def fold_bn(conv: ConvSpec, bn: BNSpec) -> ConvSpec:
    """Fold inference-mode batch norm into the preceding convolution.

    Per output channel o with scale s_o = gamma_o / sqrt(var_o + eps):
    W'_o = W_o * s_o and b'_o = beta_o + (b_o - mean_o) * s_o, so that
    conv2d(x, folded) == batchnorm_infer(conv2d(x, conv), bn).
    """
    if bn.channels != conv.out_channels:
        raise ValueError(
            f"batch-norm has {bn.channels} channels, conv emits {conv.out_channels}"
        )
    dtype = conv.dtype
    w = conv.kernel.astype(np.float64)
    b = conv.bias.astype(np.float64)
    scale = bn.gamma.astype(np.float64) / np.sqrt(
        bn.running_var.astype(np.float64) + BN_EPS
    )
    w_f = w * scale[:, None, None, None]
    b_f = bn.beta.astype(np.float64) + (b - bn.running_mean.astype(np.float64)) * scale
    return ConvSpec(
        w_f.astype(dtype), b_f.astype(dtype),
        stride=conv.stride, padding=conv.padding, groups=conv.groups,
    )


@dataclass
class RepBranchSpec:
    """Train-form parallel branches: main conv + BN, optional 1x1 conv + BN,
    optional identity BN.

    The scale branch must produce the same output grid as the main
    branch, which pins its padding to main.padding - (main_k - 1) // 2.
    The identity branch is legal only at stride 1 with equal channel
    counts and a grid-preserving main padding.
    """

    main: ConvSpec
    main_bn: BNSpec
    scale: Optional[ConvSpec] = None
    scale_bn: Optional[BNSpec] = None
    identity_bn: Optional[BNSpec] = None

    def __post_init__(self):
        m = self.main
        kh, kw = m.kernel_size
        if kh != kw or kh not in (1, 3):
            raise ValueError(f"main kernel must be 1x1 or 3x3, got {m.kernel_size}")
        if self.main_bn.channels != m.out_channels:
            raise ValueError("main batch-norm channel count mismatch")
        if (self.scale is None) != (self.scale_bn is None):
            raise ValueError("scale conv and scale batch-norm must come together")
        if self.scale is not None:
            s = self.scale
            if s.kernel_size != (1, 1):
                raise ValueError(f"scale branch must be 1x1, got {s.kernel_size}")
            if s.stride != m.stride or s.groups != m.groups:
                raise ValueError("scale branch must share stride and groups with main")
            if s.in_channels != m.in_channels or s.out_channels != m.out_channels:
                raise ValueError("scale branch must share channel counts with main")
            if s.padding != m.padding - (kh - 1) // 2:
                raise ValueError(
                    f"scale padding {s.padding} does not align output grids "
                    f"(need {m.padding - (kh - 1) // 2})"
                )
            if self.scale_bn.channels != m.out_channels:
                raise ValueError("scale batch-norm channel count mismatch")
        if self.identity_bn is not None:
            if m.stride != 1:
                raise ValueError("identity branch requires stride 1")
            if m.in_channels != m.out_channels:
                raise ValueError("identity branch requires equal channel counts")
            if m.padding != kh // 2:
                raise ValueError("identity branch requires grid-preserving main padding")
            if self.identity_bn.channels != m.out_channels:
                raise ValueError("identity batch-norm channel count mismatch")

    @property
    def in_channels(self) -> int:
        return self.main.in_channels

    @property
    def out_channels(self) -> int:
        return self.main.out_channels

    @property
    def kernel_size(self) -> tuple[int, int]:
        return self.main.kernel_size

    @property
    def stride(self) -> int:
        return self.main.stride

    @property
    def padding(self) -> int:
        return self.main.padding

    @property
    def groups(self) -> int:
        return self.main.groups

    @property
    def dtype(self):
        return self.main.dtype

    def astype(self, dtype) -> "RepBranchSpec":
        return RepBranchSpec(
            self.main.astype(dtype), self.main_bn.astype(dtype),
            None if self.scale is None else self.scale.astype(dtype),
            None if self.scale_bn is None else self.scale_bn.astype(dtype),
            None if self.identity_bn is None else self.identity_bn.astype(dtype),
        )


def rep_branch_forward(x, spec: RepBranchSpec):
    """Train-form forward: sum of per-branch BN'd outputs.  ``x`` is an
    ndarray or an ``autodiff.Var``; see ``autodiff.kernels``.  Traced, every
    value comes from the same ``tensor`` kernels, so the result is the
    same bits, and the gradient is taken with respect to ``x`` only.  The
    sum accumulates into the main branch's fresh output (``Var`` has no
    in-place add, so for it ``+=`` makes a new node with the same sum)."""
    ops = kernels(x)
    out = ops.batchnorm_infer(ops.conv2d(x, spec.main), spec.main_bn)
    if spec.scale is not None:
        out += ops.batchnorm_infer(ops.conv2d(x, spec.scale), spec.scale_bn)
    if spec.identity_bn is not None:
        out += ops.batchnorm_infer(x, spec.identity_bn)
    return out


def fuse(spec: RepBranchSpec) -> ConvSpec:
    """Collapse the branch group into one convolution on the grid of
    ``fused_skeleton(spec)``.

    Each branch is folded with its batch norm, the identity branch as a
    one-hot 1x1 conv.  The folded kernels, centred on the skeleton's
    kernel, and their biases are summed in float64 (main, scale, identity)
    and written into the skeleton in its dtype.  A one-branch group is its
    folded conv.
    """
    folded = [fold_bn(spec.main, spec.main_bn)]
    if spec.scale is None and spec.identity_bn is None:
        return folded[0]
    if spec.scale is not None:
        folded.append(fold_bn(spec.scale, spec.scale_bn))
    if spec.identity_bn is not None:
        c, per_group = spec.out_channels, spec.in_channels // spec.groups
        one_hot = np.zeros((c, per_group, 1, 1), spec.dtype)
        one_hot[np.arange(c), np.arange(c) % per_group] = 1
        folded.append(fold_bn(ConvSpec(one_hot, np.zeros(c, spec.dtype), groups=spec.groups),
                              spec.identity_bn))
    out = fused_skeleton(spec)
    kernel, bias = np.zeros(out.kernel.shape), np.zeros(out.bias.shape)
    k = kernel.shape[-1]
    for conv in folded:
        lo = (k - conv.kernel_size[0]) // 2
        kernel[:, :, lo:k - lo, lo:k - lo] += conv.kernel
        bias += conv.bias
    out.kernel[...], out.bias[...] = kernel, bias
    return out


def fused_skeleton(spec: RepBranchSpec) -> ConvSpec:
    """A zero conv with the geometry of ``fuse(spec)``: 3x3 when the main
    conv is 3x3 or an identity branch needs a centre tap, else 1x1, padded
    to keep the main conv's output grid, with its stride, groups and dtype."""
    m = spec.main
    k = 3 if m.kernel_size == (3, 3) or spec.identity_bn is not None else 1
    return ConvSpec(np.zeros((m.out_channels, m.in_channels // m.groups, k, k), m.dtype),
                    np.zeros(m.out_channels, m.dtype), stride=m.stride,
                    padding=m.padding + (k - m.kernel_size[0]) // 2, groups=m.groups)


def verify_equivalence(
    spec: RepBranchSpec,
    samples: int = 100,
    tol: float = 1e-4,
    input_hw: int = 7,
    batch: int = 2,
    seed: int = 0,
) -> dict:
    """Evaluate train-form vs. fused-form on random inputs.

    Returns {"max_abs_diff": float, "pass": bool} with pass iff
    max_abs_diff <= tol; a NaN difference makes max_abs_diff NaN and fails.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    fused = fuse(spec)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x = rng.standard_normal(
            (batch, spec.in_channels, input_hw, input_hw)
        ).astype(spec.dtype)
        a = rep_branch_forward(x, spec)
        b = conv2d(x, fused)
        diff = float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))))
        worst = float(np.maximum(worst, diff))
    return {"max_abs_diff": worst, "pass": worst <= tol}


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
    """A randomized valid branch group, for tests.

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
