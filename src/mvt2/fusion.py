"""Structural reparameterization: collapse a multi-branch block into one conv.

A train-form branch group runs up to three parallel paths, each ending in
batch norm: a k by k convolution (k in {1, 3}), an optional 1 by 1 "scale"
convolution, and an optional identity path.  At deployment the group is
replaced by a single convolution that computes the same function: fold
each BN into its convolution (the identity path as a one-hot 1 by 1
conv), centre each folded kernel on one grid, and sum kernels and
biases.  The grid is RepVGG's (Ding et al., CVPR 2021): 3 by 3 when the
main conv is 3 by 3 or an identity path needs a centre tap, else 1 by 1,
padded to keep the main conv's output grid.  A one-branch group, a plain
conv and its batch norm, folds the same way.

All fusion arithmetic runs in float64.  ``fold_bn`` rounds each folded
branch to the branch's own dtype, in one ufunc pass that computes each
product in float64 and stores it rounded, and ``fuse`` sums a group's
rounded branches in float64 and rounds the sum again.  So a float32
one-branch unit is its float64 fold rounded once, but a multi-branch
weight takes two rounding steps and may differ in its last bit from the
float64 fold of the whole group rounded once.

``verify_equivalence`` checks many groups in one call and draws each
random input batch once per input shape and dtype: every group of that
shape sees the same seeded batches it would see if checked alone.
Functions here are pure over immutable inputs and safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .autodiff import kernels
from .tensor import BN_EPS, BNSpec, ConvSpec, conv2d


def fold_bn(conv: ConvSpec, bn: BNSpec) -> ConvSpec:
    """Fold inference-mode batch norm into the preceding convolution.

    Per output channel o with scale s_o = gamma_o / sqrt(var_o + eps):
    W'_o = W_o * s_o and b'_o = beta_o + (b_o - mean_o) * s_o, so that
    conv2d(x, folded) == batchnorm_infer(conv2d(x, conv), bn).  The scale
    is float64; each folded weight is one float64 ufunc loop that stores
    straight into a fresh array of the conv's dtype, so every product is
    computed in float64 and rounded once, with no float64 copy of the
    kernel.
    """
    if bn.channels != conv.out_channels:
        raise ValueError(
            f"batch-norm has {bn.channels} channels, conv emits {conv.out_channels}"
        )
    dtype = conv.dtype
    scale = bn.gamma.astype(np.float64) / np.sqrt(
        bn.running_var.astype(np.float64) + BN_EPS
    )
    shift = np.subtract(conv.bias, bn.running_mean, dtype=np.float64) * scale
    w_f = np.multiply(conv.kernel, scale[:, None, None, None], dtype=np.float64,
                      out=np.empty(conv.kernel.shape, dtype), casting="same_kind")
    b_f = np.add(bn.beta, shift, dtype=np.float64,
                 out=np.empty(conv.out_channels, dtype), casting="same_kind")
    return ConvSpec(w_f, b_f, stride=conv.stride, padding=conv.padding, groups=conv.groups)


@dataclass
class RepBranchSpec:
    """Train-form parallel branches: main conv + BN, optional 1x1 conv + BN,
    optional identity BN.

    The scale branch must produce the same output grid as the main
    branch, which pins its padding to main.padding - (main_k - 1) // 2.
    The identity branch is legal only at stride 1 with equal channel
    counts and a grid-preserving main padding.  Every branch has the main
    conv's dtype.
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
        branches = (self.main_bn, self.scale, self.scale_bn, self.identity_bn)
        if any(b is not None and b.dtype != m.dtype for b in branches):
            raise ValueError(f"every branch must have the main conv's dtype {m.dtype}")
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
    def dtype(self):
        return self.main.dtype

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
    """Collapse the branch group into one convolution with the main conv's
    stride, groups and dtype, on the grid rule of the module docstring:
    k = 3 when the main conv is 3x3 or there is an identity branch, else
    1, and padding ``main.padding + (k - main_k) // 2``.

    Each branch is folded with its batch norm, the identity branch as a
    one-hot 1x1 conv.  The folded kernels, centred on the k x k grid, and
    their biases are summed in float64 (main, scale, identity) and
    rounded to the group's dtype.  A one-branch group is its folded conv.
    """
    m = spec.main
    folded = [fold_bn(m, spec.main_bn)]
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
    k = 3 if m.kernel_size == (3, 3) or spec.identity_bn is not None else 1
    kernel = np.zeros((m.out_channels, m.in_channels // m.groups, k, k))
    bias = np.zeros(m.out_channels)
    for conv in folded:
        lo = (k - conv.kernel_size[0]) // 2
        kernel[:, :, lo:k - lo, lo:k - lo] += conv.kernel
        bias += conv.bias
    return ConvSpec(kernel.astype(m.dtype), bias.astype(m.dtype), stride=m.stride,
                    padding=m.padding + (k - m.kernel_size[0]) // 2, groups=m.groups)


def verify_equivalence(
    specs: Sequence[RepBranchSpec],
    samples: int = 100,
    tol: float = 1e-4,
    input_hw: int = 7,
    batch: int = 2,
    seed: int = 0,
) -> list[dict]:
    """Evaluate train form against fused form on random inputs, one report
    per branch group of ``specs``, in order.

    Each report is {"max_abs_diff": float, "pass": bool} with pass iff
    max_abs_diff <= tol; a NaN difference makes max_abs_diff NaN and fails.
    Every group sees the same ``samples`` input batches as every other group
    of its input shape and dtype: the ones a generator seeded with ``seed``
    draws.  So each batch is drawn once per shape and dtype, made read-only
    and run through every group of that shape before the next is drawn; at
    most one batch is alive at a time, and nothing outlives the call.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    by_input: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        key = ((batch, spec.in_channels, input_hw, input_hw), np.dtype(spec.dtype))
        by_input.setdefault(key, []).append(i)
    worst = [0.0] * len(specs)
    for (shape, dtype), members in by_input.items():
        fused = [fuse(specs[i]) for i in members]
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            x = rng.standard_normal(shape).astype(dtype)
            x.flags.writeable = False
            for i, folded in zip(members, fused):
                a = rep_branch_forward(x, specs[i])
                b = conv2d(x, folded)
                diff = float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))))
                worst[i] = float(np.maximum(worst[i], diff))
    return [{"max_abs_diff": w, "pass": w <= tol} for w in worst]

