"""Structural reparameterization: collapse a multi-branch block into one conv.

A train-form branch group runs up to three parallel paths, each ending in
batch norm: a k by k convolution (k in {1, 3}), an optional 1 by 1 "scale"
convolution, and an optional identity path.  At deployment the group is
replaced by a single convolution that computes the same function: fold
each BN into its convolution (the identity path as a one-hot 1 by 1
conv) and add the folds.  A folded unit keeps its main conv's grid: its
kernel size, stride, padding and groups.  So ``main_conv(unit)``, the
group's main conv or the folded conv itself, is the one answer to what
grid a unit runs on, in either form.  The scale and identity folds
are 1 by 1 and land on the main kernel's centre tap alone, the way
MobileOne's 1 by 1 blocks fold (Vasu et al., CVPR 2023), so a 1 by 1
main conv stays 1 by 1 even beside an identity path.  A one-branch
group, a plain conv and its batch norm, folds the same way.

All fusion arithmetic runs in float64.  ``fold_bn`` rounds each folded
branch to the branch's own dtype, in one ufunc pass that computes each
product in float64 and stores it rounded, and ``fuse`` sums a group's
rounded centre taps and biases in float64 and rounds the sums again.  So
a float32 one-branch unit is its float64 fold rounded once, but a
multi-branch centre tap takes two rounding steps and may differ in its
last bit from the float64 fold of the whole group rounded once.

``verify_equivalence`` checks many groups in one call and draws each
random input batch once per input shape and dtype: every group of that
shape sees the same seeded batches it would see if checked alone.
Functions here are pure over immutable inputs and safe to call
concurrently.

Two threads.  ``verify_equivalence`` and ``model.deploy`` split their
independent units by index through ``tensor.split_map``, the even ones
on the caller and the odd ones on the library's worker, so results,
reports and the error raised are those of the serial loop.  ``tensor``'s
"Two cores" gives the rules of the split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .autodiff import kernels
from .tensor import BN_EPS, BNSpec, ConvSpec, conv2d, split_map


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


@dataclass(frozen=True)
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


def main_conv(unit: Union[RepBranchSpec, ConvSpec]) -> ConvSpec:
    """The conv whose grid ``unit`` runs on, in either form: a train-form
    group's main conv, or the folded conv itself.  ``fuse`` keeps that grid,
    so its kernel shape, stride, padding, groups and dtype are the unit's."""
    return unit.main if isinstance(unit, RepBranchSpec) else unit


def rep_branch_forward(x, spec: RepBranchSpec):
    """Train-form forward: sum of per-branch BN'd outputs.  ``x`` is an
    ndarray or an ``autodiff.Var``; see ``autodiff.kernels``.  Traced, every
    value comes from the same ``tensor`` kernels, so the result is the
    same bits, and the gradient is taken with respect to ``x`` only.  Each
    conv branch's batch norm runs in place on that branch's fresh conv
    output, and the sum accumulates into the main branch's; ``x`` is only
    read, so the identity branch's batch norm gets a fresh array.  (The
    traced batch norm writes into no ``Var``, and ``Var`` has no in-place
    add, so for it ``+=`` makes a new node with the same sum.)"""
    ops = kernels(x)
    y = ops.conv2d(x, spec.main)
    out = ops.batchnorm_infer(y, spec.main_bn, out=y)
    if spec.scale is not None:
        y = ops.conv2d(x, spec.scale)
        out += ops.batchnorm_infer(y, spec.scale_bn, out=y)
    if spec.identity_bn is not None:
        out += ops.batchnorm_infer(x, spec.identity_bn)
    return out


def _centre(kernel: np.ndarray) -> np.ndarray:
    """The centre tap of every (out, in) kernel pair, as a view."""
    return kernel[:, :, kernel.shape[2] // 2, kernel.shape[3] // 2]


def fuse(spec: RepBranchSpec) -> ConvSpec:
    """Collapse the branch group into one convolution on the main conv's
    grid: its kernel size, stride, padding, groups and dtype.

    Each branch is folded with its batch norm and rounded to the group's
    dtype, the identity branch as a one-hot 1x1 conv.  The 1x1 scale and
    identity folds touch only the centre tap, so the centre taps and the
    biases are summed in float64 from zero (main, scale, identity) and
    rounded once; every other tap is the main fold plus 0.0, which is the
    fold itself except that a -0.0 tap becomes +0.0, as in a sum from
    zero.  A one-branch group is its folded conv.
    """
    fused = fold_bn(spec.main, spec.main_bn)
    if spec.scale is None and spec.identity_bn is None:
        return fused
    folded = [fused]
    if spec.scale is not None:
        folded.append(fold_bn(spec.scale, spec.scale_bn))
    if spec.identity_bn is not None:
        m = spec.main
        c, per_group = m.out_channels, m.in_channels // m.groups
        one_hot = np.zeros((c, per_group, 1, 1), m.dtype)
        one_hot[np.arange(c), np.arange(c) % per_group] = 1
        folded.append(fold_bn(ConvSpec(one_hot, np.zeros(c, m.dtype), groups=m.groups),
                              spec.identity_bn))
    centre = np.zeros(_centre(fused.kernel).shape)
    bias = np.zeros(spec.main.out_channels)
    for conv in folded:
        centre += _centre(conv.kernel)
        bias += conv.bias
    fused.kernel[...] += 0.0  # a -0.0 tap becomes +0.0, as in a sum from zero
    _centre(fused.kernel)[...] = centre
    fused.bias[...] = bias
    return fused


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
    draws.  So each batch is drawn once per shape and dtype, by the calling
    thread, made read-only and run through every group of that shape
    before the next is drawn; at most one batch is alive at a time, and
    nothing outlives the call.  A shape's groups are fused, and then
    checked on each batch, through ``split_map``, on two threads; every
    report is what the serial loop gives, and an error is the one it
    raises.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    by_input: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        key = ((batch, spec.main.in_channels, input_hw, input_hw), np.dtype(spec.main.dtype))
        by_input.setdefault(key, []).append(i)

    def max_diff(unit):  # on the batch ``x`` of the current sample
        i, folded = unit
        diff = np.subtract(rep_branch_forward(x, specs[i]), conv2d(x, folded),
                           dtype=np.float64)
        return float(np.max(np.abs(diff, out=diff)))

    worst = [0.0] * len(specs)
    for (shape, dtype), members in by_input.items():
        units = list(zip(members, split_map(lambda i: fuse(specs[i]), members)))
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            x = rng.standard_normal(shape).astype(dtype)
            x.flags.writeable = False
            for i, diff in zip(members, split_map(max_diff, units)):
                worst[i] = float(np.maximum(worst[i], diff))
    return [{"max_abs_diff": w, "pass": w <= tol} for w in worst]
