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

Two threads.  ``verify_equivalence`` and ``model.deploy`` run their
independent units through ``split_map``, and ``weights.load`` the two
halves of its payload read: the calling thread takes the even indices
and one worker thread, owned by the library and kept for the process,
the odd ones.  The split depends on the index alone, so
results, reports and the error raised are those of the serial loop.
Where the kernel does not balance load between CPUs (a cpuset with
``sched_load_balance`` 0), a new thread stays on its creator's CPU and
the split gains nothing.  So the worker, when it starts, moves itself
off the CPU the caller ran on and then allows itself every CPU the
caller may use again: it is placed, not pinned, and a ``taskset`` or
cgroup policy of the embedding process still holds.  With one allowed
CPU, or where the CPUs cannot be read, it is not placed.  The worker
runs numpy like any caller, so the rule of one BLAS thread per
computing thread holds for it too.
"""

from __future__ import annotations

import contextlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .autodiff import kernels
from .tensor import BN_EPS, BNSpec, ConvSpec, conv2d


_worker: Optional[ThreadPoolExecutor] = None
_worker_lock = threading.Lock()
_on_worker = threading.local()


def _current_cpu() -> Optional[int]:
    """The CPU the calling thread is on (field 39 of its ``stat``), or None
    where that cannot be read."""
    try:
        with open("/proc/thread-self/stat", "rb") as fh:
            return int(fh.read().rpartition(b")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _start_worker(away, allowed) -> None:
    """The worker's initializer: leave the caller's CPU for ``away``, then
    allow every CPU of ``allowed`` again, so the worker runs beside the
    caller without being pinned there."""
    _on_worker.active = True
    if away:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, away)
            os.sched_setaffinity(0, allowed)


def _worker_pool() -> ThreadPoolExecutor:
    """The library's worker, made at the first split and kept for the
    process; placed off the CPU of the thread that made it."""
    global _worker
    with _worker_lock:
        if _worker is None:
            try:
                allowed = os.sched_getaffinity(0)
            except (AttributeError, OSError):
                allowed = set()
            cpu = _current_cpu()
            away = allowed - {cpu} if cpu in allowed else set()
            _worker = ThreadPoolExecutor(1, "mvt2-split", _start_worker, (away, allowed))
        return _worker


def _forget_worker() -> None:
    """After a fork the child has no worker thread: it makes its own."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _run(fn: Callable, part: list):
    """``fn`` over ``part`` up to its first exception: (results, exception
    or None)."""
    done = []
    try:
        for item in part:
            done.append(fn(item))
    except Exception as exc:
        return done, exc
    return done, None


def split_map(fn: Callable, items: Sequence) -> list:
    """``[fn(v) for v in items]``, on two threads: the caller computes the
    even indices and the library's worker the odd ones.  The caller waits
    for the worker's half even when its own half raised, so nothing
    outlives the call.  If items fail, the exception raised is that of the
    lowest failing index, the one the serial loop raises.  ``fn`` must be
    safe to run on two threads at once; called on the worker itself, the
    map runs serially there."""
    items = list(items)
    if len(items) < 2 or getattr(_on_worker, "active", False):
        return [fn(v) for v in items]
    odd = _worker_pool().submit(_run, fn, items[1::2])
    try:
        even = _run(fn, items[0::2])
    finally:
        odd = odd.result()
    failed = [(2 * len(done) + k, exc) for k, (done, exc) in enumerate((even, odd))
              if exc is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    out = [None] * len(items)
    out[0::2], out[1::2] = even[0], odd[0]
    return out


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
    fused.kernel += 0.0  # a -0.0 tap becomes +0.0, as in a sum from zero
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
