"""Dense NCHW tensors and the numeric kernels the network is built from.

Tensors are plain ``numpy.ndarray`` values of rank 4 in NCHW layout
(batch, channels, height, width), C-contiguous, dtype float32 on the
engine path.  float64 is reserved for verification oracles and gradient
checks.  :func:`as_nchw` validates the layout contract.

The kernels are ``conv2d``, ``batchnorm_infer``, ``gelu``, ``sigmoid``,
``softmax``, ``matmul``, ``global_avg_pool``, ``linear`` and
``concat_channels``; a block takes channel slices of a tensor as views.
All kernels are pure functions of their inputs and are deterministic.
Dense ``conv2d`` lowers each sample to one stacked im2col GEMM
(Chellapilla et al., 2006), one matrix per group, run by the platform
BLAS, which is reproducible for a fixed build, so repeated evaluation on
identical input is bit-identical.  Its columns are filled straight from
the unpadded input into one buffer per call; no padded copy is made.
The GEMM never spans samples, so each batch row takes the same
arithmetic path at any batch size and is bit-identical to a batch-1 run
of that row.  Depthwise ``conv2d`` uses
no BLAS: it runs its taps channels-last on an internal padded copy, one
elementwise multiply-add per tap in row-major tap order, so every output
element gets the same additions in the same order and rows stay
bit-identical.  A stacked ``matmul`` runs one GEMM per matrix, the same
GEMM a single matrix gets, so a batch of attention products keeps its
rows independent the same way; ``softmax`` reduces along one axis of
each matrix only.  ``linear`` runs row by row, because one GEMM over the
rows is not row-identical.  The elementwise kernels apply one formula to
every element: ``batchnorm_infer`` as one multiply and one add per
element, float32 ``gelu`` in fixed-size blocks through block-sized
scratch buffers, where an element's result depends on neither the block
nor its place in it.  No kernel writes into its input or its weights,
which may be read-only views (``weights.load`` gives such), with one
exception a caller asks for: ``batchnorm_infer`` writes into the
``out=`` array it is passed, which may be its input.  Every other call
returns a fresh array, which callers may update in place.  Concurrent
calls on shared immutable inputs are safe.

Two cores.  ``split_map`` runs independent items on the calling thread
and one library-owned worker thread.  Three kernels use it inside
themselves for a batch of two or more rows: unpadded 1x1 stride-1 dense
``conv2d``, whose columns are views of the input; depthwise ``conv2d``
with a padded copy; and float32 ``gelu``.  The caller takes rows [0,
ceil(n/2)) and the worker the rest.  Each half runs the per-sample GEMMs,
per-tap multiply-adds or GELU blocks of a whole call, bias add included,
into its own rows of one output array, so every row keeps its bits, and
the same rows stay on the same thread from kernel to kernel.  The worker
runs only numpy and private helpers on its half, never a public
``tensor`` function, so a tracer that rebinds those sees every call on
the calling thread.  Batch 1 stays on the caller.  Dense convs that
fill a column buffer (3x3, strided 1x1) stay serial: split by samples
they need a second buffer, and split into row bands they change GEMM
bits.  ``batchnorm_infer`` stays serial too: two passes of one multiply
or add per element were slower split.  A kernel called inside a split,
on either thread, runs whole on its own thread.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import erf, expit

FLOAT_DTYPES = (np.float32, np.float64)
# Batch-norm epsilon of every BNSpec; weight files do not store it.
BN_EPS = 1e-5


_worker: Optional[ThreadPoolExecutor] = None
_worker_lock = threading.Lock()
# ``active`` on a thread running a half of a split: the worker always, the
# caller while it runs its own half
_in_split = threading.local()


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
    _in_split.active = True
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


def _splits(n: int) -> bool:
    """Whether ``n`` items or batch rows split: two or more, and not
    already inside a split."""
    return n >= 2 and not getattr(_in_split, "active", False)


def split_map(fn: Callable, items: Sequence) -> list:
    """``[fn(v) for v in items]``, on two threads: the caller computes the
    even indices and the library's worker the odd ones.  The worker runs
    its half in a copy of the caller's ``contextvars`` context, so the
    caller's ``np.errstate`` holds there too.  The caller waits for the
    worker's half even when its own half raised, so nothing outlives the
    call.  If items fail, the exception raised is that of the lowest
    failing index, the one the serial loop raises.  ``fn`` must be safe to
    run on two threads at once.  Inside a split, on the worker or on the
    caller running its own half, the map runs serially on that thread, so
    no split nests in another and none waits behind the busy worker."""
    items = list(items)
    if not _splits(len(items)):
        return [fn(v) for v in items]
    odd = _worker_pool().submit(contextvars.copy_context().run, _run, fn, items[1::2])
    _in_split.active = True
    try:
        even = _run(fn, items[0::2])
    finally:
        _in_split.active = False
        odd = odd.result()
    failed = [(2 * len(done) + k, exc) for k, (done, exc) in enumerate((even, odd))
              if exc is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    out = [None] * len(items)
    out[0::2], out[1::2] = even[0], odd[0]
    return out


def _split_rows(rows: Callable, x: np.ndarray, out: np.ndarray, *args) -> None:
    """``rows(x[half], out[half], *args)`` over two halves of the rows of
    ``x`` and ``out``: the caller takes [0, ceil(n/2)) and ``split_map``'s
    worker the rest.  Callers check ``_splits`` first, so a serial call
    runs its kernel with no closure or split on its path."""
    n = len(x)
    mid = (n + 1) // 2
    split_map(lambda half: rows(x[half], out[half], *args), [slice(0, mid), slice(mid, n)])


def as_nchw(x: np.ndarray, name: str = "x") -> np.ndarray:
    """Validate that ``x`` is a rank-4 NCHW float tensor and return it contiguous."""
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"{name} must be rank-4 NCHW, got shape {x.shape}")
    if x.dtype not in FLOAT_DTYPES:
        raise ValueError(f"{name} must be float32 or float64, got {x.dtype}")
    if min(x.shape) < 1:
        raise ValueError(f"{name} has a zero extent: {x.shape}")
    return np.ascontiguousarray(x)


def conv_output_hw(h: int, w: int, kh: int, kw: int, stride: int, padding: int) -> tuple[int, int]:
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    return ho, wo


@dataclass
class ConvSpec:
    """Weights and hyperparameters of a 2-D convolution.

    ``kernel`` has shape (out_channels, in_channels // groups, kh, kw);
    ``bias`` has shape (out_channels,) and may be all-zero.  Padding is
    zero-padding on both spatial sides.
    """

    kernel: np.ndarray
    bias: np.ndarray
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def __post_init__(self):
        self.kernel = np.asarray(self.kernel)
        self.bias = np.asarray(self.bias)
        if self.kernel.ndim != 4:
            raise ValueError(f"kernel must be rank-4, got shape {self.kernel.shape}")
        if self.kernel.dtype not in FLOAT_DTYPES or self.bias.dtype not in FLOAT_DTYPES:
            raise ValueError("kernel and bias must be float32 or float64")
        if self.kernel.dtype != self.bias.dtype:
            raise ValueError("kernel and bias dtypes differ")
        if self.bias.shape != (self.kernel.shape[0],):
            raise ValueError(
                f"bias shape {self.bias.shape} does not match out_channels {self.kernel.shape[0]}"
            )
        if self.stride < 1:
            raise ValueError("stride must be positive")
        if self.padding < 0:
            raise ValueError("padding must be non-negative")
        if self.groups < 1:
            raise ValueError("groups must be positive")
        if self.out_channels % self.groups != 0:
            raise ValueError(
                f"out_channels {self.out_channels} not divisible by groups {self.groups}"
            )

    @property
    def out_channels(self) -> int:
        return self.kernel.shape[0]

    @property
    def in_channels(self) -> int:
        return self.kernel.shape[1] * self.groups

    @property
    def kernel_size(self) -> tuple[int, int]:
        return self.kernel.shape[2], self.kernel.shape[3]

    @property
    def is_depthwise(self) -> bool:
        return self.groups == self.in_channels == self.out_channels

    @property
    def dtype(self):
        return self.kernel.dtype


@dataclass
class BNSpec:
    """Batch-norm parameters and running statistics (inference mode only);
    every batch norm uses epsilon ``BN_EPS``."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray

    def __post_init__(self):
        arrs = [np.asarray(a) for a in
                (self.gamma, self.beta, self.running_mean, self.running_var)]
        self.gamma, self.beta, self.running_mean, self.running_var = arrs
        n = self.gamma.shape
        if any(a.shape != n for a in arrs) or self.gamma.ndim != 1:
            raise ValueError("batch-norm arrays must all be 1-D of equal length")
        if len({a.dtype for a in arrs}) != 1 or self.gamma.dtype not in FLOAT_DTYPES:
            raise ValueError("batch-norm arrays must share a float32/float64 dtype")
        if np.any(self.running_var < 0):
            raise ValueError("running_var must be non-negative")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    @property
    def dtype(self):
        return self.gamma.dtype


def _tap_span(i: int, p: int, s: int, size: int, out: int) -> tuple[int, int]:
    """The output positions [lo, hi) at which kernel tap ``i`` reads inside
    an input of ``size``, at padding ``p`` and stride ``s``; lo == hi when
    the tap lies wholly in the padding."""
    lo = min(out, max(0, -((i - p) // s)))
    return lo, max(lo, min(out, (size - 1 + p - i) // s + 1))


def conv2d(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Grouped 2-D convolution (cross-correlation) with zero padding.

    Output shape is (N, out_channels, (H + 2p - kh) // s + 1,
    (W + 2p - kw) // s + 1).  Dense convolutions run one stacked GEMM per
    sample: the (groups, out/groups, in/groups*kh*kw) kernel matrices
    times the (groups, in/groups*kh*kw, Ho*Wo) im2col columns, one matrix
    product per group, written straight into the NCHW output.  For an
    unpadded 1x1 stride-1 kernel the columns are a view of the input.
    Otherwise every sample's columns go through one (C, kh, kw, Ho, Wo)
    buffer per call, with no padded copy of the input: each tap's strided
    window of the unpadded input is copied in per sample, and the strips
    of a tap that fall in the padding (all of a tap that lies wholly in
    it) are zeroed once per call.  A GEMM's
    shape depends only on the spec and the image size, never on the batch
    size, so each batch row is bit-identical to a batch-1 run of that row.
    Depthwise convolutions use no BLAS: they run channels-last on an
    internal padded (N, H, W, C) copy, adding the kh*kw taps elementwise
    in row-major order (0 + tap 0 + tap 1 + ..., then the bias), so each
    row is bit-identical too; input and output stay NCHW.  An unpadded 1x1
    depthwise conv, a single tap, is one per-channel multiply and the bias
    add, in NCHW.  An unpadded 1x1 stride-1 dense conv and a padded
    depthwise conv split a batch of two or more rows over two threads
    (see the module docstring); each half runs the same per-row arithmetic
    into its own rows of the output.
    """
    x = as_nchw(x)
    n, c, h, w = x.shape
    if x.dtype != spec.dtype:
        raise ValueError(f"input dtype {x.dtype} does not match kernel dtype {spec.dtype}")
    if c != spec.in_channels:
        raise ValueError(f"input has {c} channels, spec expects {spec.in_channels}")
    kh, kw = spec.kernel_size
    s, p, g = spec.stride, spec.padding, spec.groups
    ho, wo = conv_output_hw(h, w, kh, kw, s, p)
    if ho < 1 or wo < 1:
        raise ValueError(f"kernel {kh}x{kw} does not fit input {h}x{w} with padding {p}")

    if spec.is_depthwise and kh == kw == 1 and p == 0:
        # One tap needs no padded copy: a per-channel scale in NCHW.
        out = x[:, :, ::s, ::s] * spec.kernel[:, 0]
        out += spec.bias[:, None, None]
    elif spec.is_depthwise:
        taps = np.ascontiguousarray(spec.kernel[:, 0].transpose(1, 2, 0))
        if _splits(n):
            out = np.empty((n, c, ho, wo), dtype=x.dtype)
            _split_rows(_depthwise, x, out, taps, spec.bias, s, p)
        else:
            out = _depthwise(x, None, taps, spec.bias, s, p)
    else:
        icg, ocg = c // g, spec.out_channels // g
        weights = spec.kernel.reshape(g, ocg, icg * kh * kw)
        out = np.empty((n, g, ocg, ho * wo), dtype=x.dtype)
        if kh == kw == 1 and s == 1 and p == 0:
            bias = spec.bias.reshape(g, ocg, 1)
            if _splits(n):
                _split_rows(_pointwise, x, out, weights, bias)
            else:
                _pointwise(x, out, weights, bias)
        else:
            # One (c, kh, kw, ho, wo) column buffer, rows ordered like the
            # flattened kernel.  A tap's strips that fall in the padding are
            # zeroed once; each sample overwrites only the rest.
            cols = np.empty((c, kh, kw, ho, wo), dtype=x.dtype)
            taps = []
            for i in range(kh):
                y0, y1 = _tap_span(i, p, s, h, ho)
                for j in range(kw):
                    x0, x1 = _tap_span(j, p, s, w, wo)
                    tap = cols[:, i, j]
                    tap[:, :y0] = tap[:, y1:] = 0
                    tap[:, y0:y1, :x0] = tap[:, y0:y1, x1:] = 0
                    if y0 < y1 and x0 < x1:
                        src = (slice(None), slice(y0 * s + i - p, (y1 - 1) * s + i - p + 1, s),
                               slice(x0 * s + j - p, (x1 - 1) * s + j - p + 1, s))
                        taps.append((tap[:, y0:y1, x0:x1], src))
            for b in range(n):
                for dst, src in taps:
                    dst[...] = x[b][src]
                np.matmul(weights, cols.reshape(g, icg * kh * kw, ho * wo), out=out[b])
            out += spec.bias.reshape(g, ocg, 1)
        out = out.reshape(n, spec.out_channels, ho, wo)
    return out


def _pointwise(x: np.ndarray, out: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> None:
    """Unpadded 1x1 stride-1 dense conv of the NCHW ``x`` into the (N,
    groups, out/groups, H*W) ``out``: one stacked GEMM per row, its columns
    a view of the row, then the (groups, out/groups, 1) bias."""
    for b in range(len(x)):
        np.matmul(weights, x[b].reshape(weights.shape[0], -1, out.shape[-1]), out=out[b])
    out += bias


def _depthwise(x: np.ndarray, out: np.ndarray | None, taps: np.ndarray, bias: np.ndarray,
               s: int, p: int) -> np.ndarray:
    """Depthwise conv of the NCHW ``x`` with the (kh, kw, C) ``taps``, into
    ``out``, or a new array if it is None: one padded NHWC copy, then each
    tap is a multiply-add over rows of C contiguous floats, into one
    accumulator, in row-major tap order, and the bias add writes NCHW."""
    n, c, h, w = x.shape
    kh, kw = taps.shape[:2]
    ho, wo = conv_output_hw(h, w, kh, kw, s, p)
    xp = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=x.dtype)
    xp[:, p:p + h, p:p + w] = x.transpose(0, 2, 3, 1)
    acc = np.zeros((n, ho, wo, c), dtype=x.dtype)
    tmp = np.empty_like(acc)
    for i in range(kh):
        for j in range(kw):
            win = xp[:, i:i + s * (ho - 1) + 1:s, j:j + s * (wo - 1) + 1:s]
            acc += np.multiply(win, taps[i, j], out=tmp)
    if out is None:
        out = np.empty((n, c, ho, wo), dtype=x.dtype)
    np.add(acc.transpose(0, 3, 1, 2), bias[None, :, None, None], out=out)
    return out


def batchnorm_infer(x: np.ndarray, bn: BNSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Per-channel normalization with fixed running statistics.

    With ``scale = gamma / sqrt(var + BN_EPS)`` per channel, computes ``x *
    scale + (beta - mean * scale)``: two passes over the tensor and no
    full-size array but the output.  The output is a fresh array, or
    ``out`` when one is given: an array of ``x``'s shape and dtype, which
    may be ``x`` itself.  Each element is computed from its own input
    element alone, so writing in place gives the bits of a fresh output.
    """
    x = as_nchw(x)
    if x.dtype != bn.dtype:
        raise ValueError(f"input dtype {x.dtype} does not match batch-norm dtype {bn.dtype}")
    if x.shape[1] != bn.channels:
        raise ValueError(f"input has {x.shape[1]} channels, batch-norm has {bn.channels}")
    if out is not None and (out.shape, out.dtype) != (x.shape, x.dtype):
        raise ValueError(f"out is {out.dtype} {out.shape}, the input {x.dtype} {x.shape}")
    scale = bn.gamma / np.sqrt(bn.running_var + x.dtype.type(BN_EPS))
    out = np.multiply(x, scale[None, :, None, None], out=out)
    out += (bn.beta - bn.running_mean * scale)[None, :, None, None]
    return out


def softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Stabilized softmax along ``axis``."""
    x = np.asarray(x)
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two matrices, or of two equal-length stacks of matrices."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != b.ndim or a.ndim not in (2, 3) or a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"matmul expects two matrices or equal stacks, got {a.shape}, {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"inner dimensions disagree: {a.shape} @ {b.shape}")
    return a @ b


def sigmoid(x: np.ndarray) -> np.ndarray:
    return expit(np.asarray(x))


_AS_P = 0.3275911
_AS_A = (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429)
# float32 GELU constants; see gelu's docstring.
_GELU_C = np.float32(np.sqrt(2.0) / _AS_P)
_GELU_H = tuple(np.float32(a / 2 * float(_GELU_C) ** i) for i, a in enumerate(_AS_A, start=1))
_GELU_CLAMP = np.float32(9.0)
_SIGN_BIT = np.uint32(0x80000000)
# Three float32 scratch blocks of 128 KiB each, which stay in L2.
_GELU_BLOCK = 1 << 15
# The block of each half of a split call: four times fewer ufunc calls, so
# two threads hand the GIL to each other four times less often.
_GELU_SPLIT_BLOCK = 1 << 17


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact (erf-based) Gaussian error linear unit, 0.5 * x * (1 + erf(x / sqrt 2)).

    float64 input goes through ``scipy.special.erf``.  float32 input uses
    the equal form ``max(x, 0) - |x| erfc(|x| / sqrt 2) / 2``, with erfc
    from Abramowitz & Stegun 7.1.26: for ``z = |x| / sqrt 2`` and ``t = 1 /
    (1 + 0.3275911 z)``, ``erfc(z) = (a1 t + ... + a5 t^5) exp(-z^2)``
    (absolute error <= 1.5e-7).  The halving and the constant in ``t`` are
    folded into the coefficients: with ``c = sqrt 2 / 0.3275911``, ``t = c
    u`` for ``u = 1 / (c + |x|)``, and Horner's rule runs on ``u`` with
    coefficients ``a_i c^i / 2``.

    ``u`` takes the unclamped ``|x|``, so it is 0 at +-inf.  The factor
    ``exp(-a^2 / 2)`` and the final product take ``a = min(|x|, 9)``, so no
    square overflows and no ``inf * 0`` appears.  The clamp also keeps the
    tail ``a erfc / 2`` of a large negative ``x`` above 1e-21 for ``|x| <=
    1e4`` (it stays normal up to ``|x|`` ~ 1e21), where an unclamped
    ``exp(-x^2 / 2)`` sinks into float32 subnormals, which are slow in the
    GEMMs that read them.  Past 9 the result is within 1e-18 of the exact
    one.  The result takes ``x``'s sign bit, the bits ``np.copysign``
    gives, by integer passes on ``uint32`` views that or ``x``'s sign bit
    into the result, which cost less than ``copysign``.  The or alone is
    enough: the tail is never below zero, so ``max(x, 0)`` minus the tail
    has its sign bit set only where ``x`` has (a positive ``x`` loses at
    most half of itself, a negative one gives ``0`` minus the tail, and a
    NaN passes through as ``x``'s own NaN).  So -0.0, -inf and a tail that
    underflows to 0 give -0.0 as in float64.  Against the
    float64 GELU on a dense grid over [-10, 10] the float32 result is
    within 3.4e-7 absolute.

    float32 input runs in blocks of 32768 elements through three
    block-sized scratch buffers, so the output is the only full-size
    allocation (a non-contiguous input is first copied).  Every element
    takes the same elementwise path in every block, so a result depends
    neither on the tensor's size or layout nor on where the element falls.
    With two or more rows along axis 0, the rows are split over two threads
    (see the module docstring), each half in blocks of 131072 elements
    through its own scratch buffers.
    """
    x = np.asarray(x)
    if x.dtype not in FLOAT_DTYPES:
        raise ValueError(f"gelu input must be float32 or float64, got {x.dtype}")
    if x.dtype == np.float64:
        # x enters the last product clamped to the lowest finite value, so
        # -inf gives 0 * finite = 0 (its limit) instead of 0 * -inf = NaN.
        lowest = np.finfo(x.dtype).min
        return 0.5 * np.maximum(x, lowest) * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
    out = np.empty(x.shape, dtype=np.float32)
    xs, ys = np.ascontiguousarray(x).reshape(-1), out.reshape(-1)
    n = x.shape[0] if x.ndim else 1
    if _splits(n):
        _split_rows(_gelu_blocks, xs.reshape(n, -1), ys.reshape(n, -1), _GELU_SPLIT_BLOCK)
    else:
        _gelu_blocks(xs, ys, _GELU_BLOCK)
    return out


def _gelu_blocks(xs: np.ndarray, ys: np.ndarray, block: int) -> None:
    """Float32 ``gelu`` of the contiguous ``xs`` into ``ys``, ``block``
    elements at a time through three block-sized scratch buffers."""
    xs, ys = xs.ravel(), ys.ravel()
    size = min(xs.size, block)
    a_buf, u_buf, q_buf = (np.empty(size, dtype=np.float32) for _ in range(3))
    for lo in range(0, xs.size, block):
        hi = min(lo + block, xs.size)
        a, u, q = a_buf[:hi - lo], u_buf[:hi - lo], q_buf[:hi - lo]
        np.abs(xs[lo:hi], out=a)
        np.add(a, _GELU_C, out=u)
        np.reciprocal(u, out=u)
        np.multiply(u, _GELU_H[4], out=q)
        for h in reversed(_GELU_H[:4]):
            q += h
            q *= u
        # q = a erfc(a / sqrt 2) / 2, u's buffer holds exp(-a^2 / 2)
        np.minimum(a, _GELU_CLAMP, out=a)
        e = np.square(a, out=u)
        e *= np.float32(-0.5)
        np.exp(e, out=e)
        q *= e
        q *= a
        y = np.maximum(xs[lo:hi], np.float32(0.0), out=ys[lo:hi])
        y -= q
        # y's sign bit can be set only where x's is: or in x's, from a's free buffer
        sign = np.bitwise_and(xs[lo:hi].view(np.uint32), _SIGN_BIT, out=a.view(np.uint32))
        y = y.view(np.uint32)
        y |= sign


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Spatial mean per channel, returned as an (N, C) matrix."""
    x = as_nchw(x)
    return x.mean(axis=(2, 3))


def concat_channels(xs: list[np.ndarray]) -> np.ndarray:
    """Stack NCHW tensors along channels; numpy rejects an empty list or a
    batch or spatial mismatch with a ValueError."""
    return np.concatenate([as_nchw(t, f"xs[{i}]") for i, t in enumerate(xs)], axis=1)


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map of an (N, F_in) matrix by an (F_out, F_in) weight.

    Rows are computed one at a time so each sample takes the identical
    arithmetic path regardless of batch size (the platform GEMM picks
    different kernels for different row counts, which would otherwise
    perturb low-order bits).
    """
    x = np.asarray(x)
    weight = np.asarray(weight)
    bias = np.asarray(bias)
    if x.ndim != 2 or weight.ndim != 2:
        raise ValueError(f"linear expects 2-D input and weight, got {x.shape}, {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ValueError(f"input features {x.shape[1]} != weight features {weight.shape[1]}")
    if bias.shape != (weight.shape[0],):
        raise ValueError(f"bias shape {bias.shape} does not match out features {weight.shape[0]}")
    out = np.empty((x.shape[0], weight.shape[0]), dtype=x.dtype)
    for i in range(x.shape[0]):
        out[i] = weight @ x[i] + bias
    return out
