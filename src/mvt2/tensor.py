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
which may be read-only views (``weights.load`` gives such); each
returns a fresh array, which callers may update in place.  Concurrent calls on
shared immutable inputs are safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf, expit

FLOAT_DTYPES = (np.float32, np.float64)
# Batch-norm epsilon of every BNSpec; weight files do not store it.
BN_EPS = 1e-5


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
    add, in NCHW.
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
        # One padded NHWC copy; each tap is a multiply-add over rows of c
        # contiguous floats, into one accumulator, in row-major tap order.
        xp = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=x.dtype)
        xp[:, p:p + h, p:p + w] = x.transpose(0, 2, 3, 1)
        taps = np.ascontiguousarray(spec.kernel[:, 0].transpose(1, 2, 0))
        acc = np.zeros((n, ho, wo, c), dtype=x.dtype)
        tmp = np.empty_like(acc)
        for i in range(kh):
            for j in range(kw):
                win = xp[:, i:i + s * (ho - 1) + 1:s, j:j + s * (wo - 1) + 1:s]
                acc += np.multiply(win, taps[i, j], out=tmp)
        out = np.empty((n, c, ho, wo), dtype=x.dtype)
        np.add(acc.transpose(0, 3, 1, 2), spec.bias[None, :, None, None], out=out)
    else:
        icg, ocg = c // g, spec.out_channels // g
        weights = spec.kernel.reshape(g, ocg, icg * kh * kw)
        out = np.empty((n, g, ocg, ho * wo), dtype=x.dtype)
        if kh == kw == 1 and s == 1 and p == 0:
            for b in range(n):
                np.matmul(weights, x[b].reshape(g, icg, ho * wo), out=out[b])
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
        out = out.reshape(n, spec.out_channels, ho, wo)
        out += spec.bias[None, :, None, None]
    return out


def batchnorm_infer(x: np.ndarray, bn: BNSpec) -> np.ndarray:
    """Per-channel normalization with fixed running statistics.

    With ``scale = gamma / sqrt(var + BN_EPS)`` per channel, computes ``x *
    scale + (beta - mean * scale)``: two passes over the tensor and no
    full-size array but the output.
    """
    x = as_nchw(x)
    if x.dtype != bn.dtype:
        raise ValueError(f"input dtype {x.dtype} does not match batch-norm dtype {bn.dtype}")
    if x.shape[1] != bn.channels:
        raise ValueError(f"input has {x.shape[1]} channels, batch-norm has {bn.channels}")
    scale = bn.gamma / np.sqrt(bn.running_var + x.dtype.type(BN_EPS))
    out = x * scale[None, :, None, None]
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
# Three float32 scratch blocks of 128 KiB each, which stay in L2.
_GELU_BLOCK = 1 << 15


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
    one.  The result takes ``x``'s sign by ``np.copysign`` in one pass,
    so -0.0, -inf and a tail that underflows to 0 give -0.0 as in
    float64.  Against the float64 GELU on a dense grid over [-10, 10] the
    float32 result is within 3.4e-7 absolute.

    float32 input runs in blocks of 32768 elements through three
    block-sized scratch buffers, so the output is the only full-size
    allocation (a non-contiguous input is first copied).  Every element
    takes the same elementwise path in every block, so a result depends
    neither on the tensor's size or layout nor on where the element falls.
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
    size = min(xs.size, _GELU_BLOCK)
    a_buf, u_buf, q_buf = (np.empty(size, dtype=np.float32) for _ in range(3))
    for lo in range(0, xs.size, _GELU_BLOCK):
        hi = min(lo + _GELU_BLOCK, xs.size)
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
        np.copysign(y, xs[lo:hi], out=y)
    return out


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
