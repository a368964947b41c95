"""Dense NCHW tensors and the numeric kernels the network is built from.

Tensors are plain ``numpy.ndarray`` values of rank 4 in NCHW layout
(batch, channels, height, width), C-contiguous, dtype float32 on the
engine path.  float64 is reserved for verification oracles and gradient
checks.  :func:`as_nchw` validates the layout contract.

All kernels are pure functions of their inputs and are deterministic.
Dense ``conv2d`` lowers each sample and group to one im2col GEMM
(Chellapilla et al., 2006) run by the platform BLAS, which is
reproducible for a fixed build, so repeated evaluation on identical
input is bit-identical.  The GEMM never spans samples, so each batch row
takes the same arithmetic path at any batch size and is bit-identical to
a batch-1 run of that row.  A stacked ``matmul`` runs one GEMM per
matrix, the same GEMM a single matrix gets, so a batch of attention
products keeps its rows independent the same way; ``softmax`` reduces
along one axis of each matrix only.  ``linear`` runs row by row, because
one GEMM over the rows is not row-identical, and the elementwise kernels
apply one formula to every element.  Concurrent calls on shared
immutable inputs are safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf, expit

FLOAT_DTYPES = (np.float32, np.float64)


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

    def astype(self, dtype) -> "ConvSpec":
        return ConvSpec(
            self.kernel.astype(dtype), self.bias.astype(dtype),
            self.stride, self.padding, self.groups,
        )


@dataclass
class BNSpec:
    """Batch-norm parameters and running statistics (inference mode only)."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    epsilon: float = 1e-5

    def __post_init__(self):
        arrs = [np.asarray(a) for a in
                (self.gamma, self.beta, self.running_mean, self.running_var)]
        self.gamma, self.beta, self.running_mean, self.running_var = arrs
        n = self.gamma.shape
        if any(a.shape != n for a in arrs) or self.gamma.ndim != 1:
            raise ValueError("batch-norm arrays must all be 1-D of equal length")
        if len({a.dtype for a in arrs}) != 1 or self.gamma.dtype not in FLOAT_DTYPES:
            raise ValueError("batch-norm arrays must share a float32/float64 dtype")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if np.any(self.running_var < 0):
            raise ValueError("running_var must be non-negative")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    @property
    def dtype(self):
        return self.gamma.dtype

    @classmethod
    def identity(cls, channels: int, epsilon: float = 1e-5, dtype=np.float32) -> "BNSpec":
        """A batch-norm that maps x to x exactly (var = 1 - eps so var + eps = 1)."""
        one = np.ones(channels, dtype=dtype)
        return cls(
            gamma=one.copy(),
            beta=np.zeros(channels, dtype=dtype),
            running_mean=np.zeros(channels, dtype=dtype),
            running_var=one - dtype(epsilon),
            epsilon=epsilon,
        )

    def astype(self, dtype) -> "BNSpec":
        return BNSpec(
            self.gamma.astype(dtype), self.beta.astype(dtype),
            self.running_mean.astype(dtype), self.running_var.astype(dtype),
            self.epsilon,
        )


def conv2d(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Grouped 2-D convolution (cross-correlation) with zero padding.

    Output shape is (N, out_channels, (H + 2p - kh) // s + 1,
    (W + 2p - kw) // s + 1).  Dense convolutions run one GEMM per sample
    and group: the (out/groups, in/groups*kh*kw) kernel matrix times the
    (in/groups*kh*kw, Ho*Wo) im2col columns, written straight into the
    NCHW output (for 1x1 stride-1 kernels the columns are a view of the
    input).  A GEMM's shape depends only on the spec and the image size,
    never on the batch size, so each batch row is bit-identical to a
    batch-1 run of that row.  Depthwise convolutions accumulate the kh*kw
    taps elementwise in row-major order, without BLAS.
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

    if p > 0:
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    else:
        xp = x

    if spec.is_depthwise:
        # One tap per channel: elementwise multiply-add, no BLAS involved.
        out = np.zeros((n, spec.out_channels, ho, wo), dtype=x.dtype)
        for i in range(kh):
            for j in range(kw):
                win = xp[:, :, i:i + s * (ho - 1) + 1:s, j:j + s * (wo - 1) + 1:s]
                out += win * spec.kernel[:, 0, i, j][None, :, None, None]
    else:
        icg = c // g
        ocg = spec.out_channels // g
        weights = spec.kernel.reshape(g, ocg, icg * kh * kw)
        out = np.empty((n, g, ocg, ho * wo), dtype=x.dtype)
        for b in range(n):
            for gi in range(g):
                xg = xp[b, gi * icg:(gi + 1) * icg]
                if kh == kw == 1 and s == 1:
                    cols = xg.reshape(icg, ho * wo)
                else:
                    # (icg, ho, wo, kh, kw) view -> one (icg*kh*kw, ho*wo) copy,
                    # rows ordered like the flattened kernel.
                    win = sliding_window_view(xg, (kh, kw), axis=(1, 2))[:, ::s, ::s]
                    cols = win.transpose(0, 3, 4, 1, 2).reshape(icg * kh * kw, ho * wo)
                np.matmul(weights[gi], cols, out=out[b, gi])
        out = out.reshape(n, spec.out_channels, ho, wo)

    out += spec.bias[None, :, None, None]
    return out


def batchnorm_infer(x: np.ndarray, bn: BNSpec) -> np.ndarray:
    """Per-channel normalization with fixed running statistics."""
    x = as_nchw(x)
    if x.dtype != bn.dtype:
        raise ValueError(f"input dtype {x.dtype} does not match batch-norm dtype {bn.dtype}")
    if x.shape[1] != bn.channels:
        raise ValueError(f"input has {x.shape[1]} channels, batch-norm has {bn.channels}")
    scale = bn.gamma / np.sqrt(bn.running_var + x.dtype.type(bn.epsilon))
    return (x - bn.running_mean[None, :, None, None]) * scale[None, :, None, None] \
        + bn.beta[None, :, None, None]


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


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact (erf-based) Gaussian error linear unit, 0.5 * x * (1 + erf(x / sqrt 2)).

    float64 input goes through ``scipy.special.erf``.  float32 input
    computes erf with Abramowitz & Stegun 7.1.26: with ``z = x / sqrt 2``
    and ``t = 1 / (1 + 0.3275911 |z|)``, ``erf(|z|) = 1 - (a1 t + ... +
    a5 t^5) exp(-z^2)`` (absolute error <= 1.5e-7), sign restored with
    ``copysign``.  Measured against the float64 GELU on a dense grid over
    [-10, 10] the float32 result is within 4.7e-7 absolute, against 4.5e-7
    for scipy's erf evaluated in float32.  Every element takes the same
    elementwise path, so results do not depend on the tensor's size.
    """
    x = np.asarray(x)
    if x.dtype not in FLOAT_DTYPES:
        raise ValueError(f"gelu input must be float32 or float64, got {x.dtype}")
    # x enters the last product clamped to the lowest finite value, so
    # -inf gives 0 * finite = 0 (its limit) instead of 0 * -inf = NaN.
    lowest = np.finfo(x.dtype).min
    if x.dtype == np.float64:
        return 0.5 * np.maximum(x, lowest) * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
    f32 = np.float32
    # e = exp(-z^2) = exp(-x^2 / 2); x^2 overflows to inf for |x| > 1.8e19,
    # where e = 0 is the right value.
    with np.errstate(over="ignore"):
        e = np.square(x, out=np.empty_like(x))
    e *= f32(-0.5)
    np.exp(e, out=e)
    # t = 1 / (1 + p |x| / sqrt 2)
    t = np.abs(x, out=np.empty_like(x))
    t *= f32(_AS_P / np.sqrt(2.0))
    t += f32(1.0)
    np.reciprocal(t, out=t)
    # q = (a1 t + ... + a5 t^5) e = 1 - erf(|z|), by Horner's rule
    q = np.multiply(t, f32(_AS_A[4]), out=np.empty_like(x))
    for a in reversed(_AS_A[:4]):
        q += f32(a)
        q *= t
    q *= e
    np.subtract(f32(1.0), q, out=q)
    np.copysign(q, x, out=q)
    q += f32(1.0)
    q *= np.maximum(x, lowest, out=t)
    q *= f32(0.5)
    return q


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Spatial mean per channel, returned as an (N, C) matrix."""
    x = as_nchw(x)
    return x.mean(axis=(2, 3))


def concat_channels(xs: list[np.ndarray]) -> np.ndarray:
    if not xs:
        raise ValueError("concat_channels needs at least one tensor")
    xs = [as_nchw(t, f"xs[{i}]") for i, t in enumerate(xs)]
    base = xs[0]
    for i, t in enumerate(xs[1:], start=1):
        if t.shape[0] != base.shape[0] or t.shape[2:] != base.shape[2:]:
            raise ValueError(
                f"xs[{i}] shape {t.shape} not stackable with {base.shape} along channels"
            )
    return np.concatenate(xs, axis=1)


def split_channels(x: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    x = as_nchw(x)
    if any(s < 1 for s in sizes):
        raise ValueError(f"split sizes must be positive, got {sizes}")
    if sum(sizes) != x.shape[1]:
        raise ValueError(f"split sizes {sizes} do not sum to {x.shape[1]} channels")
    out = []
    start = 0
    for s in sizes:
        out.append(np.ascontiguousarray(x[:, start:start + s]))
        start += s
    return out


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
