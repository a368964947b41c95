"""Minimal reverse-mode differentiation over the numeric kernels, plus a
central-difference verifier.

A :class:`Var` wraps an ndarray and remembers how it was produced; the
traced operations here mirror the kernels in ``tensor`` and record one
vector-Jacobian closure per input.  :func:`backward` walks the recorded
graph once and leaves ``.grad`` on every node.  :func:`check_gradient`
compares the reverse-mode gradient of a scalar-valued function against
central differences coordinate by coordinate.

This module holds no network blocks.  It supplies ``traced``, the
kernels a block forward calls under the names and ``(x, spec)``
signatures of ``tensor``, and :func:`kernels`, which picks ``tensor``
for an ndarray and ``traced`` for a ``Var``; so the one forward of each
block in ``blocks`` and ``fusion`` runs on arrays or records a graph.

There is no optimizer and no training loop; batch norm is differentiated
in inference mode only (running statistics held fixed).  A graph of Vars
is single-owner: do not share one across concurrent evaluations.
Distinct graphs are independent.

Verification runs in float64; traced values are whatever dtype flows in.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional, Sequence, Union

import numpy as np
from scipy.special import erf, expit

from . import tensor as T

ArrayLike = Union[np.ndarray, float, int]


class Var:
    """A node in the recorded computation graph."""

    __slots__ = ("value", "parents", "vjps", "grad")

    def __init__(self, value: ArrayLike, parents: Sequence["Var"] = (),
                 vjps: Sequence = ()):
        self.value = np.asarray(value)
        self.parents = tuple(parents)
        self.vjps = tuple(vjps)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.value.shape

    def __add__(self, other) -> "Var":
        return add(self, other)

    def __truediv__(self, c: float) -> "Var":
        """Divide by a constant scalar (not differentiated)."""
        return Var(self.value / c, (self,), (lambda g: g / c,))

    def __getitem__(self, i: int) -> "Var":
        """Row ``i`` along the first axis."""
        def vjp(g):
            full = np.zeros_like(self.value)
            full[i] = g
            return full

        return Var(self.value[i], (self,), (vjp,))

    def reshape(self, *shape) -> "Var":
        return reshape(self, shape)

    @property
    def T(self) -> "Var":
        return transpose(self)


def _as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def conv2d(x: Var, kernel: Var, bias: Var, stride: int = 1, padding: int = 0,
           groups: int = 1) -> Var:
    x, kernel, bias = _as_var(x), _as_var(kernel), _as_var(bias)
    spec = T.ConvSpec(kernel.value, bias.value, stride=stride,
                      padding=padding, groups=groups)
    out = T.conv2d(x.value, spec)
    n, c, h, w = x.value.shape
    kh, kw = spec.kernel_size
    ho, wo = out.shape[2], out.shape[3]
    s, p, g = stride, padding, groups
    icg = c // g
    ocg = spec.out_channels // g

    def dx(grad):
        dxp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=grad.dtype)
        for gi in range(g):
            gg = grad[:, gi * ocg:(gi + 1) * ocg]
            wg = kernel.value[gi * ocg:(gi + 1) * ocg]
            for i in range(kh):
                for j in range(kw):
                    contrib = np.tensordot(gg, wg[:, :, i, j], axes=([1], [0]))
                    dxp[:, gi * icg:(gi + 1) * icg,
                        i:i + s * (ho - 1) + 1:s,
                        j:j + s * (wo - 1) + 1:s] += contrib.transpose(0, 3, 1, 2)
        if p > 0:
            return dxp[:, :, p:-p, p:-p]
        return dxp

    def dkernel(grad):
        if p > 0:
            xp = np.pad(x.value, ((0, 0), (0, 0), (p, p), (p, p)))
        else:
            xp = x.value
        dk = np.zeros_like(kernel.value)
        for gi in range(g):
            gg = grad[:, gi * ocg:(gi + 1) * ocg]
            xg = xp[:, gi * icg:(gi + 1) * icg]
            for i in range(kh):
                for j in range(kw):
                    win = xg[:, :, i:i + s * (ho - 1) + 1:s, j:j + s * (wo - 1) + 1:s]
                    dk[gi * ocg:(gi + 1) * ocg, :, i, j] = np.tensordot(
                        gg, win, axes=([0, 2, 3], [0, 2, 3]))
        return dk

    def dbias(grad):
        return grad.sum(axis=(0, 2, 3))

    return Var(out, (x, kernel, bias), (dx, dkernel, dbias))


def batchnorm_infer(x: Var, gamma: Var, beta: Var, running_mean: np.ndarray,
                    running_var: np.ndarray, epsilon: float = 1e-5) -> Var:
    x, gamma, beta = _as_var(x), _as_var(gamma), _as_var(beta)
    inv = 1.0 / np.sqrt(running_var + epsilon)
    xhat = (x.value - running_mean[None, :, None, None]) * inv[None, :, None, None]
    out = xhat * gamma.value[None, :, None, None] + beta.value[None, :, None, None]

    def dx(grad):
        return grad * (gamma.value * inv)[None, :, None, None]

    def dgamma(grad):
        return (grad * xhat).sum(axis=(0, 2, 3))

    def dbeta(grad):
        return grad.sum(axis=(0, 2, 3))

    return Var(out, (x, gamma, beta), (dx, dgamma, dbeta))


def matmul(a: Var, b: Var) -> Var:
    a, b = _as_var(a), _as_var(b)
    out = T.matmul(a.value, b.value)
    return Var(out, (a, b),
               (lambda g: g @ b.value.T, lambda g: a.value.T @ g))


def linear(x: Var, weight: Var, bias: Var) -> Var:
    x, weight, bias = _as_var(x), _as_var(weight), _as_var(bias)
    out = x.value @ weight.value.T + bias.value
    return Var(out, (x, weight, bias),
               (lambda g: g @ weight.value,
                lambda g: g.T @ x.value,
                lambda g: g.sum(axis=0)))


def softmax(x: Var, axis: int) -> Var:
    x = _as_var(x)
    y = T.softmax(x.value, axis=axis)

    def dx(grad):
        return y * (grad - (grad * y).sum(axis=axis, keepdims=True))

    return Var(y, (x,), (dx,))


def sigmoid(x: Var) -> Var:
    x = _as_var(x)
    y = expit(x.value)
    return Var(y, (x,), (lambda g: g * y * (1.0 - y),))


def gelu(x: Var) -> Var:
    x = _as_var(x)
    v = x.value
    phi_cdf = 0.5 * (1.0 + erf(v / np.sqrt(2.0)))
    out = v * phi_cdf

    def dx(grad):
        pdf = np.exp(-0.5 * v * v) / np.sqrt(2.0 * np.pi)
        return grad * (phi_cdf + v * pdf)

    return Var(out, (x,), (dx,))


def add(a: Var, b: Var) -> Var:
    a, b = _as_var(a), _as_var(b)
    if a.value.shape != b.value.shape:
        raise ValueError(f"add requires equal shapes, got {a.shape} and {b.shape}")
    return Var(a.value + b.value, (a, b), (lambda g: g, lambda g: g))


def mul(a: Var, b: Var) -> Var:
    a, b = _as_var(a), _as_var(b)
    if a.value.shape != b.value.shape:
        raise ValueError(f"mul requires equal shapes, got {a.shape} and {b.shape}")
    return Var(a.value * b.value, (a, b),
               (lambda g: g * b.value, lambda g: g * a.value))


def cmul(x: Var, c) -> Var:
    """Multiply by a constant scalar or array (not differentiated)."""
    x = _as_var(x)
    c = np.asarray(c)
    return Var(x.value * c, (x,), (lambda g: g * c,))


def vsum(x: Var) -> Var:
    x = _as_var(x)
    return Var(np.asarray(x.value.sum()), (x,),
               (lambda g: np.broadcast_to(g, x.value.shape).copy(),))


def reshape(x: Var, shape) -> Var:
    x = _as_var(x)
    orig = x.value.shape
    return Var(x.value.reshape(shape), (x,), (lambda g: g.reshape(orig),))


def transpose(x: Var) -> Var:
    x = _as_var(x)
    if x.value.ndim != 2:
        raise ValueError("transpose is defined for 2-D values")
    return Var(x.value.T.copy(), (x,), (lambda g: g.T.copy(),))


def concat_channels(xs: Sequence[Var]) -> Var:
    xs = [_as_var(x) for x in xs]
    out = T.concat_channels([x.value for x in xs])
    sizes = [x.value.shape[1] for x in xs]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i):
        return lambda g: g[:, offsets[i]:offsets[i + 1]].copy()

    return Var(out, tuple(xs), tuple(make_vjp(i) for i in range(len(xs))))


def split_channels(x: Var, sizes: Sequence[int]) -> list[Var]:
    x = _as_var(x)
    parts = T.split_channels(x.value, list(sizes))
    offsets = np.cumsum([0] + list(sizes))
    out = []
    for i, part in enumerate(parts):
        start, stop = int(offsets[i]), int(offsets[i + 1])

        def vjp(g, start=start, stop=stop):
            full = np.zeros_like(x.value)
            full[:, start:stop] = g
            return full

        out.append(Var(part, (x,), (vjp,)))
    return out


def global_avg_pool(x: Var) -> Var:
    x = _as_var(x)
    n, c, h, w = x.value.shape
    out = T.global_avg_pool(x.value)

    def dx(grad):
        return np.broadcast_to(grad[:, :, None, None] / (h * w),
                               x.value.shape).copy()

    return Var(out, (x,), (dx,))


def backward(loss: Var):
    """Populate ``.grad`` on every node reachable from ``loss``.

    ``loss`` must hold a scalar.  Gradients accumulate across fan-out;
    leaves that influence the loss receive their total derivative.
    """
    if loss.value.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")

    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))

    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        if node.grad is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            contrib = vjp(node.grad)
            parent.grad = contrib if parent.grad is None else parent.grad + contrib


def check_gradient(f, x: np.ndarray, eps: float = 1e-5) -> float:
    """Max relative error between reverse-mode and central-difference
    gradients of scalar-valued ``f`` at ``x``, elementwise metric
    |a - n| / max(1, |a|, |n|).  Runs in float64."""
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps must lie in [1e-7, 1e-3], got {eps}")
    x = np.asarray(x, dtype=np.float64)

    leaf = Var(x)
    out = f(leaf)
    if out.value.size != 1:
        raise ValueError("f must return a scalar")
    if not np.isfinite(out.value):
        raise ValueError("non-finite value in forward evaluation")
    backward(out)
    analytic = leaf.grad
    if analytic is None:
        analytic = np.zeros_like(x)
    if not np.all(np.isfinite(analytic)):
        raise ValueError("non-finite value in reverse-mode gradient")

    worst = 0.0
    flat = x.reshape(-1)
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = eps
        hi = float(f(Var((flat + bump).reshape(x.shape))).value)
        lo = float(f(Var((flat - bump).reshape(x.shape))).value)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError("non-finite value in finite-difference evaluation")
        numeric = (hi - lo) / (2.0 * eps)
        a = float(analytic.reshape(-1)[i])
        err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
        worst = max(worst, err)
    return worst


# The tensor kernels the block forwards call, traced.  Weights are
# recorded as constant leaves; batch norm keeps its running statistics.
traced = SimpleNamespace(
    conv2d=lambda x, spec: conv2d(x, Var(spec.kernel), Var(spec.bias), spec.stride,
                                  spec.padding, spec.groups),
    batchnorm_infer=lambda x, bn: batchnorm_infer(x, Var(bn.gamma), Var(bn.beta),
                                                  bn.running_mean, bn.running_var,
                                                  bn.epsilon),
    gelu=gelu,
    sigmoid=sigmoid,
    softmax=softmax,
    matmul=matmul,
    concat_channels=concat_channels,
    split_channels=split_channels,
)


def kernels(x):
    """The kernel namespace for ``x``: ``traced`` for a ``Var``, else ``tensor``."""
    return traced if isinstance(x, Var) else T
