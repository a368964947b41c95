"""Minimal reverse-mode differentiation through the ``tensor`` kernels,
plus a central-difference verifier.

A :class:`Var` wraps an ndarray and remembers how it was produced.  Each
traced kernel here (``conv2d``, ``batchnorm_infer``, ``gelu``,
``sigmoid``, ``softmax``, ``matmul``, ``concat_channels``) takes the
name and signature of its ``tensor`` counterpart and gets its value by
calling that kernel, so a traced forward computes the engine's arrays
bit for bit, in float32 and float64.  Each records the vector-Jacobian
product of its input only: weights, batch-norm parameters and running
statistics come in as ``ConvSpec`` and ``BNSpec`` constants and get no
gradient.  The VJP of ``conv2d`` runs through ``tensor.conv2d`` as well,
so this module computes no convolution of its own.  :func:`backward`
walks the recorded graph once and leaves ``.grad`` on every node.
:func:`check_gradient` compares the reverse-mode gradient of a
scalar-valued function with respect to its input against central
differences coordinate by coordinate.

This module holds no network blocks.  :func:`kernels` returns this
module for a ``Var`` and ``tensor`` for an ndarray, so the one forward
of each block in ``blocks`` and ``fusion`` runs on arrays or records a
graph.  A ``Var`` offers the array methods those forwards use (``+``,
division by a scalar, slicing, ``reshape``, ``swapaxes``); ``matmul`` and
``softmax`` take stacks of matrices, so attention is traced for the
whole batch.  ``add``, ``mul`` and ``vsum`` build the scalar losses.

There is no optimizer and no training loop; batch norm is differentiated
in inference mode only.  A graph of Vars is single-owner: do not share
one across concurrent evaluations.  Distinct graphs are independent.

Verification runs in float64; traced values are whatever dtype flows in.
"""

from __future__ import annotations

import math
import sys
from typing import Optional, Sequence, Union

import numpy as np
from scipy.special import erf

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

    def __getitem__(self, index) -> "Var":
        """A basic slice of the value; the VJP scatters the gradient into zeros."""
        def vjp(g):
            full = np.zeros_like(self.value)
            full[index] = g
            return full

        return Var(self.value[index], (self,), (vjp,))

    def reshape(self, *shape) -> "Var":
        orig = self.value.shape
        return Var(self.value.reshape(shape), (self,), (lambda g: g.reshape(orig),))

    def swapaxes(self, a: int, b: int) -> "Var":
        return Var(self.value.swapaxes(a, b), (self,), (lambda g: g.swapaxes(a, b),))


def _as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def conv2d(x: Var, spec: T.ConvSpec) -> Var:
    """The input VJP is a transposed convolution run by ``tensor.conv2d``:
    the gradient, zero-dilated by the stride and padded by k - 1, goes
    through the flipped kernel with in and out channels swapped per group,
    and is cropped to the input (Dumoulin & Visin, 2016)."""
    x = _as_var(x)
    out = T.conv2d(x.value, spec)
    h, w = x.value.shape[2:]
    (kh, kw), s, p, g = spec.kernel_size, spec.stride, spec.padding, spec.groups
    o, icg = spec.kernel.shape[:2]

    def dx(grad):
        n, _, ho, wo = grad.shape
        dilated = np.zeros((n, o, h + 2 * p + kh - 1, w + 2 * p + kw - 1), grad.dtype)
        dilated[:, :, kh - 1:kh + s * (ho - 1):s, kw - 1:kw + s * (wo - 1):s] = grad
        flipped = spec.kernel[..., ::-1, ::-1].reshape(g, o // g, icg, kh, kw).swapaxes(1, 2)
        back = T.ConvSpec(flipped.reshape(g * icg, o // g, kh, kw).astype(grad.dtype),
                          np.zeros(g * icg, grad.dtype), groups=g)
        return T.conv2d(dilated, back)[:, :, p:p + h, p:p + w]

    return Var(out, (x,), (dx,))


def batchnorm_infer(x: Var, bn: T.BNSpec) -> Var:
    x = _as_var(x)
    scale = (bn.gamma / np.sqrt(bn.running_var + T.BN_EPS))[None, :, None, None]
    return Var(T.batchnorm_infer(x.value, bn), (x,), (lambda g: g * scale,))


def matmul(a: Var, b: Var) -> Var:
    a, b = _as_var(a), _as_var(b)
    out = T.matmul(a.value, b.value)
    return Var(out, (a, b),
               (lambda g: g @ b.value.swapaxes(-1, -2),
                lambda g: a.value.swapaxes(-1, -2) @ g))


def softmax(x: Var, axis: int) -> Var:
    x = _as_var(x)
    y = T.softmax(x.value, axis=axis)

    def dx(grad):
        return y * (grad - (grad * y).sum(axis=axis, keepdims=True))

    return Var(y, (x,), (dx,))


def sigmoid(x: Var) -> Var:
    x = _as_var(x)
    y = T.sigmoid(x.value)
    return Var(y, (x,), (lambda g: g * y * (1.0 - y),))


def gelu(x: Var) -> Var:
    x = _as_var(x)
    v = x.value

    def dx(grad):
        # Python-float constants keep a float32 input's dtype.
        cdf = 0.5 * (1.0 + erf(v / math.sqrt(2.0)))
        pdf = np.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi)
        return grad * (cdf + v * pdf)

    return Var(T.gelu(v), (x,), (dx,))


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


def vsum(x: Var) -> Var:
    x = _as_var(x)
    return Var(np.asarray(x.value.sum()), (x,),
               (lambda g: np.broadcast_to(g, x.value.shape).copy(),))


def concat_channels(xs: Sequence[Var]) -> Var:
    xs = [_as_var(x) for x in xs]
    out = T.concat_channels([x.value for x in xs])
    sizes = [x.value.shape[1] for x in xs]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i):
        return lambda g: g[:, offsets[i]:offsets[i + 1]].copy()

    return Var(out, tuple(xs), tuple(make_vjp(i) for i in range(len(xs))))


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


def kernels(x):
    """The kernels for ``x``: this module for a ``Var``, else the ``tensor``
    module itself, whose attributes are looked up at each call."""
    return sys.modules[__name__] if isinstance(x, Var) else T
