"""Composite network blocks in train form and deploy form.

Four block families:

- ``RepEmbedBlock``: dense multi-branch convolution used for patch
  embedding and downsampling (stride 1 or 2).
- ``RepDWBlock``: depthwise multi-branch token mixer plus feed-forward,
  each wrapped in a residual.
- ``SDTABlock``: depthwise mixer, then a split-projection transposed
  attention with fixed 16-channel query/key heads and a sigmoid-gated
  local path, then feed-forward, each wrapped in a residual.
- ``MDTABlock``: a per-channel transposed-attention variant kept to
  compare cost and behaviour against ``SDTABlock``.

Each block class lists its conv units once, in execution order, in a
``UNITS`` table of (name, field) rows.  A unit's field holds its current
weights: in train form a ``RepBranchSpec`` (a plain conv with its batch
norm is a one-branch spec), in deploy form the one folded conv.
``unit_forward`` runs a unit in whichever form it holds, so every block
forward serves both forms, and ``deployed`` returns a copy of a block
that keeps only its folded convs.  Each forward is written once and
takes an ndarray or an ``autodiff.Var``: ``autodiff.kernels`` picks the
``tensor`` module or ``autodiff`` from the input.  The traced kernels get
every value from the ``tensor`` kernel of the same name and record the
gradient with respect to the input only (weights are constants), so a
traced forward matches the engine's bit for bit and the gradient
checker differentiates the code the engine runs.  Blocks are
immutable after construction and forwards are pure, so shared blocks are
safe to use concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar, Iterator, Union

import numpy as np

from .autodiff import kernels
from .fusion import RepBranchSpec, fuse, rep_branch_forward
from .tensor import ConvSpec

# Query/key head width; attention scores are divided by its square root (4).
QK_DIM = 16

# A conv unit: a branch group in train form, its folded conv once deployed.
UnitSpec = Union[RepBranchSpec, ConvSpec]
# A unit table row: (the unit's part of its tensor names, its field).
Rows = tuple[tuple[str, str], ...]


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def unit_forward(unit: UnitSpec, x):
    """Run a conv unit: its branch group in train form, its folded conv once deployed."""
    if isinstance(unit, RepBranchSpec):
        return rep_branch_forward(x, unit)
    return kernels(x).conv2d(x, unit)


@dataclass
class FFNBlock:
    """Two pointwise convolutions with an activation between them."""

    UNITS: ClassVar[Rows] = (("expand", "expand"), ("project", "project"))

    expand: UnitSpec
    project: UnitSpec

    def __post_init__(self):
        _require(self.expand.kernel_size == (1, 1), "expand conv must be 1x1")
        _require(self.project.kernel_size == (1, 1), "project conv must be 1x1")
        _require(self.expand.groups == 1 and self.project.groups == 1,
                 "feed-forward convs must be dense")
        _require(self.project.out_channels == self.expand.in_channels,
                 "feed-forward must map back to its input width")
        _require(self.project.in_channels == self.expand.out_channels,
                 "project input width must equal expand output width")
        _require(self.expand.out_channels % self.expand.in_channels == 0,
                 "expansion ratio must be integral")

    @property
    def channels(self) -> int:
        return self.expand.in_channels


@dataclass
class RepEmbedBlock:
    """Dense multi-branch convolution; embeds patches or downsamples."""

    UNITS: ClassVar[Rows] = (("", "branch"),)

    branch: UnitSpec

    def __post_init__(self):
        _require(self.branch.groups == 1, "embedding branch must be dense")
        _require(self.branch.stride in (1, 2), "embedding stride must be 1 or 2")


@dataclass
class RepDWBlock:
    """Residual depthwise mixer followed by a residual feed-forward."""

    UNITS: ClassVar[Rows] = (("mixer", "mixer"),)

    mixer: UnitSpec
    ffn: FFNBlock

    def __post_init__(self):
        m = self.mixer
        _require(m.groups == m.in_channels == m.out_channels,
                 "mixer must be depthwise")
        _require(m.stride == 1, "mixer must be stride 1")
        _require(self.ffn.channels == m.out_channels,
                 "feed-forward width must match mixer width")

    @property
    def channels(self) -> int:
        return self.mixer.out_channels


@dataclass
class SDTABlock:
    """Split-projection transposed attention with a gated local path.

    ``proj_p`` emits C + 2 * QK_DIM channels, split into Q (QK_DIM),
    K (QK_DIM), V (C/4) and U (3C/4).  Attention runs over the spatial
    tokens of Q, K and V; U passes through a sigmoid gate; ``proj_o``
    maps the concatenation back to C channels.
    """

    UNITS: ClassVar[Rows] = (("mixer", "pre_mixer"), ("proj_p", "proj_p"), ("proj_o", "proj_o"))

    pre_mixer: UnitSpec
    proj_p: UnitSpec
    proj_o: UnitSpec
    ffn: FFNBlock

    def __post_init__(self):
        m = self.pre_mixer
        _require(m.groups == m.in_channels == m.out_channels,
                 "pre-mixer must be depthwise")
        _require(m.stride == 1, "pre-mixer must be stride 1")
        c = m.out_channels
        _require(c % 4 == 0, f"channel count {c} must be divisible by 4")
        _require(self.proj_p.kernel_size == (1, 1) and self.proj_p.groups == 1,
                 "input projection must be a dense 1x1 conv")
        _require(self.proj_p.in_channels == c, "input projection width mismatch")
        _require(self.proj_p.out_channels == c + 2 * QK_DIM,
                 f"input projection must emit {c + 2 * QK_DIM} channels")
        _require(self.proj_o.kernel_size == (1, 1) and self.proj_o.groups == 1,
                 "output projection must be a dense 1x1 conv")
        _require(self.proj_o.in_channels == c and self.proj_o.out_channels == c,
                 "output projection must map C to C")
        _require(self.ffn.channels == c, "feed-forward width must match block width")

    @property
    def channels(self) -> int:
        return self.pre_mixer.out_channels

    def attention_macs(self, hw: int) -> dict:
        """MACs of the two token contractions over ``hw`` positions."""
        return {"attn_qk": QK_DIM * hw * hw, "attn_av": self.channels // 4 * hw * hw}


@dataclass
class MDTABlock:
    """Per-channel transposed attention, the ablation of ``SDTABlock``.

    Q, K, V of C channels each come from a dense 1x1 conv to 3C followed
    by a depthwise 3x3; the C by C channel map softmax((Q Kt)/sqrt(C))
    is row-stochastic and mixes value channels.
    """

    UNITS: ClassVar[Rows] = (("qkv", "qkv"), ("dw", "dw"), ("proj", "proj"))

    qkv: UnitSpec
    dw: UnitSpec
    proj: UnitSpec
    ffn: FFNBlock

    def __post_init__(self):
        c = self.qkv.in_channels
        _require(self.qkv.kernel_size == (1, 1) and self.qkv.groups == 1,
                 "qkv projection must be a dense 1x1 conv")
        _require(self.qkv.out_channels == 3 * c, "qkv projection must emit 3C channels")
        dw = self.dw
        _require(dw.groups == dw.in_channels == dw.out_channels == 3 * c,
                 "depthwise conv must cover all 3C qkv channels")
        _require(dw.stride == 1 and dw.padding == dw.kernel_size[0] // 2,
                 "depthwise conv must preserve the grid")
        _require(self.proj.kernel_size == (1, 1) and self.proj.groups == 1
                 and self.proj.in_channels == c and self.proj.out_channels == c,
                 "output projection must be a dense 1x1 C to C conv")
        _require(self.ffn.channels == c, "feed-forward width must match block width")

    @property
    def channels(self) -> int:
        return self.qkv.in_channels

    def attention_macs(self, hw: int) -> dict:
        """MACs of the two channel contractions over ``hw`` positions."""
        c = self.channels
        return {"attn_qk": c * c * hw, "attn_av": c * c * hw}


def ffn_forward(ffn: FFNBlock, x):
    return unit_forward(ffn.project, kernels(x).gelu(unit_forward(ffn.expand, x)))


def rep_embed_forward(block: RepEmbedBlock, x):
    return unit_forward(block.branch, x)


def rep_dw_block_forward(block: RepDWBlock, x):
    x = x + unit_forward(block.mixer, x)
    return x + ffn_forward(block.ffn, x)


def _sdta_attention(block: SDTABlock, x):
    """Mixer, input projection, and the token attention of the whole
    batch: Q, K, V and U are channel slices (views) of the projection.
    Returns Att = V M (N, C/4, HW), the column-stochastic maps M (N, HW,
    HW) and U.  The stacked products run one GEMM per sample, so each row
    matches a batch-1 run bit for bit."""
    n, c, h, w = x.shape
    _require(c == block.channels, f"input has {c} channels, block expects {block.channels}")
    ops = kernels(x)
    p = unit_forward(block.proj_p, unit_forward(block.pre_mixer, x))
    q, k = p[:, :QK_DIM], p[:, QK_DIM:2 * QK_DIM]
    v, u = p[:, 2 * QK_DIM:2 * QK_DIM + c // 4], p[:, 2 * QK_DIM + c // 4:]
    q, k, v = (t.reshape(n, t.shape[1], h * w) for t in (q, k, v))
    m = ops.softmax(ops.matmul(q.swapaxes(1, 2), k) / float(np.sqrt(QK_DIM)), axis=1)
    return ops.matmul(v, m), m, u


def sdta_forward(block: SDTABlock, x):
    """Attention half of the block: mixer, split projection, attention,
    gated local path, output projection, residual.  The feed-forward
    residual is applied by :func:`sdta_block_forward`."""
    n, c, h, w = x.shape
    ops = kernels(x)
    att, _, u = _sdta_attention(block, x)
    y = ops.concat_channels([att.reshape(n, c // 4, h, w), ops.sigmoid(u)])
    return x + unit_forward(block.proj_o, y)


def sdta_block_forward(block: SDTABlock, x):
    x = sdta_forward(block, x)
    return x + ffn_forward(block.ffn, x)


def sdta_attention_map(block: SDTABlock, x: np.ndarray) -> np.ndarray:
    """The (N, HW, HW) attention matrices the forward pass would use."""
    return _sdta_attention(block, x)[1]


def mdta_forward(block: MDTABlock, x):
    """Attention half of the ablation block, residual included."""
    n, c, h, w = x.shape
    _require(c == block.channels, f"input has {c} channels, block expects {block.channels}")
    ops = kernels(x)
    p = unit_forward(block.dw, unit_forward(block.qkv, x))
    q, k, v = (p[:, i * c:(i + 1) * c].reshape(n, c, h * w) for i in range(3))
    m = ops.softmax(ops.matmul(q, k.swapaxes(1, 2)) / float(np.sqrt(c)), axis=2)
    return x + unit_forward(block.proj, ops.matmul(m, v).reshape(n, c, h, w))


def mdta_block_forward(block: MDTABlock, x):
    x = mdta_forward(block, x)
    return x + ffn_forward(block.ffn, x)


def units(block) -> Iterator[tuple[str, object, tuple[str, str]]]:
    """Yield (unit name, owner, row) for each unit of ``block`` in execution
    order, where ``row`` is the owner's (name, field) ``UNITS`` row.  A
    feed-forward's units follow the block's own as ``ffn.<row name>``.
    """
    for row in block.UNITS:
        yield row[0], block, row
    if hasattr(block, "ffn"):
        for row in FFNBlock.UNITS:
            yield f"ffn.{row[0]}", block.ffn, row


def deployed(block, fold=fuse):
    """A copy of ``block`` that holds each unit as ``fold`` of its weights
    (by default the fused conv); the train-form weights are not kept."""
    fused = {field: fold(getattr(block, field)) for _, field in block.UNITS}
    if hasattr(block, "ffn"):
        fused["ffn"] = deployed(block.ffn, fold)
    return replace(block, **fused)
