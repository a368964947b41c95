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

The last three end in a feed-forward: two pointwise units, ``expand``
to ``ratio`` times the width and ``project`` back, with a GELU between.
Each block class's ``geometry(*dims)`` gives one ``Geometry`` row per
conv unit, in execution order and in the order of the class's fields,
the feed-forward's last: the row names the unit (``ffn.expand`` and
``ffn.project`` for the feed-forward's) and the field that holds it, and
is the one record of the unit.  ``model.init_unit`` draws a unit from
its row, ``model.init_block`` draws a block's units from its rows, a
block checks every unit against its row, in either form, and
``model.count`` charges each unit by its row alone.  A unit's field
holds its current weights: in train form a ``RepBranchSpec`` (a
plain conv with its batch norm is a one-branch spec), in deploy form the
one folded conv.  ``unit_forward`` runs a unit in whichever form it
holds, so every block forward serves both forms; ``block_forward`` runs
a block by the forward of its type, and ``deployed`` returns a copy of a
block that keeps only its folded convs.
Each forward is written once and takes an ndarray or an
``autodiff.Var``: ``autodiff.kernels`` picks the ``tensor`` module or
``autodiff`` from the input.  The traced kernels get every value from
the ``tensor`` kernel of the same name and record the gradient with
respect to the input only (weights are constants), so a traced forward
matches the engine's bit for bit and the gradient checker differentiates
the code the engine runs.  Forwards are pure and never write into a
block, its arrays or their input, so shared blocks are safe to use
concurrently.  They write only into arrays the call itself made: a
residual ``x + f(x)`` is added into ``f``'s fresh output, and a
train-form batch norm runs in place on its conv's fresh output, through
``tensor.batchnorm_infer``'s ``out=``.  A
block checks its units when it is constructed, and its fields, like
those of the specs it holds, are frozen, so no unit can leave its row
afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Union

import numpy as np

from .autodiff import kernels
from .fusion import RepBranchSpec, fuse, main_conv, rep_branch_forward
from .tensor import ConvSpec

# Query/key head width; attention scores are divided by its square root (4).
QK_DIM = 16
# Init gain on convs that terminate a residual branch.
RESIDUAL_DAMP = 0.2

# A conv unit: a branch group in train form, its folded conv once deployed.
UnitSpec = Union[RepBranchSpec, ConvSpec]


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


class Geometry(NamedTuple):
    """A conv unit's row: the unit ``name`` that its tensor and report names
    use (``""`` for an embedding's one unit), the block ``field`` that holds
    it, and ``in_c`` to ``out_c`` channels through a k x k conv with padding
    k // 2, ``stride`` and ``groups``, the same in both forms: ``fuse`` keeps
    the main conv's grid, so every unit folds to its main conv's kernel.
    ``build`` draws a 1x1 ``scale`` branch and an ``identity`` batch norm
    beside the main conv where the row says so, at init std scaled by
    ``gain``."""

    name: str
    field: str
    in_c: int
    out_c: int
    k: int = 1
    stride: int = 1
    groups: int = 1
    gain: float = 1.0
    scale: bool = False
    identity: bool = False

    def shape(self, branch: str, field: str) -> tuple:
        """The shape of one array of the unit (see ``model._unit``): a kernel
        is (out_c, in_c // groups, k, k), k being 1 on the ``scale`` branch,
        and a bias or batch-norm array is (out_c,)."""
        k = 1 if branch == "scale" else self.k
        return (self.out_c, self.in_c // self.groups, k, k) if field == "kernel" else (self.out_c,)


def unit_forward(unit: UnitSpec, x):
    """Run a conv unit: its branch group in train form, its folded conv once deployed."""
    if isinstance(unit, RepBranchSpec):
        return rep_branch_forward(x, unit)
    return kernels(x).conv2d(x, unit)


def _ffn_geometry(c: int, ratio: int) -> tuple[Geometry, ...]:
    return (Geometry("ffn.expand", "expand", c, ratio * c),
            Geometry("ffn.project", "project", ratio * c, c, gain=RESIDUAL_DAMP))


class _Block:
    """What the block classes share.  A block reads its ``dims`` off its
    units, and constructing it checks that its ``geometry(*dims)`` rows
    are its fields in order and each unit, in either form, its row's."""

    @property
    def channels(self) -> int:
        """The width of the block's input, its first unit's."""
        return main_conv(getattr(self, fields(self)[0].name)).in_channels

    @property
    def dims(self) -> tuple:
        """The width and the feed-forward's expansion ratio; a non-integral
        ratio fails the row check."""
        expand = main_conv(self.expand)
        return self.channels, expand.out_channels // expand.in_channels

    def __post_init__(self):
        rows = self.geometry(*self.dims)
        if [row.field for row in rows] != [f.name for f in fields(self)]:
            raise ValueError(f"{type(self).__name__}'s geometry rows are not its fields in order")
        for row in rows:
            conv = main_conv(getattr(self, row.field))
            got = (conv.kernel.shape, conv.stride, conv.padding, conv.groups)
            want = (row.shape("main", "kernel"), row.stride, row.k // 2, row.groups)
            if got != want:
                raise ValueError(f"{type(self).__name__} unit {row.name or row.field!r} has "
                                 f"(kernel shape, stride, padding, groups) {got}, its row {want}")


@dataclass(frozen=True)
class RepEmbedBlock(_Block):
    """Dense multi-branch convolution; embeds patches or downsamples."""

    branch: UnitSpec

    @staticmethod
    def geometry(in_c: int, out_c: int, stride: int) -> tuple[Geometry, ...]:
        _require(stride in (1, 2), "embedding stride must be 1 or 2")
        return (Geometry("", "branch", in_c, out_c, 3, stride, scale=True),)

    @property
    def dims(self) -> tuple:
        conv = main_conv(self.branch)
        return conv.in_channels, conv.out_channels, conv.stride


@dataclass(frozen=True)
class RepDWBlock(_Block):
    """Residual depthwise mixer followed by a residual feed-forward."""

    mixer: UnitSpec
    expand: UnitSpec
    project: UnitSpec

    @staticmethod
    def geometry(c: int, ratio: int) -> tuple[Geometry, ...]:
        return (Geometry("mixer", "mixer", c, c, 3, groups=c, gain=RESIDUAL_DAMP, scale=True,
                         identity=True), *_ffn_geometry(c, ratio))


@dataclass(frozen=True)
class SDTABlock(_Block):
    """Split-projection transposed attention with a gated local path.

    ``proj_p`` emits C + 2 * QK_DIM channels, split into Q (QK_DIM),
    K (QK_DIM), V (C/4) and U (3C/4).  Attention runs over the spatial
    tokens of Q, K and V; U passes through a sigmoid gate; ``proj_o``
    maps the concatenation back to C channels.
    """

    mixer: UnitSpec
    proj_p: UnitSpec
    proj_o: UnitSpec
    expand: UnitSpec
    project: UnitSpec

    @staticmethod
    def geometry(c: int, ratio: int) -> tuple[Geometry, ...]:
        _require(c % 4 == 0, f"channel count {c} must be divisible by 4")
        return (RepDWBlock.geometry(c, ratio)[0], Geometry("proj_p", "proj_p", c, c + 2 * QK_DIM),
                Geometry("proj_o", "proj_o", c, c, gain=RESIDUAL_DAMP), *_ffn_geometry(c, ratio))

    @staticmethod
    def attention_macs(c: int, hw: int) -> dict:
        """MACs of the two token contractions of width ``c`` over ``hw`` positions."""
        return {"attn_qk": QK_DIM * hw * hw, "attn_av": c // 4 * hw * hw}


@dataclass(frozen=True)
class MDTABlock(_Block):
    """Per-channel transposed attention, the ablation of ``SDTABlock``.

    Q, K, V of C channels each come from a dense 1x1 conv to 3C followed
    by a depthwise 3x3; the C by C channel map softmax((Q Kt)/sqrt(C))
    is row-stochastic and mixes value channels.
    """

    qkv: UnitSpec
    dw: UnitSpec
    proj: UnitSpec
    expand: UnitSpec
    project: UnitSpec

    @staticmethod
    def geometry(c: int, ratio: int) -> tuple[Geometry, ...]:
        return (Geometry("qkv", "qkv", c, 3 * c),
                Geometry("dw", "dw", 3 * c, 3 * c, 3, groups=3 * c),
                Geometry("proj", "proj", c, c, gain=RESIDUAL_DAMP), *_ffn_geometry(c, ratio))

    @staticmethod
    def attention_macs(c: int, hw: int) -> dict:
        """MACs of the two channel contractions of width ``c`` over ``hw`` positions."""
        return {"attn_qk": c * c * hw, "attn_av": c * c * hw}


def _residual(x, fx):
    """The residual ``x + fx``, written into ``fx``: the fresh output of the
    branch that ``x`` went through, which no one else holds.  Float
    addition commutes, so these are the bits of ``x + fx``; for a ``Var``,
    ``+=`` makes a new ``add`` node."""
    fx += x
    return fx


def ffn_forward(block, x):
    """The feed-forward of ``block``, without its residual."""
    return unit_forward(block.project, kernels(x).gelu(unit_forward(block.expand, x)))


def rep_embed_forward(block: RepEmbedBlock, x):
    return unit_forward(block.branch, x)


def rep_dw_block_forward(block: RepDWBlock, x):
    x = _residual(x, unit_forward(block.mixer, x))
    return _residual(x, ffn_forward(block, x))


def _sdta_attention(block: SDTABlock, x):
    """Mixer, input projection, and the token attention of the whole
    batch: Q, K, V and U are channel slices (views) of the projection.
    Returns Att = V M (N, C/4, HW), the column-stochastic maps M (N, HW,
    HW) and U.  The stacked products run one GEMM per sample, so each row
    matches a batch-1 run bit for bit."""
    n, c, h, w = x.shape
    _require(c == block.channels, f"input has {c} channels, block expects {block.channels}")
    ops = kernels(x)
    p = unit_forward(block.proj_p, unit_forward(block.mixer, x))
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
    return _residual(x, unit_forward(block.proj_o, y))


def sdta_block_forward(block: SDTABlock, x):
    x = sdta_forward(block, x)
    return _residual(x, ffn_forward(block, x))


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
    return _residual(x, unit_forward(block.proj, ops.matmul(m, v).reshape(n, c, h, w)))


def mdta_block_forward(block: MDTABlock, x):
    x = mdta_forward(block, x)
    return _residual(x, ffn_forward(block, x))


# Each block kind's forward, by its module-level name.
_FORWARDS = {RepEmbedBlock: "rep_embed_forward", RepDWBlock: "rep_dw_block_forward",
             SDTABlock: "sdta_block_forward", MDTABlock: "mdta_block_forward"}


def block_forward(block, x):
    """Run ``block`` by the forward of its type.  The forward is looked up by
    name at each call, so a rebinding of that name (a tracer's wrapper, a
    test's patch) takes effect."""
    return globals()[_FORWARDS[type(block)]](block, x)


def deployed(block):
    """A copy of ``block`` that holds each unit as its fused conv; the
    train-form weights are not kept."""
    return replace(block, **{f.name: fuse(getattr(block, f.name)) for f in fields(block)})
