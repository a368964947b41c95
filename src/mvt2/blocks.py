"""Composite network blocks in train form and deploy form.

Four block families:

- ``RepEmbedBlock``: dense multi-branch convolution used for patch
  embedding and downsampling (stride 1 or 2).
- ``RepDWBlock``: depthwise multi-branch token mixer plus feed-forward,
  each wrapped in a residual.
- ``SDTABlock``: depthwise mixer, then a split-projection transposed
  attention with fixed 16-channel query/key heads and a sigmoid-gated
  local path, then feed-forward, each wrapped in a residual.
- ``MDTABlock``: a per-channel transposed-attention variant kept only
  to compare cost against ``SDTABlock``; train form only.

Each block class lists its conv units once, in execution order, in a
``UNITS`` table.  A unit's field holds its current weights: in train
form a multi-branch ``RepBranchSpec``, or a conv whose batch norm sits in
a second field; in deploy form the one folded conv, with the batch-norm
field None.  ``Unit.forward`` runs a unit in whichever form it holds, so
every block forward serves both forms, and ``deployed`` returns a copy
of a block that keeps only its folded convs.  Each forward is written
once and takes an ndarray or an ``autodiff.Var``: ``autodiff.kernels``
picks the ``tensor`` kernels or their traced counterparts from the input,
so the gradient checker differentiates the code the engine runs.  Blocks
are immutable after construction and forwards are pure, so shared blocks
are safe to use concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar, Iterator, Optional, Union

import numpy as np

from .autodiff import kernels
from .fusion import RepBranchSpec, fuse, rep_branch_forward
from .tensor import BNSpec, ConvSpec

# Query/key head width; attention scores are divided by its square root (4).
QK_DIM = 16


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class Unit:
    """One row of a block's unit table: a conv unit that deploy folds to one conv.

    ``conv`` names the field holding the unit's weights: a whole
    ``RepBranchSpec`` when ``bn`` is None, otherwise a plain conv followed
    by the batch norm in field ``bn``.  Once deployed, the ``conv`` field
    holds the folded conv and the ``bn`` field is None.  ``name`` is the
    unit's part of its tensor names, empty for an embedding.
    """

    name: str
    conv: str
    bn: Optional[str] = None

    def spec(self, block) -> Union[RepBranchSpec, ConvSpec]:
        """The unit's weights: a ``RepBranchSpec`` in train form (a plain
        conv+BN is a one-branch spec), the folded ``ConvSpec`` once deployed."""
        conv = getattr(block, self.conv)
        bn = getattr(block, self.bn) if self.bn else None
        return conv if bn is None else RepBranchSpec(conv, bn)

    def forward(self, block, x):
        """Run the unit: its branch group, its conv and batch norm, or its folded conv."""
        conv = getattr(block, self.conv)
        if isinstance(conv, RepBranchSpec):
            return rep_branch_forward(x, conv)
        ops = kernels(x)
        bn = getattr(block, self.bn) if self.bn else None
        y = ops.conv2d(x, conv)
        return y if bn is None else ops.batchnorm_infer(y, bn)


@dataclass
class FFNBlock:
    """Two pointwise convolutions with an activation between them."""

    UNITS: ClassVar[tuple[Unit, ...]] = (
        Unit("expand", "expand", "expand_bn"),
        Unit("project", "project", "project_bn"),
    )

    expand: ConvSpec
    expand_bn: Optional[BNSpec]
    project: ConvSpec
    project_bn: Optional[BNSpec]

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
        _require(self.expand_bn is None or self.expand_bn.channels == self.expand.out_channels,
                 "expand batch-norm width mismatch")
        _require(self.project_bn is None or self.project_bn.channels == self.project.out_channels,
                 "project batch-norm width mismatch")

    @property
    def channels(self) -> int:
        return self.expand.in_channels

    @property
    def ratio(self) -> int:
        return self.expand.out_channels // self.expand.in_channels


@dataclass
class RepEmbedBlock:
    """Dense multi-branch convolution; embeds patches or downsamples."""

    UNITS: ClassVar[tuple[Unit, ...]] = (Unit("", "branch"),)

    branch: Union[RepBranchSpec, ConvSpec]

    def __post_init__(self):
        _require(self.branch.groups == 1, "embedding branch must be dense")
        _require(self.branch.stride in (1, 2), "embedding stride must be 1 or 2")

    @property
    def in_channels(self) -> int:
        return self.branch.in_channels

    @property
    def out_channels(self) -> int:
        return self.branch.out_channels

    @property
    def stride(self) -> int:
        return self.branch.stride


@dataclass
class RepDWBlock:
    """Residual depthwise mixer followed by a residual feed-forward."""

    UNITS: ClassVar[tuple[Unit, ...]] = (Unit("mixer", "mixer"),)

    mixer: Union[RepBranchSpec, ConvSpec]
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

    UNITS: ClassVar[tuple[Unit, ...]] = (
        Unit("mixer", "pre_mixer"),
        Unit("proj_p", "proj_p", "proj_p_bn"),
        Unit("proj_o", "proj_o", "proj_o_bn"),
    )

    pre_mixer: Union[RepBranchSpec, ConvSpec]
    proj_p: ConvSpec
    proj_p_bn: Optional[BNSpec]
    proj_o: ConvSpec
    proj_o_bn: Optional[BNSpec]
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
        _require(self.proj_p_bn is None or self.proj_p_bn.channels == c + 2 * QK_DIM,
                 "input projection batch-norm width mismatch")
        _require(self.proj_o.kernel_size == (1, 1) and self.proj_o.groups == 1,
                 "output projection must be a dense 1x1 conv")
        _require(self.proj_o.in_channels == c and self.proj_o.out_channels == c,
                 "output projection must map C to C")
        _require(self.proj_o_bn is None or self.proj_o_bn.channels == c,
                 "output projection batch-norm width mismatch")
        _require(self.ffn.channels == c, "feed-forward width must match block width")

    @property
    def channels(self) -> int:
        return self.pre_mixer.out_channels

    def attention_macs(self, hw: int) -> dict:
        """MACs of the two token contractions over ``hw`` positions."""
        return {"attn_qk": QK_DIM * hw * hw, "attn_av": self.channels // 4 * hw * hw}


@dataclass
class MDTABlock:
    """Per-channel transposed attention, train form only.

    Q, K, V of C channels each come from a dense 1x1 conv to 3C followed
    by a depthwise 3x3; the C by C channel map softmax((Q Kt)/sqrt(C))
    is row-stochastic and mixes value channels.
    """

    UNITS: ClassVar[tuple[Unit, ...]] = (
        Unit("qkv", "qkv", "qkv_bn"),
        Unit("dw", "dw", "dw_bn"),
        Unit("proj", "proj", "proj_bn"),
    )

    qkv: ConvSpec
    qkv_bn: BNSpec
    dw: ConvSpec
    dw_bn: BNSpec
    proj: ConvSpec
    proj_bn: BNSpec
    ffn: FFNBlock

    def __post_init__(self):
        c = self.qkv.in_channels
        _require(self.qkv.kernel_size == (1, 1) and self.qkv.groups == 1,
                 "qkv projection must be a dense 1x1 conv")
        _require(self.qkv.out_channels == 3 * c, "qkv projection must emit 3C channels")
        _require(self.qkv_bn.channels == 3 * c, "qkv batch-norm width mismatch")
        _require(self.dw.is_depthwise and self.dw.in_channels == 3 * c,
                 "depthwise conv must cover all 3C qkv channels")
        _require(self.dw.stride == 1 and self.dw.padding == self.dw.kernel_size[0] // 2,
                 "depthwise conv must preserve the grid")
        _require(self.dw_bn.channels == 3 * c, "depthwise batch-norm width mismatch")
        _require(self.proj.kernel_size == (1, 1) and self.proj.groups == 1
                 and self.proj.in_channels == c and self.proj.out_channels == c,
                 "output projection must be a dense 1x1 C to C conv")
        _require(self.proj_bn.channels == c, "projection batch-norm width mismatch")
        _require(self.ffn.channels == c, "feed-forward width must match block width")

    @property
    def channels(self) -> int:
        return self.qkv.in_channels

    def attention_macs(self, hw: int) -> dict:
        """MACs of the two channel contractions over ``hw`` positions."""
        c = self.channels
        return {"attn_qk": c * c * hw, "attn_av": c * c * hw}


def ffn_forward(ffn: FFNBlock, x):
    expand, project = ffn.UNITS
    return project.forward(ffn, kernels(x).gelu(expand.forward(ffn, x)))


def rep_embed_forward(block: RepEmbedBlock, x):
    return block.UNITS[0].forward(block, x)


def rep_dw_block_forward(block: RepDWBlock, x):
    x = x + block.UNITS[0].forward(block, x)
    return x + ffn_forward(block.ffn, x)


def _sdta_attention(block: SDTABlock, x):
    """Mixer, input projection split into Q, K, V and U, and the token
    attention of the whole batch: returns Att = V M (N, C/4, HW), the
    column-stochastic maps M (N, HW, HW) and U.  The stacked products run
    one GEMM per sample, so each row matches a batch-1 run bit for bit."""
    n, c, h, w = x.shape
    _require(c == block.channels, f"input has {c} channels, block expects {block.channels}")
    ops = kernels(x)
    mixer, proj_p, _ = block.UNITS
    p = proj_p.forward(block, mixer.forward(block, x))
    q, k, v, u = ops.split_channels(p, [QK_DIM, QK_DIM, c // 4, 3 * c // 4])
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
    return x + block.UNITS[2].forward(block, y)


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
    qkv, dw, proj = block.UNITS
    p = dw.forward(block, qkv.forward(block, x))
    q, k, v = (t.reshape(n, c, h * w) for t in ops.split_channels(p, [c, c, c]))
    m = ops.softmax(ops.matmul(q, k.swapaxes(1, 2)) / float(np.sqrt(c)), axis=2)
    return x + proj.forward(block, ops.matmul(m, v).reshape(n, c, h, w))


def mdta_block_forward(block: MDTABlock, x):
    x = mdta_forward(block, x)
    return x + ffn_forward(block.ffn, x)


def units(block) -> Iterator[tuple[str, object, Unit]]:
    """Yield (unit name, owner, row) for each unit of ``block`` in execution
    order; ``row.spec(owner)`` is the unit's weights.  A feed-forward's
    units follow the block's own as ``ffn.<row name>``.
    """
    for row in block.UNITS:
        yield row.name, block, row
    if hasattr(block, "ffn"):
        for row in FFNBlock.UNITS:
            yield f"ffn.{row.name}", block.ffn, row


def deployed(block, fold=fuse):
    """A copy of ``block`` that holds each unit as ``fold`` of its weights
    (by default the fused conv) and no batch norms; the train-form weights
    are not kept."""
    if isinstance(block, MDTABlock):
        raise ValueError(f"{type(block).__name__} has no deploy form")
    fused = {}
    for row in block.UNITS:
        fused[row.conv] = fold(row.spec(block))
        if row.bn:
            fused[row.bn] = None
    if hasattr(block, "ffn"):
        fused["ffn"] = deployed(block.ffn, fold)
    return replace(block, **fused)

