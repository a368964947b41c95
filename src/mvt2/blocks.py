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

Train form runs every conv through its own batch norm.  Deploy form
runs single folded convolutions.  Each block class lists its conv units
once, in execution order, in a ``UNITS`` table; ``units`` walks that
table and ``deployed`` fills every deploy field from the train weights.
Blocks are immutable after construction and forwards are pure, so
shared blocks are safe to use concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar, Iterator, Optional

import numpy as np

from .fusion import RepBranchSpec, fuse, rep_branch_forward
from .tensor import (
    BNSpec,
    ConvSpec,
    batchnorm_infer,
    concat_channels,
    conv2d,
    gelu,
    matmul,
    sigmoid,
    softmax,
    split_channels,
)

# Query/key head width; attention scores are divided by its square root (4).
QK_DIM = 16

MODES = ("train", "deploy")


def _check_mode(mode: str):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class Unit:
    """One row of a block's unit table: a conv unit that deploy folds to one conv.

    ``conv`` names the field holding the unit's conv, or its whole
    ``RepBranchSpec`` when ``bn`` is None; ``bn`` names the batch norm
    after a plain conv; ``deploy`` names the field that holds the folded
    conv, or is None when the block never deploys.  ``name`` is the
    unit's part of its tensor names, empty for an embedding.
    """

    name: str
    conv: str
    bn: Optional[str] = None
    deploy: Optional[str] = None

    def spec(self, block) -> RepBranchSpec:
        """The unit's train-form weights; a plain conv+BN is a one-branch spec."""
        conv = getattr(block, self.conv)
        return conv if self.bn is None else RepBranchSpec(conv, getattr(block, self.bn))


@dataclass
class FFNBlock:
    """Two pointwise convolutions with an activation between them."""

    UNITS: ClassVar[tuple[Unit, ...]] = (
        Unit("expand", "expand", "expand_bn", "deploy_expand"),
        Unit("project", "project", "project_bn", "deploy_project"),
    )

    expand: ConvSpec
    expand_bn: BNSpec
    project: ConvSpec
    project_bn: BNSpec
    deploy_expand: Optional[ConvSpec] = None
    deploy_project: Optional[ConvSpec] = None

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
        _require(self.expand_bn.channels == self.expand.out_channels,
                 "expand batch-norm width mismatch")
        _require(self.project_bn.channels == self.project.out_channels,
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

    UNITS: ClassVar[tuple[Unit, ...]] = (Unit("", "branch", deploy="deploy"),)

    branch: RepBranchSpec
    deploy: Optional[ConvSpec] = None

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

    UNITS: ClassVar[tuple[Unit, ...]] = (Unit("mixer", "mixer", deploy="deploy_mixer"),)

    mixer: RepBranchSpec
    ffn: FFNBlock
    deploy_mixer: Optional[ConvSpec] = None

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
        Unit("mixer", "pre_mixer", deploy="deploy_mixer"),
        Unit("proj_p", "proj_p", "proj_p_bn", "deploy_proj_p"),
        Unit("proj_o", "proj_o", "proj_o_bn", "deploy_proj_o"),
    )

    pre_mixer: RepBranchSpec
    proj_p: ConvSpec
    proj_p_bn: BNSpec
    proj_o: ConvSpec
    proj_o_bn: BNSpec
    ffn: FFNBlock
    deploy_mixer: Optional[ConvSpec] = None
    deploy_proj_p: Optional[ConvSpec] = None
    deploy_proj_o: Optional[ConvSpec] = None

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
        _require(self.proj_p_bn.channels == c + 2 * QK_DIM,
                 "input projection batch-norm width mismatch")
        _require(self.proj_o.kernel_size == (1, 1) and self.proj_o.groups == 1,
                 "output projection must be a dense 1x1 conv")
        _require(self.proj_o.in_channels == c and self.proj_o.out_channels == c,
                 "output projection must map C to C")
        _require(self.proj_o_bn.channels == c,
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


def ffn_forward(ffn: FFNBlock, x: np.ndarray, mode: str = "train") -> np.ndarray:
    _check_mode(mode)
    if mode == "deploy":
        if ffn.deploy_expand is None or ffn.deploy_project is None:
            raise ValueError("feed-forward has no deploy weights; convert first")
        return conv2d(gelu(conv2d(x, ffn.deploy_expand)), ffn.deploy_project)
    h = gelu(batchnorm_infer(conv2d(x, ffn.expand), ffn.expand_bn))
    return batchnorm_infer(conv2d(h, ffn.project), ffn.project_bn)


def rep_embed_forward(block: RepEmbedBlock, x: np.ndarray, mode: str = "train") -> np.ndarray:
    _check_mode(mode)
    if mode == "deploy":
        if block.deploy is None:
            raise ValueError("embedding has no deploy weights; convert first")
        return conv2d(x, block.deploy)
    return rep_branch_forward(x, block.branch)


def rep_dw_block_forward(block: RepDWBlock, x: np.ndarray, mode: str = "train") -> np.ndarray:
    _check_mode(mode)
    if mode == "deploy":
        if block.deploy_mixer is None:
            raise ValueError("mixer has no deploy weights; convert first")
        mixed = conv2d(x, block.deploy_mixer)
    else:
        mixed = rep_branch_forward(x, block.mixer)
    x = x + mixed
    return x + ffn_forward(block.ffn, x, mode)


def _spatial_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray):
    """Token attention for one sample: columns of M sum to 1; Att = V M."""
    m = softmax(matmul(q.T, k) / float(np.sqrt(QK_DIM)), axis=0)
    return matmul(v, m), m


def _sdta_split(block: SDTABlock, x: np.ndarray, mode: str):
    """Mixer and input projection, split into Q, K, V and U."""
    _check_mode(mode)
    c = x.shape[1]
    _require(c == block.channels, f"input has {c} channels, block expects {block.channels}")
    if mode == "deploy":
        if block.deploy_mixer is None:
            raise ValueError("block has no deploy weights; convert first")
        t = conv2d(x, block.deploy_mixer)
        p = conv2d(t, block.deploy_proj_p)
    else:
        t = rep_branch_forward(x, block.pre_mixer)
        p = batchnorm_infer(conv2d(t, block.proj_p), block.proj_p_bn)
    return split_channels(p, [QK_DIM, QK_DIM, c // 4, 3 * c // 4])


def sdta_forward(block: SDTABlock, x: np.ndarray, mode: str = "train") -> np.ndarray:
    """Attention half of the block: mixer, split projection, attention,
    gated local path, output projection, residual.  The feed-forward
    residual is applied by :func:`sdta_block_forward`."""
    n, c, h, w = x.shape
    q, k, v, u = _sdta_split(block, x, mode)
    hw = h * w
    att = np.empty_like(v)
    for b in range(n):
        att_b, _ = _spatial_attention(
            q[b].reshape(QK_DIM, hw), k[b].reshape(QK_DIM, hw),
            v[b].reshape(c // 4, hw),
        )
        att[b] = att_b.reshape(c // 4, h, w)
    y = concat_channels([att, sigmoid(u)])
    if mode == "deploy":
        y = conv2d(y, block.deploy_proj_o)
    else:
        y = batchnorm_infer(conv2d(y, block.proj_o), block.proj_o_bn)
    return x + y


def sdta_block_forward(block: SDTABlock, x: np.ndarray, mode: str = "train") -> np.ndarray:
    x = sdta_forward(block, x, mode)
    return x + ffn_forward(block.ffn, x, mode)


def sdta_attention_map(block: SDTABlock, x: np.ndarray, mode: str = "train") -> np.ndarray:
    """The (N, HW, HW) attention matrices the forward pass would use."""
    n, c, h, w = x.shape
    q, k, v, _ = _sdta_split(block, x, mode)
    hw = h * w
    maps = np.empty((n, hw, hw), dtype=x.dtype)
    for b in range(n):
        _, maps[b] = _spatial_attention(
            q[b].reshape(QK_DIM, hw), k[b].reshape(QK_DIM, hw), v[b].reshape(c // 4, hw),
        )
    return maps


def mdta_forward(block: MDTABlock, x: np.ndarray) -> np.ndarray:
    """Attention half of the ablation block, residual included."""
    n, c, h, w = x.shape
    _require(c == block.channels, f"input has {c} channels, block expects {block.channels}")
    p = batchnorm_infer(conv2d(x, block.qkv), block.qkv_bn)
    p = batchnorm_infer(conv2d(p, block.dw), block.dw_bn)
    q, k, v = split_channels(p, [c, c, c])
    hw = h * w
    out = np.empty_like(v)
    for b in range(n):
        qb = q[b].reshape(c, hw)
        kb = k[b].reshape(c, hw)
        vb = v[b].reshape(c, hw)
        m = softmax(matmul(qb, kb.T) / float(np.sqrt(c)), axis=1)
        out[b] = matmul(m, vb).reshape(c, h, w)
    y = batchnorm_infer(conv2d(out, block.proj), block.proj_bn)
    return x + y


def mdta_block_forward(block: MDTABlock, x: np.ndarray) -> np.ndarray:
    x = mdta_forward(block, x)
    return x + ffn_forward(block.ffn, x, mode="train")


def units(block) -> Iterator[tuple[str, object, Unit]]:
    """Yield (unit name, owner, row) for each unit of ``block`` in execution
    order; ``row.spec(owner)`` is the unit's weights.  A feed-forward's
    units follow the block's own as ``ffn.<row name>``, and are never
    deployed when the block itself never is.
    """
    for row in block.UNITS:
        yield row.name, block, row
    if hasattr(block, "ffn"):
        deploys = block.UNITS[0].deploy is not None
        for row in FFNBlock.UNITS:
            yield f"ffn.{row.name}", block.ffn, row if deploys else replace(row, deploy=None)


def deployed(block):
    """A copy of ``block`` with every deploy field set to its fused unit."""
    if any(row.deploy is None for row in block.UNITS):
        raise ValueError(f"{type(block).__name__} has no deploy form")
    fused = {row.deploy: fuse(row.spec(block)) for row in block.UNITS}
    if hasattr(block, "ffn"):
        fused["ffn"] = deployed(block.ffn)
    return replace(block, **fused)


deployed_rep_embed = deployed_rep_dw = deployed_sdta = deployed
