"""Whole-network assembly: configuration, construction, inference, deploy
conversion, and the analytic parameter/MAC cost model.

The network is a three-stage pyramid.  A four-conv stride-16 stem feeds
stage 1; stages 1 and 2 stack depthwise-mixer blocks; single stride-2
embeddings sit between stages; stage 3 stacks transposed-attention
blocks; a global average pool and linear classifier finish the network.
At 224 input the stages run at 14, 7 and 4 pixels per side.

Initialization scheme (``build``): conv weights are drawn fan-in scaled,
std = gain / sqrt(in_channels_per_group * k * k), with gain 1 except on
residual-terminal convs (mixer branches, feed-forward project, attention
output projections) which use gain 0.2 to keep activations O(1) through
depth.  Conv biases start at zero.  Batch norms start at scale 1, shift
0, running mean drawn from N(0, 0.1^2) and running variance from
U(0.8, 1.25), except identity-branch batch norms whose variance is drawn
from U(20, 30) so the branch sum stays O(1) under the residual.  The
classifier weight is fan-in scaled with zero bias.  Everything is a pure
function of (config, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from .blocks import (
    QK_DIM,
    FFNBlock,
    MDTABlock,
    RepDWBlock,
    RepEmbedBlock,
    SDTABlock,
    deployed,
    mdta_block_forward,
    rep_dw_block_forward,
    rep_embed_forward,
    sdta_block_forward,
    units,
)
from .fusion import RepBranchSpec, fuse, fused_skeleton
from .tensor import (
    BNSpec,
    ConvSpec,
    as_nchw,
    conv_output_hw,
    gelu,
    global_avg_pool,
    linear,
)

ATTENTION_KINDS = ("sdta", "mdta")

# Init gain on convs that terminate a residual branch.
RESIDUAL_DAMP = 0.2
# Running-variance range for identity-branch batch norms (see module docstring).
IDENTITY_VAR_RANGE = (20.0, 30.0)
# Model fields holding blocks, in execution order.
BLOCK_FIELDS = ("stem", "stage1", "down12", "stage2", "down23", "stage3")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters for one variant."""

    depths: tuple[int, int, int]
    dims: tuple[int, int, int]
    ffn_ratio: int = 2
    num_classes: int = 1000
    input_resolution: int = 224
    attention: str = "sdta"

    def __post_init__(self):
        object.__setattr__(self, "depths", tuple(int(d) for d in self.depths))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if len(self.depths) != 3 or len(self.dims) != 3:
            raise ValueError("depths and dims must each have three entries")
        if min(self.depths) < 1 or min(self.dims) < 1:
            raise ValueError("depths and dims must be positive")
        if self.dims[0] % 8 != 0:
            raise ValueError(f"dims[0] must be divisible by 8, got {self.dims[0]}")
        if self.dims[2] % 4 != 0:
            raise ValueError(
                f"dims[2] must be divisible by 4 for the attention split, got {self.dims[2]}"
            )
        if self.ffn_ratio < 1:
            raise ValueError("ffn_ratio must be at least 1")
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        if self.input_resolution < 16 or self.input_resolution % 16 != 0:
            raise ValueError("input_resolution must be a positive multiple of 16")
        if self.attention not in ATTENTION_KINDS:
            raise ValueError(f"attention must be one of {ATTENTION_KINDS}")

    @property
    def stem_channels(self) -> tuple[int, int, int, int]:
        d = self.dims[0]
        return (d // 8, d // 4, d // 2, d)


VARIANTS = {
    "s1": ModelConfig(depths=(3, 8, 5), dims=(128, 224, 320)),
    "s2": ModelConfig(depths=(3, 9, 5), dims=(128, 224, 448)),
    "s3": ModelConfig(depths=(4, 9, 6), dims=(128, 384, 448)),
}


@dataclass
class Model:
    """A built network.  Immutable once constructed; forwards are pure.

    The blocks are the only record of the network's form: ``mode`` is read
    off the units, and each stage-3 block's forward off its type.
    """

    config: ModelConfig
    stem: list[RepEmbedBlock]
    stage1: list[RepDWBlock]
    down12: RepEmbedBlock
    stage2: list[RepDWBlock]
    down23: RepEmbedBlock
    stage3: list  # SDTABlock or MDTABlock
    head_weight: np.ndarray
    head_bias: np.ndarray

    @property
    def dtype(self):
        return self.head_weight.dtype

    @property
    def mode(self) -> str:
        """``"deploy"`` once the units hold folded convs, else ``"train"``."""
        return "deploy" if isinstance(self.stem[0].branch, ConvSpec) else "train"


def _conv(rng, in_c: int, out_c: int, k: int, stride: int, padding: int,
          groups: int, dtype, gain: float = 1.0) -> ConvSpec:
    shape = (out_c, in_c // groups, k, k)
    std = gain / np.sqrt(shape[1] * k * k)
    kernel = (np.zeros(shape, dtype) if rng is None
              else (rng.standard_normal(shape) * std).astype(dtype))
    return ConvSpec(kernel, np.zeros(out_c, dtype=dtype),
                    stride=stride, padding=padding, groups=groups)


def _bn(rng, c: int, dtype, var_range=(0.8, 1.25)) -> BNSpec:
    if rng is None:
        mean = var = np.zeros(c)
    else:
        mean, var = rng.standard_normal(c) * 0.1, rng.uniform(*var_range, c)
    return BNSpec(
        gamma=np.ones(c, dtype=dtype),
        beta=np.zeros(c, dtype=dtype),
        running_mean=mean.astype(dtype),
        running_var=var.astype(dtype),
    )


def _conv_bn(rng, in_c: int, out_c: int, k: int, groups: int, dtype,
             gain: float = 1.0) -> RepBranchSpec:
    """A one-branch unit: a stride-1, grid-preserving conv and its batch norm."""
    return RepBranchSpec(_conv(rng, in_c, out_c, k, 1, k // 2, groups, dtype, gain),
                         _bn(rng, out_c, dtype))


def _branch_group(rng, in_c: int, out_c: int, stride: int, groups: int, dtype,
                  gain: float = 1.0, identity: bool = False) -> RepBranchSpec:
    """A 3x3 main and a 1x1 scale conv, each with its batch norm, and an
    identity batch norm if asked; drawn in that order."""
    return RepBranchSpec(
        main=_conv(rng, in_c, out_c, 3, stride, 1, groups, dtype, gain),
        main_bn=_bn(rng, out_c, dtype),
        scale=_conv(rng, in_c, out_c, 1, stride, 0, groups, dtype, gain),
        scale_bn=_bn(rng, out_c, dtype),
        identity_bn=_bn(rng, out_c, dtype, IDENTITY_VAR_RANGE) if identity else None,
    )


def init_rep_embed(rng, in_c: int, out_c: int, stride: int, dtype=np.float32) -> RepEmbedBlock:
    return RepEmbedBlock(_branch_group(rng, in_c, out_c, stride, 1, dtype))


def init_dw_mixer(rng, c: int, dtype=np.float32) -> RepBranchSpec:
    return _branch_group(rng, c, c, 1, c, dtype, RESIDUAL_DAMP, identity=True)


def init_ffn(rng, c: int, ratio: int, dtype=np.float32) -> FFNBlock:
    return FFNBlock(
        expand=_conv_bn(rng, c, ratio * c, 1, 1, dtype),
        project=_conv_bn(rng, ratio * c, c, 1, 1, dtype, gain=RESIDUAL_DAMP),
    )


def init_rep_dw_block(rng, c: int, ratio: int, dtype=np.float32) -> RepDWBlock:
    return RepDWBlock(mixer=init_dw_mixer(rng, c, dtype),
                      ffn=init_ffn(rng, c, ratio, dtype))


def init_sdta_block(rng, c: int, ratio: int, dtype=np.float32) -> SDTABlock:
    return SDTABlock(
        pre_mixer=init_dw_mixer(rng, c, dtype),
        proj_p=_conv_bn(rng, c, c + 2 * QK_DIM, 1, 1, dtype),
        proj_o=_conv_bn(rng, c, c, 1, 1, dtype, gain=RESIDUAL_DAMP),
        ffn=init_ffn(rng, c, ratio, dtype),
    )


def init_mdta_block(rng, c: int, ratio: int, dtype=np.float32) -> MDTABlock:
    return MDTABlock(
        qkv=_conv_bn(rng, c, 3 * c, 1, 1, dtype),
        dw=_conv_bn(rng, 3 * c, 3 * c, 3, 3 * c, dtype),
        proj=_conv_bn(rng, c, c, 1, 1, dtype, gain=RESIDUAL_DAMP),
        ffn=init_ffn(rng, c, ratio, dtype),
    )


def build(config: ModelConfig, seed: Optional[int] = None, dtype=np.float32) -> Model:
    """Construct a train-form model; deterministic in (config, seed).
    Without a seed nothing is drawn and the drawn arrays are zero."""
    rng = None if seed is None else np.random.default_rng(seed)
    d1, d2, d3 = config.dims
    r = config.ffn_ratio

    stem = []
    chans = (3,) + config.stem_channels
    for i in range(4):
        stem.append(init_rep_embed(rng, chans[i], chans[i + 1], 2, dtype))

    stage1 = [init_rep_dw_block(rng, d1, r, dtype) for _ in range(config.depths[0])]
    down12 = init_rep_embed(rng, d1, d2, 2, dtype)
    stage2 = [init_rep_dw_block(rng, d2, r, dtype) for _ in range(config.depths[1])]
    down23 = init_rep_embed(rng, d2, d3, 2, dtype)
    if config.attention == "sdta":
        stage3 = [init_sdta_block(rng, d3, r, dtype) for _ in range(config.depths[2])]
    else:
        stage3 = [init_mdta_block(rng, d3, r, dtype) for _ in range(config.depths[2])]

    head_shape = (config.num_classes, d3)
    head_weight = (np.zeros(head_shape, dtype) if rng is None
                   else (rng.standard_normal(head_shape) / np.sqrt(d3)).astype(dtype))
    head_bias = np.zeros(config.num_classes, dtype=dtype)
    return Model(config, stem, stage1, down12, stage2, down23, stage3, head_weight, head_bias)


def forward(model: Model, x: np.ndarray) -> np.ndarray:
    """Run the network; returns an (N, num_classes) score matrix."""
    x = as_nchw(x)
    if x.shape[1] != 3:
        raise ValueError(f"input must have 3 channels, got {x.shape[1]}")
    if x.shape[2] % 16 != 0 or x.shape[3] % 16 != 0:
        raise ValueError(
            f"input spatial extents must be multiples of 16, got {x.shape[2]}x{x.shape[3]}"
        )
    if x.dtype != model.dtype:
        raise ValueError(f"input dtype {x.dtype} does not match model dtype {model.dtype}")
    if not np.isfinite(x).all():
        raise ValueError("input holds a NaN or infinite value")
    for i, emb in enumerate(model.stem):
        x = rep_embed_forward(emb, x)
        if i < len(model.stem) - 1:
            x = gelu(x)
    for blk in model.stage1:
        x = rep_dw_block_forward(blk, x)
    x = rep_embed_forward(model.down12, x)
    for blk in model.stage2:
        x = rep_dw_block_forward(blk, x)
    x = rep_embed_forward(model.down23, x)
    for blk in model.stage3:
        # called by module-level name, which a tracer may rebind
        x = (sdta_block_forward if isinstance(blk, SDTABlock) else mdta_block_forward)(blk, x)
    return linear(global_avg_pool(x), model.head_weight, model.head_bias)


def _walk(model: Model):
    """Yield (block name, unit name, owner, row) for every conv unit of the
    network in execution order; see :func:`blocks.units`."""
    for f in BLOCK_FIELDS:
        value = getattr(model, f)
        if isinstance(value, list):
            named = [(f"{f}.{i}", b) for i, b in enumerate(value)]
        else:
            named = [(f, value)]
        for name, block in named:
            for unit, owner, row in units(block):
                yield name, unit, owner, row


def deploy(model: Model, fold=fuse) -> Model:
    """Fuse every branch group and fold every batch norm; returns a new
    model that holds only the folded convs and the classifier.  ``fold``
    maps a unit's weights to its conv; ``fusion.fused_skeleton`` gives a
    zero skeleton of the same geometry."""
    if model.mode == "deploy":
        raise ValueError("model is already in deploy form")
    converted = {}
    for f in BLOCK_FIELDS:
        value = getattr(model, f)
        converted[f] = ([deployed(b, fold) for b in value] if isinstance(value, list)
                        else deployed(value, fold))
    return replace(model, **converted)


@dataclass
class CostEntry:
    name: str
    params: int
    macs: int


@dataclass
class CostReport:
    """Per-layer and total parameter and multiply-accumulate counts.

    Parameters are counted as stored tensor elements: a train-form batch
    norm contributes scale, shift and both running statistics; deploy
    form carries no batch norms.  MACs follow k^2 * C_in * C_out * H_out
    * W_out / groups per conv, features_in * features_out per linear,
    and explicit matrix-product counts for the attention contractions;
    a train-form batch norm costs one multiply-add per element.
    Elementwise activations, residual additions, softmax and pooling are
    not counted.
    """

    entries: list[CostEntry] = field(default_factory=list)

    @property
    def total_params(self) -> int:
        return sum(e.params for e in self.entries)

    @property
    def total_macs(self) -> int:
        return sum(e.macs for e in self.entries)

    def subtotal(self, prefix: str) -> tuple[int, int]:
        p = sum(e.params for e in self.entries if e.name.startswith(prefix))
        m = sum(e.macs for e in self.entries if e.name.startswith(prefix))
        return p, m


def conv_cost(spec: ConvSpec, out_hw: int) -> tuple[int, int]:
    params = spec.kernel.size + spec.bias.size
    macs = spec.kernel.size * out_hw
    return params, macs


def bn_cost(c: int, hw: int) -> tuple[int, int]:
    return 4 * c, c * hw


def _unit_cost(spec: Union[RepBranchSpec, ConvSpec], in_res: int) -> tuple[int, int, int]:
    """Returns (params, macs, out_res) for a branch group or a folded conv."""
    conv = spec.main if isinstance(spec, RepBranchSpec) else spec
    k = conv.kernel_size[0]
    out_res, _ = conv_output_hw(in_res, in_res, k, k, conv.stride, conv.padding)
    hw = out_res * out_res
    if isinstance(spec, ConvSpec):
        return (*conv_cost(spec, hw), out_res)
    p, m = conv_cost(spec.main, hw)
    pb, mb = bn_cost(spec.out_channels, hw)
    p, m = p + pb, m + mb
    if spec.scale is not None:
        ps, ms = conv_cost(spec.scale, hw)
        p, m = p + ps + pb, m + ms + mb
    if spec.identity_bn is not None:
        p, m = p + pb, m + mb
    return p, m, out_res


def count(model_or_config: Union[Model, ModelConfig],
          mode: Optional[str] = None) -> CostReport:
    """Analytic cost report; per-image, input-resolution-dependent.

    Accepts a built model (defaulting to its own mode) or a config
    (defaulting to deploy form); a config is counted on an unseeded
    ``build``, so no weights are drawn.  A train-form model counted in
    deploy form is charged on ``deploy(model, fold=fused_skeleton)``, the
    skeleton ``weights.load`` fills; a deploy-form model has no train-form
    cost.
    """
    if isinstance(model_or_config, Model):
        model = model_or_config
        mode = mode or model.mode
    else:
        model = build(model_or_config)
        mode = mode or "deploy"
    if mode not in ("train", "deploy"):
        raise ValueError(f"mode must be train or deploy, got {mode!r}")
    if model.mode == "deploy" and mode == "train":
        raise ValueError("a deploy-form model holds no train-form weights to count")
    if model.mode != mode:
        model = deploy(model, fold=fused_skeleton)
    report = CostReport()
    res = model.config.input_resolution
    for name, unit, owner, row in _walk(model):
        if hasattr(owner, "attention_macs") and row is owner.UNITS[-1]:
            # the attention contractions run just before the output projection
            for kind, macs in owner.attention_macs(res * res).items():
                report.entries.append(CostEntry(f"{name}.{kind}", 0, macs))
        p, m, res = _unit_cost(getattr(owner, row[1]), res)
        # a feed-forward's two units share one entry, "<block>.ffn"
        key = f"{name}.{unit.split('.')[0]}" if unit else name
        if report.entries and report.entries[-1].name == key:
            report.entries[-1].params += p
            report.entries[-1].macs += m
        else:
            report.entries.append(CostEntry(key, p, m))

    head_params = model.head_weight.size + model.head_bias.size
    head_macs = model.head_weight.size
    report.entries.append(CostEntry("head", head_params, head_macs))
    return report


def _conv_bn_tensors(prefix: str, conv: Optional[ConvSpec], bn: Optional[BNSpec] = None):
    if conv is not None:
        yield f"{prefix}.kernel", conv.kernel
        yield f"{prefix}.bias", conv.bias
    if bn is not None:
        yield f"{prefix}_bn.gamma", bn.gamma
        yield f"{prefix}_bn.beta", bn.beta
        yield f"{prefix}_bn.mean", bn.running_mean
        yield f"{prefix}_bn.var", bn.running_var


def named_tensors(model: Model):
    """Yield (name, array) pairs for the tensors the model executes, in
    execution order: each unit's folded conv or its branch group, whichever
    it holds.  The arrays are the live model arrays; the names
    follow the rule in the README's "Weight files" section."""
    for name, _, owner, (part, field) in _walk(model):
        prefix = f"{name}.{part}" if part else name
        spec = getattr(owner, field)
        if isinstance(spec, ConvSpec):
            fused = f"{prefix}_fused" if part else f"{prefix}.fused"
            yield from _conv_bn_tensors(fused, spec)
        elif spec.scale is None and spec.identity_bn is None:
            yield from _conv_bn_tensors(prefix, spec.main, spec.main_bn)
        else:
            yield from _conv_bn_tensors(f"{prefix}.main", spec.main, spec.main_bn)
            yield from _conv_bn_tensors(f"{prefix}.scale", spec.scale, spec.scale_bn)
            yield from _conv_bn_tensors(f"{prefix}.identity", None, spec.identity_bn)
    yield "head.weight", model.head_weight
    yield "head.bias", model.head_bias


def fusable_branches(model: Model) -> list[tuple[str, RepBranchSpec]]:
    """(name, RepBranchSpec) for every unit deploy() folds to one conv, in
    execution order.

    One-branch units (FFN layers, attention projections) are listed too,
    so one verifier covers everything fusion touches.  A deploy-form model
    has nothing left to fuse.
    """
    if model.mode == "deploy":
        raise ValueError("a deploy-form model has no branches left to fuse")
    return [(f"{name}.{unit}" if unit else name, getattr(owner, field))
            for name, unit, owner, (_, field) in _walk(model)]
