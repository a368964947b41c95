"""Whole-network assembly: configuration, construction, inference, deploy
conversion, and the analytic parameter/MAC cost model.

The network is a three-stage pyramid.  A four-conv stride-16 stem feeds
stage 1; stages 1 and 2 stack depthwise-mixer blocks; single stride-2
embeddings sit between stages; stage 3 stacks transposed-attention
blocks; a global average pool and linear classifier finish the network.
At 224 input the stages run at 14, 7 and 4 pixels per side.

Construction: ``_layout`` lists every block once, in execution order,
with its class and dims, and ``_assemble`` walks it, making each unit,
feed-forward ones included, from its geometry row (``blocks.Geometry``).
``build`` draws each unit through ``init_unit``; ``from_tensors`` makes
either form around given arrays, named by ``_tensor_name``, the one rule
``named_tensors`` also names by (``weights.load`` passes views of the
file's buffer).  A ``Model`` holds one list of blocks in ``_layout`` order,
all in one form, and checks so when it is constructed, so ``count``
reads every cost off the same rows and builds nothing.  ``model.stem``
... ``model.stage3`` are read-only views of that list by stage.

Initialization scheme (``build``): conv weights are drawn fan-in
scaled, std = gain / sqrt(in_channels_per_group * k * k), with the row's
gain: 1, except ``blocks.RESIDUAL_DAMP`` = 0.2 on
residual-terminal convs (mixer branches, feed-forward project, attention
output projections) to keep activations O(1) through depth.  Conv biases
start at zero.  Batch norms start at scale 1, shift 0, running mean
drawn from N(0, 0.1^2) and running variance from U(0.8, 1.25), except
identity-branch batch norms whose variance is drawn from U(20, 30) so
the branch sum stays O(1) under the residual.  The classifier weight is
fan-in scaled with zero bias.  Everything is a pure function of (config,
seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from .blocks import (
    Geometry,
    MDTABlock,
    RepDWBlock,
    RepEmbedBlock,
    SDTABlock,
    block_forward,
    deployed,
)
from .fusion import RepBranchSpec
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

# Running-variance range for identity-branch batch norms (see module docstring).
IDENTITY_VAR_RANGE = (20.0, 30.0)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters for one variant.  Every field but
    ``attention`` takes integers: a Python or numpy integer, never a bool,
    a float or a string, so a weight-file header cannot round a value.
    Each is stored as a Python int."""

    depths: tuple[int, int, int]
    dims: tuple[int, int, int]
    ffn_ratio: int = 2
    num_classes: int = 1000
    input_resolution: int = 224
    attention: str = "sdta"

    def __post_init__(self):
        values = (*self.depths, *self.dims, self.ffn_ratio, self.num_classes,
                  self.input_resolution)
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values):
            raise ValueError("depths, dims, ffn_ratio, num_classes and input_resolution "
                             "must be integers")
        object.__setattr__(self, "depths", tuple(int(d) for d in self.depths))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        for name in ("ffn_ratio", "num_classes", "input_resolution"):
            object.__setattr__(self, name, int(getattr(self, name)))
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


def _stage_view(stage: str) -> property:
    """A read-only ``Model`` property over ``blocks``: the list of blocks
    ``_layout`` names ``<stage>.<i>``, or the one block it names ``stage``."""
    def view(model):
        hits = {n: b for n, b in _blocks(model) if n.partition(".")[0] == stage}
        return hits[stage] if stage in hits else list(hits.values())
    return property(view)


@dataclass
class Model:
    """A built network; forwards are pure.

    ``blocks`` holds one block per ``_layout(config)`` row, in its order.
    The stage names are read-only views of it: ``stem`` and ``stage1`` to
    ``stage3`` give lists, ``down12`` and ``down23`` their one block.
    ``blocks`` is not copied: edit a model through ``dataclasses.replace``,
    and ``weights.save`` re-checks it.

    The blocks are the only record of the network's form, and every unit
    holds the same one: ``mode`` is read off the first, and each block's
    forward is chosen by its type through ``blocks.block_forward``.
    Constructing a model whose blocks or classifier are not its config's
    layout in one form raises ``ValueError`` (see ``_check``).
    """

    config: ModelConfig
    blocks: list  # one block per ``_layout(config)`` row, in its order
    head_weight: np.ndarray
    head_bias: np.ndarray

    stem, stage1, down12, stage2, down23, stage3 = map(
        _stage_view, ("stem", "stage1", "down12", "stage2", "down23", "stage3"))

    def __post_init__(self):
        _check(self)

    @property
    def dtype(self):
        return self.head_weight.dtype

    @property
    def mode(self) -> str:
        """``"deploy"`` when the units hold folded convs, ``"train"`` when
        they hold branch groups, read off the first unit, ``stem.0``'s
        (``_check`` makes every unit hold the same form)."""
        return "deploy" if isinstance(self.blocks[0].branch, ConvSpec) else "train"


def _check(model: Model) -> None:
    """Raise ``ValueError`` if ``model`` is not ``_layout(model.config)`` in
    one form and one dtype: another block count, a block of another type
    or dims, units of both forms, a train-form unit without the scale or
    identity branch its row has or with one it has not (a folded unit has
    none to check), a unit or classifier bias of another dtype than the
    classifier weight, or a classifier not (num_classes, dims[2])."""
    def fault(what):
        return ValueError(f"the model is not its config's layout in one form: {what}")

    layout = list(_layout(model.config))
    if len(model.blocks) != len(layout):
        raise fault(f"{len(model.blocks)} blocks, where it lays out {len(layout)}")
    for block, (name, cls, dims) in zip(model.blocks, layout):
        if type(block) is not cls or block.dims != dims:
            raise fault(f"{name} is not a {cls.__name__} of dims {dims}")
        for row in cls.geometry(*dims):
            spec, unit = getattr(block, row.field), f"{name}.{row.name or row.field}"
            # the first block passed the line above, so ``mode`` reads it safely
            if isinstance(spec, ConvSpec) != (model.mode == "deploy"):
                raise fault(f"its units mix train and deploy forms ({unit})")
            if isinstance(spec, RepBranchSpec) and (row.scale, row.identity) != (
                    spec.scale is not None, spec.identity_bn is not None):
                raise fault(f"{unit} does not have its row's branches")
            if spec.dtype != model.dtype:
                raise fault(f"{unit} is {spec.dtype}, the classifier {model.dtype}")
    shape = (model.config.num_classes, model.config.dims[2])
    if (model.head_weight.shape, model.head_bias.shape) != (shape, shape[:1]):
        raise fault(f"the classifier is not {shape}")
    if model.head_bias.dtype != model.dtype:
        raise fault(f"the classifier bias is {model.head_bias.dtype}, its weight {model.dtype}")


# A batch norm's four arrays, by the names a weight file stores them under.
BN_FIELDS = ("gamma", "beta", "mean", "var")


def _unit(row: Geometry, tensor, folded: bool = False) -> Union[RepBranchSpec, ConvSpec]:
    """One unit of geometry ``row``: its folded conv when ``folded``, else
    its main conv and batch norm, then the 1x1 scale conv and its batch
    norm and the identity batch norm where the row has them, in that
    order.  ``tensor(branch, field, shape)`` gives each array, ``branch``
    being "fused", "main", "scale" or "identity" and ``field`` "kernel",
    "bias" or one of ``BN_FIELDS``."""
    def conv(branch, k):
        shape = (row.out_c, row.in_c // row.groups, k, k)
        return ConvSpec(tensor(branch, "kernel", shape), tensor(branch, "bias", shape[:1]),
                        stride=row.stride, padding=k // 2, groups=row.groups)

    def bn(branch):
        return BNSpec(*(tensor(branch, f, (row.out_c,)) for f in BN_FIELDS))

    if folded:
        return conv("fused", row.k)
    branches = {"main": conv("main", row.k), "main_bn": bn("main")}
    if row.scale:
        branches |= {"scale": conv("scale", 1), "scale_bn": bn("scale")}
    if row.identity:
        branches["identity_bn"] = bn("identity")
    return RepBranchSpec(**branches)


def init_unit(rng, row: Geometry, dtype=np.float32) -> RepBranchSpec:
    """Draw one train-form unit from its geometry row with ``rng``, its
    arrays in ``_unit``'s order."""
    def draw(branch, field, shape):
        if field == "gamma":
            a = np.ones(shape)
        elif field in ("bias", "beta"):
            a = np.zeros(shape)
        elif field == "kernel":
            a = rng.standard_normal(shape) * (row.gain / np.sqrt(math.prod(shape[1:])))
        elif field == "mean":
            a = rng.standard_normal(shape) * 0.1
        else:
            a = rng.uniform(*(IDENTITY_VAR_RANGE if branch == "identity" else (0.8, 1.25)), shape)
        return a.astype(dtype)

    return _unit(row, draw)


def _block(cls, dims, unit):
    """A ``cls`` block whose units are ``unit(row)`` over the rows of
    ``cls.geometry(*dims)``, each in its row's field."""
    return cls(**{row.field: unit(row) for row in cls.geometry(*dims)})


def init_block(cls, rng, *dims, dtype=np.float32):
    """Draw a ``cls`` block's units from ``cls.geometry(*dims)`` in execution order."""
    return _block(cls, dims, lambda row: init_unit(rng, row, dtype))


def _layout(config: ModelConfig):
    """Yield (block name, block class, dims) for every block of the network
    in execution order: ``stem.0`` ... ``down12`` ... ``stage3.<i>``."""
    d1, d2, d3 = config.dims
    r = config.ffn_ratio
    chans = (3,) + config.stem_channels
    for i in range(4):
        yield f"stem.{i}", RepEmbedBlock, (chans[i], chans[i + 1], 2)
    yield from ((f"stage1.{i}", RepDWBlock, (d1, r)) for i in range(config.depths[0]))
    yield "down12", RepEmbedBlock, (d1, d2, 2)
    yield from ((f"stage2.{i}", RepDWBlock, (d2, r)) for i in range(config.depths[1]))
    yield "down23", RepEmbedBlock, (d2, d3, 2)
    attention = SDTABlock if config.attention == "sdta" else MDTABlock
    yield from ((f"stage3.{i}", attention, (d3, r)) for i in range(config.depths[2]))


def _assemble(config: ModelConfig, unit, head) -> Model:
    """The network of ``config``: each unit is ``unit(block name, row)``,
    walked in execution order, then the classifier's arrays are
    ``head(name, shape)`` for ``head.weight`` and ``head.bias``."""
    blocks = [_block(cls, dims, lambda row: unit(name, row))
              for name, cls, dims in _layout(config)]
    shape = (config.num_classes, config.dims[2])
    return Model(config, blocks, head("head.weight", shape), head("head.bias", shape[:1]))


def build(config: ModelConfig, seed: int, dtype=np.float32) -> Model:
    """Construct a train-form model; deterministic in (config, seed)."""
    rng = np.random.default_rng(seed)

    def head(name, shape):
        if name == "head.bias":
            return np.zeros(shape, dtype)
        return (rng.standard_normal(shape) / np.sqrt(shape[1])).astype(dtype)

    return _assemble(config, lambda _, row: init_unit(rng, row, dtype), head)


def from_tensors(config: ModelConfig, mode: str, tensor) -> Model:
    """The ``mode`` form of ``config`` ("train" or "deploy") around given
    arrays: ``tensor(name, shape)`` gives the array ``named_tensors`` would
    name ``name``, and is asked for each in that order.  Nothing is drawn,
    fused or copied."""
    folded = mode == "deploy"

    def unit(block, row):
        return _unit(row, lambda branch, f, shape: tensor(
            _tensor_name(block, row, branch, f), shape), folded)

    return _assemble(config, unit, tensor)


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
    for name, block in _blocks(model):
        # GELU runs between the stem embeddings, not after the last one
        if name.startswith("stem.") and name != "stem.0":
            x = gelu(x)
        x = block_forward(block, x)
    return linear(global_avg_pool(x), model.head_weight, model.head_bias)


def _blocks(model: Model):
    """Yield (block name, block) for every block of the network in execution
    order: ``stem.0`` ... ``down12`` ... ``stage3.<i>``."""
    for (name, _, _), block in zip(_layout(model.config), model.blocks):
        yield name, block


def _walk(model: Model):
    """Yield (block name, geometry row, unit) for every conv unit of the
    network in execution order: each ``_layout`` block's rows, each with
    the unit its field holds."""
    for (name, cls, dims), block in zip(_layout(model.config), model.blocks):
        for row in cls.geometry(*dims):
            yield name, row, getattr(block, row.field)


def deploy(model: Model) -> Model:
    """Fuse every branch group and fold every batch norm; returns a new
    model that holds only the folded convs and the classifier."""
    if model.mode == "deploy":
        raise ValueError("model is already in deploy form")
    return replace(model, blocks=list(map(deployed, model.blocks)))


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
        """Parameters and MACs of the entries named ``prefix`` or under it,
        by whole dotted segments: ``stage3.1`` takes in ``stage3.1.ffn``
        but not ``stage3.10``."""
        hits = [e for e in self.entries if e.name == prefix or e.name.startswith(prefix + ".")]
        return sum(e.params for e in hits), sum(e.macs for e in hits)


def _row_cost(row: Geometry, form: str, in_res: int) -> tuple[int, int, int]:
    """(params, macs, out_res) of the unit of geometry ``row`` in ``form`` on
    an ``in_res`` square input.  In deploy form the unit is the row's one
    k x k conv; in train form it is the main conv and batch norm, plus the
    1x1 scale conv and its batch norm and the identity batch norm where the
    row has them.  A conv costs its kernel and bias elements and a
    multiply-add per kernel element and output position; a batch norm 4·C
    parameters and one multiply-add per output element."""
    out_res, _ = conv_output_hw(in_res, in_res, row.k, row.k, row.stride, row.k // 2)
    hw = out_res * out_res
    sizes = (row.k,) + ((1,) if form == "train" and row.scale else ())
    bns = 0 if form == "deploy" else 1 + row.scale + row.identity
    weights = sum(row.out_c * row.in_c // row.groups * k * k for k in sizes)
    params = weights + (len(sizes) + 4 * bns) * row.out_c
    return params, (weights + bns * row.out_c) * hw, out_res


def count(model_or_config: Union[Model, ModelConfig],
          mode: Optional[str] = None) -> CostReport:
    """Analytic cost report; per-image, input-resolution-dependent.

    Accepts a built model (defaulting to its own mode) or a config
    (defaulting to deploy form).  Either is counted by its config and
    the form asked for, so nothing is built, drawn or fused: the walk is
    ``_layout`` and each block class's ``geometry`` rows, and every unit
    is charged by the one rule of ``_row_cost``.  A model's own blocks
    are its layout in one form (``Model`` checks so), and a deploy-form
    model has no train-form cost.
    """
    is_model = isinstance(model_or_config, Model)
    form = model_or_config.mode if is_model else None
    mode = mode or form or "deploy"
    if mode not in ("train", "deploy"):
        raise ValueError(f"mode must be train or deploy, got {mode!r}")
    if form == "deploy" and mode == "train":
        raise ValueError("a deploy-form model holds no train-form weights to count")
    config = model_or_config.config if is_model else model_or_config
    report = CostReport()
    res = config.input_resolution
    for name, cls, dims in _layout(config):
        rows = cls.geometry(*dims)
        for row in rows:
            if hasattr(cls, "attention_macs") and row is rows[-3]:
                # the attention contractions run just before the output
                # projection, the last unit ahead of the feed-forward's two
                for kind, macs in cls.attention_macs(dims[0], res * res).items():
                    report.entries.append(CostEntry(f"{name}.{kind}", 0, macs))
            p, m, res = _row_cost(row, mode, res)
            # a feed-forward's two units share one entry, "<block>.ffn"
            key = f"{name}.{row.name.split('.')[0]}" if row.name else name
            if report.entries and report.entries[-1].name == key:
                report.entries[-1].params += p
                report.entries[-1].macs += m
            else:
                report.entries.append(CostEntry(key, p, m))

    head = config.num_classes * config.dims[2]
    report.entries.append(CostEntry("head", head + config.num_classes, head))
    return report


def _tensor_name(block: str, row: Geometry, branch: str, field: str) -> str:
    """The name of one array of the unit of geometry ``row``, by the rule in
    the README's "Weight files" section: a folded conv is ``<unit>_fused``
    (``<block>.fused`` for an embedding), a branch of a group whose row has
    a scale or identity branch is ``<unit>.<branch>``, and a one-branch
    group is ``<unit>`` itself; a batch norm's arrays add ``_bn`` to its
    branch.  A feed-forward unit's names drop its "ffn." segment."""
    part = row.name.removeprefix("ffn.")
    prefix = f"{block}.{part}" if part else block
    if branch == "fused":
        prefix = f"{prefix}_fused" if part else f"{prefix}.fused"
    elif row.scale or row.identity:
        prefix = f"{prefix}.{branch}"
    return f"{prefix}_bn.{field}" if field in BN_FIELDS else f"{prefix}.{field}"


def _unit_arrays(spec: Union[RepBranchSpec, ConvSpec]):
    """Yield (branch, field, array) for every array of a unit, in ``_unit``'s order."""
    if isinstance(spec, ConvSpec):
        yield from (("fused", "kernel", spec.kernel), ("fused", "bias", spec.bias))
        return
    for branch in ("main", "scale", "identity"):
        conv, bn = getattr(spec, branch, None), getattr(spec, f"{branch}_bn")
        if conv is not None:
            yield from ((branch, "kernel", conv.kernel), (branch, "bias", conv.bias))
        if bn is not None:
            arrays = (bn.gamma, bn.beta, bn.running_mean, bn.running_var)
            yield from ((branch, f, a) for f, a in zip(BN_FIELDS, arrays))


def named_tensors(model: Model):
    """Yield (name, array) pairs for the tensors the model executes, in
    execution order: each unit's folded conv or its branch group, whichever
    it holds, named by ``_tensor_name``.  The arrays are the live model
    arrays."""
    for name, row, spec in _walk(model):
        for branch, f, arr in _unit_arrays(spec):
            yield _tensor_name(name, row, branch, f), arr
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
    return [(f"{name}.{row.name}" if row.name else name, unit)
            for name, row, unit in _walk(model)]
