"""The benchmark's outside-in tracer (perfbench/tracer.py) wraps mvt2
functions by name; these checks fail when a rename in src/ would leave a
traced layer silently empty."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from mvt2 import blocks
from mvt2 import model as mvt2_model
from mvt2.model import VARIANTS, build, deploy, forward, named_tensors
from mvt2.tensor import ConvSpec

from helpers import TINY

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer_module():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_block_forward_exists(tracer_module):
    for name in tracer_module.BLOCK_FORWARDS:
        assert callable(getattr(blocks, name, None)), name


@pytest.mark.parametrize("form", ["train", "deploy"])
def test_traced_forward_records_block_and_conv_spans(tracer_module, form):
    model = build(TINY, seed=0)
    if form == "deploy":
        model = deploy(model)
    x = np.random.default_rng(1).standard_normal((2, 3, 32, 32)).astype(np.float32)
    plain = forward(model, x)
    originals = {name: getattr(blocks, name) for name in tracer_module.BLOCK_FORWARDS}

    tracer = tracer_module.Tracer()
    tracer.start()
    try:
        # through the module attribute, which is what the tracer rebinds
        traced = mvt2_model.forward(model, x)
    finally:
        tracer.stop()

    assert np.array_equal(traced, plain)
    names = {span[tracer_module.NAME] for span in tracer.spans}
    assert "model.forward" in names
    assert "blocks.glue" in names
    assert {"tensor.conv2d.dense3x3", "tensor.conv2d.dense1x1",
            "tensor.conv2d.depthwise"} <= names
    assert {"tensor.gelu", "tensor.attention", "tensor.head"} <= names
    assert ("fusion.rep_branch_forward" in names) == (form == "train")
    assert ("tensor.batchnorm_infer" in names) == (form == "train")
    assert all(getattr(blocks, n) is f for n, f in originals.items())


def test_attention_spans_per_forward_do_not_grow_with_batch(tracer_module):
    """Attention runs on the whole batch: a batch-4 forward makes the same
    matmul/softmax/sigmoid calls as a batch-1 forward."""
    model = build(TINY, seed=0)
    x = np.random.default_rng(2).standard_normal((4, 3, 32, 32)).astype(np.float32)
    counts = []
    for n in (1, 4):
        tracer = tracer_module.Tracer()
        tracer.start()
        try:
            mvt2_model.forward(model, x[:n])
        finally:
            tracer.stop()
        counts.append(sum(span[tracer_module.NAME] == "tensor.attention"
                          for span in tracer.spans))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("form", ["train", "deploy"])
def test_one_branch_group_span_per_fusable_unit(tracer_module, form):
    """Every train-form conv unit, one-branch units included, runs through
    ``fusion.rep_branch_forward``; a deployed unit runs none."""
    model = build(TINY, seed=0)
    want = len(mvt2_model.fusable_branches(model))
    # 4 stem embeddings, 3 units per stage-1/2 block, 2 downsamplings, 5 in the SDTA block
    assert want == 17
    if form == "deploy":
        model, want = deploy(model), 0
    x = np.random.default_rng(3).standard_normal((1, 3, 32, 32)).astype(np.float32)
    tracer = tracer_module.Tracer()
    tracer.start()
    try:
        mvt2_model.forward(model, x)
    finally:
        tracer.stop()
    spans = sum(span[tracer_module.NAME] == "fusion.rep_branch_forward" for span in tracer.spans)
    assert spans == want


@pytest.mark.parametrize("config", [TINY, VARIANTS["s1"]], ids=["tiny", "s1"])
@pytest.mark.parametrize("form", ["train", "deploy"])
def test_stage_map_attributes_every_block_to_its_stage(tracer_module, config, form):
    """The ``model.stage.*`` metrics charge each block's time to the stage
    ``stage_map`` gives it: the first segment of the block's layout name."""
    model = build(config, seed=0)
    if form == "deploy":
        model = deploy(model)
    stages = tracer_module.stage_map(model)
    assert {id(block): name.partition(".")[0] for name, block in mvt2_model._blocks(model)} \
        == stages
    assert len(stages) == len(model.blocks)


def depthwise_convs(model) -> int:
    """The depthwise convs one forward runs, read off the model's conv units."""
    total = 0
    for *_, unit in mvt2_model._walk(model):
        convs = [unit] if isinstance(unit, ConvSpec) else [unit.main, unit.scale]
        total += sum(conv is not None and conv.is_depthwise for conv in convs)
    return total


@pytest.mark.parametrize("form", ["train", "deploy"])
def test_one_depthwise_conv_span_per_depthwise_conv(tracer_module, form):
    """Depthwise time stays inside the traced ``conv2d``: one
    ``tensor.conv2d.depthwise`` span per depthwise conv, that is each block's
    token mixer, plus its 1x1 scale branch in train form."""
    model = build(TINY, seed=0)
    if form == "deploy":
        model = deploy(model)
    want = depthwise_convs(model)
    # one mixer per block (two RepDW blocks, one SDTA block), main + scale in train form
    assert want == (6 if form == "train" else 3)
    x = np.random.default_rng(4).standard_normal((2, 3, 32, 32)).astype(np.float32)
    tracer = tracer_module.Tracer()
    tracer.start()
    try:
        mvt2_model.forward(model, x)
    finally:
        tracer.stop()
    spans = sum(span[tracer_module.NAME] == "tensor.conv2d.depthwise" for span in tracer.spans)
    assert spans == want


@pytest.fixture
def phases_module(monkeypatch):
    """perfbench/phases.py, imported as the benchmark imports it: from its
    own directory, beside its sibling modules."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("phases")
    for name in ("phases", "calib", "tracer"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("form", ["train", "deploy"])
def test_benchmark_oracle_casts_every_array_to_float64(phases_module, form):
    """Every workload checks its logits against ``phases.cast64(model)``,
    which recurses only into dataclasses and lists; a ``Model`` whose
    blocks it cannot reach keeps float32 units and its oracle fails."""
    model = build(TINY, seed=0)
    if form == "deploy":
        model = deploy(model)
    m64 = phases_module.cast64(model)
    assert m64.dtype == np.float64
    assert all(a.dtype == np.float64 for _, a in named_tensors(m64))
    x = np.random.default_rng(6).standard_normal((2, 3, 32, 32))
    out64 = forward(m64, x)
    assert out64.dtype == np.float64
    assert np.max(np.abs(out64 - forward(model, x.astype(np.float32)))) <= 1e-5
