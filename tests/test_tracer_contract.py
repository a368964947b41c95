"""The benchmark's outside-in tracer (perfbench/tracer.py) wraps mvt2
functions by name; these checks fail when a rename in src/ would leave a
traced layer silently empty."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from mvt2 import blocks
from mvt2 import model as mvt2_model
from mvt2.model import ModelConfig, build, deploy, forward

TINY = ModelConfig(depths=(1, 1, 1), dims=(8, 8, 8), num_classes=10, input_resolution=32)


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
