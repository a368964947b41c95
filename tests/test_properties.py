"""Property tests of whole-network contracts over randomly drawn configs.

Derandomized and with no example database, so a run is reproducible and
leaves nothing behind."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mvt2.model import ModelConfig, build, deploy, forward


@st.composite
def small_configs(draw):
    """TINY-sized configs: a 16 or 32 pixel input, stage widths of at most
    32 channels, one or two blocks per stage, either attention kind."""
    return ModelConfig(
        depths=tuple(draw(st.integers(1, 2)) for _ in range(3)),
        dims=(draw(st.sampled_from([8, 16])), draw(st.integers(4, 32)),
              4 * draw(st.integers(1, 8))),
        ffn_ratio=draw(st.integers(1, 3)),
        num_classes=draw(st.integers(1, 40)),
        input_resolution=draw(st.sampled_from([16, 32])),
        attention=draw(st.sampled_from(["sdta", "mdta"])),
    )


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(config=small_configs(), batch=st.integers(1, 8), seed=st.integers(0, 2**16))
def test_batch_rows_are_bit_identical_to_batch_one_runs(config, batch, seed):
    model = build(config, seed=seed)
    models = [model, deploy(model)] if config.attention == "sdta" else [model]
    r = config.input_resolution
    x = np.random.default_rng(seed).standard_normal((batch, 3, r, r)).astype(np.float32)
    for m in models:
        full = forward(m, x)
        for b in range(batch):
            assert np.array_equal(full[b:b + 1], forward(m, x[b:b + 1])), (m.mode, b)
