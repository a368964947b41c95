from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from mvt2 import blocks, fusion, model as model_module, tensor
from mvt2.blocks import Geometry, RepEmbedBlock
from mvt2.model import (
    VARIANTS,
    CostEntry,
    Model,
    ModelConfig,
    _row_cost,
    build,
    count,
    deploy,
    forward,
    fusable_branches,
    named_tensors,
)
from mvt2.tensor import ConvSpec

from helpers import TINY


class TestConfig:
    def test_variant_table(self):
        assert VARIANTS["s1"].depths == (3, 8, 5)
        assert VARIANTS["s1"].dims == (128, 224, 320)
        assert VARIANTS["s2"].depths == (3, 9, 5)
        assert VARIANTS["s2"].dims == (128, 224, 448)
        assert VARIANTS["s3"].depths == (4, 9, 6)
        assert VARIANTS["s3"].dims == (128, 384, 448)
        for cfg in VARIANTS.values():
            assert cfg.ffn_ratio == 2

    def test_stem_channels_derived(self):
        assert VARIANTS["s1"].stem_channels == (16, 32, 64, 128)

    def test_rejects_stage3_width_not_divisible_by_4(self):
        with pytest.raises(ValueError):
            ModelConfig(depths=(1, 1, 1), dims=(8, 8, 6))

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            ModelConfig(depths=(1, 1, 1), dims=(8, 8, 8), input_resolution=100)

    def test_rejects_unknown_attention(self):
        with pytest.raises(ValueError):
            ModelConfig(depths=(1, 1, 1), dims=(8, 8, 8), attention="esha")


class TestBuild:
    def test_deterministic_in_seed(self):
        a = dict(named_tensors(build(TINY, seed=7)))
        b = dict(named_tensors(build(TINY, seed=7)))
        assert a.keys() == b.keys()
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_different_seeds_differ(self):
        a = dict(named_tensors(build(TINY, seed=0)))
        b = dict(named_tensors(build(TINY, seed=1)))
        assert any(not np.array_equal(a[n], b[n]) for n in a)

    def test_s1_projection_width(self):
        model = build(VARIANTS["s1"], seed=0)
        assert model.stage3[0].proj_p.out_channels == 352

    def test_block_counts_match_depths(self):
        model = build(VARIANTS["s2"], seed=0)
        assert len(model.stage1) == 3
        assert len(model.stage2) == 9
        assert len(model.stage3) == 5
        assert len(model.stem) == 4

    def test_mdta_variant_builds(self):
        cfg = ModelConfig(depths=(1, 1, 1), dims=(8, 8, 8), num_classes=10,
                          input_resolution=32, attention="mdta")
        model = build(cfg, seed=0)
        x = np.random.default_rng(0).standard_normal((1, 3, 32, 32)).astype(np.float32)
        assert forward(model, x).shape == (1, 10)


def reference_forward(model, x):
    """The network's walk written out by hand: four stem embeddings with
    GELU between them, stage 1, ``down12``, stage 2, ``down23``, stage 3 by
    block type, then pool and linear."""
    for i, emb in enumerate(model.stem):
        x = blocks.rep_embed_forward(emb, x)
        if i < len(model.stem) - 1:
            x = tensor.gelu(x)
    for blk in model.stage1:
        x = blocks.rep_dw_block_forward(blk, x)
    x = blocks.rep_embed_forward(model.down12, x)
    for blk in model.stage2:
        x = blocks.rep_dw_block_forward(blk, x)
    x = blocks.rep_embed_forward(model.down23, x)
    for blk in model.stage3:
        attend = (blocks.sdta_block_forward if isinstance(blk, blocks.SDTABlock)
                  else blocks.mdta_block_forward)
        x = attend(blk, x)
    return tensor.linear(tensor.global_avg_pool(x), model.head_weight, model.head_bias)


class TestLayoutCheck:
    """A ``Model`` whose blocks or classifier are not its config's layout
    raises when it is constructed, so no such model is saved or counted."""

    CFG = ModelConfig(depths=(1, 1, 2), dims=(8, 8, 8), num_classes=10, input_resolution=32)

    def test_a_block_short_raises(self):
        model = build(self.CFG, seed=0)
        with pytest.raises(ValueError, match="layout"):
            replace(model, blocks=model.blocks[:-1])

    def test_blocks_of_other_dims_raise(self):
        model = build(self.CFG, seed=0)
        other = build(replace(self.CFG, dims=(8, 8, 16)), seed=0)
        with pytest.raises(ValueError, match="layout"):
            replace(model, blocks=model.blocks[:-2] + other.blocks[-2:],
                    head_weight=other.head_weight, head_bias=other.head_bias)

    def test_a_unit_without_its_rows_branch_raises(self):
        model = build(self.CFG, seed=0)
        unit = model.stem[0].branch
        bare = RepEmbedBlock(fusion.RepBranchSpec(unit.main, unit.main_bn))
        with pytest.raises(ValueError, match="layout"):
            replace(model, blocks=[bare, *model.blocks[1:]])

    def test_a_classifier_of_another_shape_raises(self):
        model = build(self.CFG, seed=0)
        with pytest.raises(ValueError, match="layout"):
            replace(model, head_bias=model.head_bias[:-1])

    def test_float64_units_under_a_float32_classifier_raise(self):
        """Its forward would raise from the first conv."""
        model = build(self.CFG, seed=0)
        with pytest.raises(ValueError, match="stem.0.branch is float64, the classifier float32"):
            replace(model, blocks=build(self.CFG, seed=0, dtype=np.float64).blocks)

    def test_one_float64_unit_raises(self):
        model = build(self.CFG, seed=0)
        stem = build(self.CFG, seed=0, dtype=np.float64).blocks[0]
        with pytest.raises(ValueError, match="stem.0.branch is float64"):
            replace(model, blocks=[stem, *model.blocks[1:]])

    def test_a_float64_classifier_bias_raises(self):
        """``linear`` would add it in float64 and return float64 logits."""
        model = build(self.CFG, seed=0)
        with pytest.raises(ValueError, match="classifier bias is float64"):
            replace(model, head_bias=model.head_bias.astype(np.float64))


class TestStageViews:
    """``stem`` ... ``stage3`` are read-only views of ``blocks``, by the
    names ``_layout`` gives each block."""

    STAGES = ("stem", "stage1", "down12", "stage2", "down23", "stage3")

    @pytest.mark.parametrize("config", [TINY, VARIANTS["s1"]], ids=["tiny", "s1"])
    def test_each_view_holds_its_layout_slice_of_blocks(self, config):
        model = build(config, seed=0)
        names = [name for name, _, _ in model_module._layout(config)]
        seen = []
        for stage in self.STAGES:
            want = [b for n, b in zip(names, model.blocks) if n.partition(".")[0] == stage]
            view = getattr(model, stage)
            if stage in names:
                assert len(want) == 1 and view is want[0]
            else:
                assert isinstance(view, list) and len(view) == len(want)
                assert all(got is b for got, b in zip(view, want))
            seen += want
        assert len(seen) == len(model.blocks)

    def test_views_cannot_be_set(self):
        model = build(TINY, seed=0)
        for stage in self.STAGES:
            with pytest.raises(AttributeError):
                setattr(model, stage, getattr(model, stage))
            with pytest.raises(TypeError):
                replace(model, **{stage: getattr(model, stage)})


class TestForward:
    @pytest.mark.parametrize("attention", ["sdta", "mdta"])
    @pytest.mark.parametrize("form", ["train", "deploy"])
    def test_equals_the_hand_written_walk(self, form, attention):
        model = build(replace(TINY, attention=attention), seed=1)
        if form == "deploy":
            model = deploy(model)
        x = np.random.default_rng(4).standard_normal((2, 3, 32, 32)).astype(np.float32)
        assert forward(model, x).tobytes() == reference_forward(model, x).tobytes()

    def test_tiny_shapes_and_finiteness(self):
        model = build(TINY, seed=0)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 3, 32, 32)).astype(np.float32)
        out = forward(model, x)
        assert out.shape == (3, 10)
        assert np.all(np.isfinite(out))

    def test_batch_permutation_equivariance(self):
        model = build(TINY, seed=0)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
        perm = np.array([2, 0, 3, 1])
        assert np.array_equal(forward(model, x[perm]), forward(model, x)[perm])

    def test_rejects_wrong_channels(self):
        model = build(TINY, seed=0)
        with pytest.raises(ValueError):
            forward(model, np.zeros((1, 4, 32, 32), dtype=np.float32))

    def test_rejects_indivisible_resolution(self):
        model = build(TINY, seed=0)
        with pytest.raises(ValueError):
            forward(model, np.zeros((1, 3, 40, 40), dtype=np.float32))

    def test_rejects_dtype_mismatch(self):
        model = build(TINY, seed=0)
        with pytest.raises(ValueError):
            forward(model, np.zeros((1, 3, 32, 32), dtype=np.float64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_rejects_non_finite_input(self, bad):
        model = build(TINY, seed=0)
        x = np.zeros((2, 3, 32, 32), dtype=np.float32)
        x[1, 2, 5, 7] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            forward(model, x)


# Every kernel and block forward a forward pass reaches, by module.
FORWARD_CALLEES = {
    tensor: ("gelu", "batchnorm_infer", "conv2d"),
    fusion: ("rep_branch_forward",),
    blocks: ("rep_branch_forward", "unit_forward", "ffn_forward", "rep_embed_forward",
             "rep_dw_block_forward", "sdta_forward", "sdta_block_forward",
             "mdta_forward", "mdta_block_forward"),
    model_module: ("gelu", "block_forward"),
}


class TestInputsUntouched:
    @pytest.mark.parametrize("attention", ["sdta", "mdta"])
    @pytest.mark.parametrize("form", ["train", "deploy"])
    def test_no_kernel_or_forward_writes_into_its_input(self, monkeypatch, form, attention):
        # Outputs are summed and rescaled in place; this pins that the
        # buffers written are always the callee's own, never an argument.
        calls = Counter()

        def untouched(name, fn):
            def wrapped(*args):
                before = [(a, a.tobytes()) for a in args if isinstance(a, np.ndarray)]
                out = fn(*args)
                for a, raw in before:
                    assert a.tobytes() == raw, f"{name} wrote into its input"
                calls[name] += 1
                spec = args[-1]
                if name == "conv2d" and spec.is_depthwise and spec.kernel_size == (1, 1):
                    calls["one-tap depthwise conv2d"] += 1
                return out
            return wrapped

        for module, names in FORWARD_CALLEES.items():
            for name in names:
                monkeypatch.setattr(module, name, untouched(name, getattr(module, name)))
        config = ModelConfig(depths=(1, 1, 1), dims=(8, 8, 8), ffn_ratio=2, num_classes=10,
                             input_resolution=32, attention=attention)
        net = build(config, seed=0)
        if form == "deploy":
            net = deploy(net)
        weights_before = {k: v.tobytes() for k, v in named_tensors(net)}
        x = np.random.default_rng(9).standard_normal((2, 3, 32, 32)).astype(np.float32)
        raw = x.tobytes()
        forward(net, x)
        assert x.tobytes() == raw
        assert {k: v.tobytes() for k, v in named_tensors(net)} == weights_before
        want = {"gelu", "conv2d", "block_forward", "unit_forward", "ffn_forward",
                "rep_embed_forward", "rep_dw_block_forward", f"{attention}_forward",
                f"{attention}_block_forward"}
        if form == "train":
            want |= {"batchnorm_infer", "rep_branch_forward", "one-tap depthwise conv2d"}
        assert set(calls) == want


class TestS1FullResolution:
    def test_forward_deploy_agreement_and_batch_independence(self):
        model = build(VARIANTS["s1"], seed=0)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 224, 224)).astype(np.float32)
        scores = forward(model, x)
        assert scores.shape == (2, 1000)
        assert np.all(np.isfinite(scores))

        # batch rows equal independent single-image runs, bit for bit
        for b in range(2):
            assert np.array_equal(forward(model, x[b:b + 1]), scores[b:b + 1])

        deployed = deploy(model)
        dscores = forward(deployed, x)
        assert np.max(np.abs(scores - dscores)) < 1e-3


class TestDeploy:
    def test_double_deploy_raises(self):
        model = deploy(build(TINY, seed=0))
        with pytest.raises(ValueError):
            deploy(model)

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-10), (np.float32, 1e-3)],
                             ids=["float64", "float32"])
    def test_mdta_deploy_matches_train(self, dtype, tol):
        cfg = ModelConfig(depths=(1, 1, 1), dims=(8, 8, 8), num_classes=10,
                          input_resolution=32, attention="mdta")
        model = build(cfg, seed=0, dtype=dtype)
        x = np.random.default_rng(1).standard_normal((2, 3, 32, 32)).astype(dtype)
        assert np.max(np.abs(forward(model, x) - forward(deploy(model), x))) < tol

    def test_deploy_form_has_no_train_cost_or_branches(self):
        model = deploy(build(TINY, seed=0))
        with pytest.raises(ValueError):
            count(model, "train")
        with pytest.raises(ValueError):
            fusable_branches(model)

    def test_count_of_a_config_draws_nothing(self, monkeypatch):
        want = count(TINY, "train").total_params

        def no_draws(*args, **kwargs):
            raise AssertionError("count drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        assert count(TINY, "train").total_params == want

    def test_deploy_reduces_parameter_count(self):
        model = build(VARIANTS["s1"], seed=0)
        train_params = count(model, "train").total_params
        deploy_params = count(model, "deploy").total_params
        assert deploy_params < train_params

    def test_deploy_equivalence_small(self):
        model = build(TINY, seed=4)
        deployed = deploy(model)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        a = forward(model, x)
        b = forward(deployed, x)
        assert np.max(np.abs(a - b)) < 1e-3

    def test_modes(self):
        model = build(TINY, seed=0)
        assert model.mode == "train"
        assert deploy(model).mode == "deploy"


class TestCount:
    def test_pointwise_conv_closed_form(self):
        # a 2 -> 2 pointwise conv at 1x1: 4 weights and 2 biases, 4 MACs
        assert _row_cost(Geometry("proj", "proj", 2, 2), "deploy", 1) == (6, 4, 1)

    def test_a_config_is_counted_without_constructing_a_spec_or_model(self, monkeypatch):
        want = {form: count(TINY, form).entries for form in ("train", "deploy")}

        def refuse(self):
            raise AssertionError(f"count constructed a {type(self).__name__}")

        monkeypatch.setattr(ConvSpec, "__post_init__", refuse)
        monkeypatch.setattr(Model, "__post_init__", refuse, raising=False)
        for form, entries in want.items():
            assert count(TINY, form).entries == entries

    def test_subtotal_matches_whole_dotted_segments(self):
        # stage3.1 takes in none of stage3.10 and stage3.11, and the prefix
        # stage3.1.f names no entry
        cfg = ModelConfig(depths=(1, 1, 12), dims=(8, 8, 8), num_classes=10,
                          input_resolution=32)
        report = count(cfg, "deploy")
        cost = {e.name: (e.params, e.macs) for e in report.entries}
        block = [c for name, c in cost.items() if name.startswith("stage3.1.")]
        assert len(block) == 6
        assert report.subtotal("stage3.1") == tuple(map(sum, zip(*block))) == (792, 730)
        assert report.subtotal("stage3.1.ffn") == cost["stage3.1.ffn"]
        assert report.subtotal("stage3.1.f") == (0, 0)
        assert report.subtotal("down12") == cost["down12"]

    def test_tiny_config_hand_count_deploy(self):
        # stem (fused 3x3, resolutions 16/8/4/2):
        #   3->1: 28 params, 27*256 = 6912 macs
        #   1->2: 20, 18*64 = 1152;  2->4: 76, 72*16 = 1152;  4->8: 296, 288*4 = 1152
        # stage1 at 2x2: mixer dw 3x3 80 params 288 macs;
        #   ffn 8->16->8: 144+136 = 280 params, (128+128)*4 = 1024 macs
        # down12 8->8 at 1x1 out: 584 params, 576 macs
        # stage2 at 1x1: mixer 80/72; ffn 280/256
        # down23 8->8 at 1x1 out: 584/576
        # stage3 at 1x1: mixer 80/72; proj_p 8->40: 360/320; qk 16*1*1 = 16;
        #   av 2*1*1 = 2; proj_o 8->8: 72/64; ffn 280/256
        # head: 90 params, 80 macs
        report = count(TINY, mode="deploy")
        assert report.total_params == 3190
        assert report.total_macs == 13970

    def test_train_params_equal_stored_tensor_elements(self):
        model = build(TINY, seed=0)
        stored = sum(arr.size for _, arr in named_tensors(model))
        assert count(model, "train").total_params == stored

    def test_deploy_params_equal_stored_tensor_elements(self):
        model = deploy(build(TINY, seed=0))
        stored = sum(arr.size for _, arr in named_tensors(model))
        assert count(model, "deploy").total_params == stored

    def test_s1_deploy_near_published_budget(self):
        report = count(VARIANTS["s1"], mode="deploy")
        assert 6.7e6 * 0.9 <= report.total_params <= 6.7e6 * 1.1
        assert 250e6 * 0.9 <= report.total_macs <= 250e6 * 1.1

    def test_variant_ordering(self):
        reports = {k: count(cfg, mode="deploy") for k, cfg in VARIANTS.items()}
        assert reports["s1"].total_params < reports["s2"].total_params
        assert reports["s2"].total_params < reports["s3"].total_params
        assert reports["s1"].total_macs < reports["s2"].total_macs
        assert reports["s2"].total_macs < reports["s3"].total_macs

    def test_attention_contraction_macs_independent_of_width(self):
        wide = ModelConfig(depths=(3, 8, 5), dims=(128, 224, 448))
        a = count(VARIANTS["s1"], mode="deploy")
        b = count(wide, mode="deploy")
        qk_a = sum(e.macs for e in a.entries if e.name.endswith(".attn_qk"))
        qk_b = sum(e.macs for e in b.entries if e.name.endswith(".attn_qk"))
        assert qk_a == qk_b > 0
        # while the value-mixing contraction does scale with width
        av_a = sum(e.macs for e in a.entries if e.name.endswith(".attn_av"))
        av_b = sum(e.macs for e in b.entries if e.name.endswith(".attn_av"))
        assert av_b > av_a

    def test_mdta_variant_exceeds_sdta(self):
        s2 = VARIANTS["s2"]
        mdta = ModelConfig(depths=s2.depths, dims=s2.dims, ffn_ratio=s2.ffn_ratio,
                           num_classes=s2.num_classes,
                           input_resolution=s2.input_resolution, attention="mdta")
        for mode in ("train", "deploy"):
            a = count(s2, mode=mode)
            b = count(mdta, mode=mode)
            assert b.total_macs > a.total_macs, mode
            assert b.total_params > a.total_params, mode

    def test_totals_equal_sum_of_entries(self):
        report = count(TINY, mode="train")
        assert report.total_params == sum(e.params for e in report.entries)
        assert report.total_macs == sum(e.macs for e in report.entries)
        assert all(isinstance(e, CostEntry) for e in report.entries)

    def test_model_default_mode_used(self):
        model = build(TINY, seed=0)
        assert count(model).total_params == count(model, "train").total_params
        deployed = deploy(model)
        assert count(deployed).total_params == count(deployed, "deploy").total_params
