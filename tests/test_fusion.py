import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from mvt2 import fusion
from mvt2.blocks import deployed
from mvt2.fusion import (
    RepBranchSpec,
    fold_bn,
    fuse,
    main_conv,
    rep_branch_forward,
    split_map,
    verify_equivalence,
)
from mvt2.model import (
    ATTENTION_KINDS,
    VARIANTS,
    _walk,
    build,
    deploy,
    from_tensors,
    fusable_branches,
    named_tensors,
)
from mvt2.tensor import BN_EPS, BNSpec, ConvSpec, batchnorm_infer, conv2d, gelu

from helpers import TINY, counted_submits, identity_bn, random_rep_branch_spec


def conv_param_total(conv):
    return conv.kernel.size + conv.bias.size


def train_param_total(spec):
    """Stored train-form elements: each conv's kernel and bias, and four
    vectors per batch norm."""
    convs = [c for c in (spec.main, spec.scale) if c is not None]
    bns = [b for b in (spec.main_bn, spec.scale_bn, spec.identity_bn) if b is not None]
    return sum(conv_param_total(c) for c in convs) + sum(4 * b.channels for b in bns)


class TestFoldBN:
    def test_identity_bn_leaves_spec_unchanged(self):
        np.random.seed(42)
        conv = ConvSpec(
            np.random.randn(4, 3, 3, 3).astype(np.float32),
            np.random.randn(4).astype(np.float32),
            padding=1,
        )
        folded = fold_bn(conv, identity_bn(4))
        assert np.array_equal(folded.kernel, conv.kernel)
        assert np.array_equal(folded.bias, conv.bias)

    def test_gamma_two_beta_three_doubles_weights(self):
        np.random.seed(0)
        conv = ConvSpec(
            np.random.randn(2, 2, 3, 3).astype(np.float32),
            np.zeros(2, dtype=np.float32),
            padding=1,
        )
        eps = BN_EPS
        bn = BNSpec(
            gamma=np.full(2, 2.0, dtype=np.float32),
            beta=np.full(2, 3.0, dtype=np.float32),
            running_mean=np.zeros(2, dtype=np.float32),
            running_var=np.full(2, 1.0 - eps, dtype=np.float32),
        )
        folded = fold_bn(conv, bn)
        assert np.allclose(folded.kernel, conv.kernel * 2.0, atol=1e-7)
        assert np.allclose(folded.bias, 3.0, atol=1e-7)

    def test_two_path_agreement_random(self):
        np.random.seed(1)
        conv = ConvSpec(
            np.random.randn(6, 4, 3, 3).astype(np.float32),
            np.random.randn(6).astype(np.float32),
            stride=2, padding=1,
        )
        bn = BNSpec(
            gamma=(np.random.rand(6) + 0.5).astype(np.float32),
            beta=np.random.randn(6).astype(np.float32),
            running_mean=np.random.randn(6).astype(np.float32),
            running_var=(np.random.rand(6) + 0.5).astype(np.float32),
        )
        folded = fold_bn(conv, bn)
        worst = 0.0
        for _ in range(50):
            x = np.random.randn(2, 4, 8, 8).astype(np.float32)
            a = batchnorm_infer(conv2d(x, conv), bn)
            b = conv2d(x, folded)
            worst = max(worst, float(np.max(np.abs(a - b))))
        assert worst < 1e-5

    def test_rejects_channel_mismatch(self):
        conv = ConvSpec(np.zeros((4, 2, 3, 3), dtype=np.float32),
                        np.zeros(4, dtype=np.float32))
        with pytest.raises(ValueError):
            fold_bn(conv, identity_bn(3))


def exact_bn(c, gamma=None):
    """A float64 batch norm that folds to scale 1 and shift 0 exactly
    (gamma is sqrt(var + eps) as ``fold_bn`` computes it), or to scale 0
    when ``gamma`` is 0."""
    eps = BN_EPS
    return BNSpec(
        gamma=np.full(c, np.sqrt(1.0 + eps) if gamma is None else gamma),
        beta=np.zeros(c), running_mean=np.zeros(c), running_var=np.ones(c),
    )


def conv64(kernel, **kw):
    kernel = np.asarray(kernel, dtype=np.float64)
    return ConvSpec(kernel, np.zeros(kernel.shape[0]), **kw)


class TestPad1x1:
    """``fuse`` adds a folded 1x1 kernel to the centre tap of the main
    conv's grid and keeps the main conv's padding, so a 1x1 main conv stays
    1x1 even beside an identity branch."""

    def test_center_embedding(self):
        main = conv64(np.zeros((1, 1, 3, 3)), padding=1)
        spec = RepBranchSpec(main, exact_bn(1), conv64([[[[2.5]]]]), exact_bn(1))
        out = fuse(spec)
        assert out.kernel.shape == (1, 1, 3, 3)
        assert out.kernel[0, 0, 1, 1] == 2.5
        assert np.count_nonzero(out.kernel) == 1
        assert out.padding == 1

    def test_zero_kernel_stays_zero(self):
        main = conv64(np.zeros((3, 2, 3, 3)), padding=1)
        spec = RepBranchSpec(main, exact_bn(3), conv64(np.zeros((3, 2, 1, 1))), exact_bn(3))
        assert not np.any(fuse(spec).kernel)

    def test_functional_equivalence_stride1(self):
        # an identity branch of scale 0 keeps a 1x1 main 1x1 and adds nothing
        rng = np.random.default_rng(2)
        main = conv64(rng.standard_normal((5, 5, 1, 1)))
        fused = fuse(RepBranchSpec(main, exact_bn(5), identity_bn=exact_bn(5, gamma=0.0)))
        assert fused.kernel_size == (1, 1) and fused.padding == 0
        x = rng.standard_normal((2, 5, 6, 6))
        assert np.max(np.abs(conv2d(x, main) - conv2d(x, fused))) < 1e-12

    def test_functional_equivalence_stride2(self):
        rng = np.random.default_rng(3)
        main = conv64(np.zeros((4, 3, 3, 3)), stride=2, padding=1)
        scale = conv64(rng.standard_normal((4, 3, 1, 1)), stride=2)
        lifted = fuse(RepBranchSpec(main, exact_bn(4), scale, exact_bn(4)))
        x = rng.standard_normal((1, 3, 8, 8))
        assert conv2d(x, scale).shape == conv2d(x, lifted).shape
        assert np.max(np.abs(conv2d(x, scale) - conv2d(x, lifted))) < 1e-12

    def test_rejects_3x3(self):
        # only a 1x1 side branch lands on the centre tap; a 3x3 one is refused up front
        main = conv64(np.zeros((1, 1, 3, 3)), padding=1)
        with pytest.raises(ValueError):
            RepBranchSpec(main, exact_bn(1), conv64(np.zeros((1, 1, 3, 3)), padding=1),
                          exact_bn(1))


class TestIdentityConv:
    """``fuse`` folds an identity branch as a one-hot centre tap on each
    channel's own input slot within its group."""

    @staticmethod
    def identity_only(channels, groups, k=1):
        main = conv64(np.zeros((channels, channels // groups, k, k)), padding=k // 2,
                      groups=groups)
        return fuse(RepBranchSpec(main, exact_bn(channels), identity_bn=exact_bn(channels)))

    def test_depthwise_center_taps(self):
        for k in (1, 3):
            spec = self.identity_only(4, 4, k)
            assert spec.kernel.shape == (4, 1, k, k) and spec.padding == k // 2
            for i in range(4):
                assert spec.kernel[i, 0, k // 2, k // 2] == 1.0
            assert np.count_nonzero(spec.kernel) == 4

    def test_dense_center_slice_is_identity(self):
        spec = self.identity_only(4, 1, k=3)
        assert spec.kernel.shape == (4, 4, 3, 3)
        assert np.array_equal(spec.kernel[:, :, 1, 1], np.eye(4))

    def test_acts_as_identity_bit_exact(self):
        rng = np.random.default_rng(4)
        x = rng.integers(-8, 8, size=(2, 4, 5, 5)).astype(np.float64)
        for groups in (1, 2, 4):
            for k in (1, 3):
                assert np.array_equal(conv2d(x, self.identity_only(4, groups, k)), x)

    def test_rejects_bad_groups(self):
        with pytest.raises(ValueError):
            self.identity_only(4, 3)


class TestRepBranchSpec:
    def test_rejects_identity_at_stride2(self):
        main = ConvSpec(np.zeros((4, 4, 3, 3), dtype=np.float32),
                        np.zeros(4, dtype=np.float32), stride=2, padding=1)
        with pytest.raises(ValueError):
            RepBranchSpec(main, identity_bn(4), identity_bn=identity_bn(4))

    def test_rejects_identity_on_channel_change(self):
        main = ConvSpec(np.zeros((6, 4, 3, 3), dtype=np.float32),
                        np.zeros(6, dtype=np.float32), padding=1)
        with pytest.raises(ValueError):
            RepBranchSpec(main, identity_bn(6), identity_bn=identity_bn(6))

    def test_rejects_scale_padding_misalignment(self):
        main = ConvSpec(np.zeros((4, 4, 3, 3), dtype=np.float32),
                        np.zeros(4, dtype=np.float32), padding=1)
        scale = ConvSpec(np.zeros((4, 4, 1, 1), dtype=np.float32),
                         np.zeros(4, dtype=np.float32), padding=1)
        with pytest.raises(ValueError):
            RepBranchSpec(main, identity_bn(4), scale, identity_bn(4))

    def test_rejects_scale_stride_mismatch(self):
        main = ConvSpec(np.zeros((4, 4, 3, 3), dtype=np.float32),
                        np.zeros(4, dtype=np.float32), stride=2, padding=1)
        scale = ConvSpec(np.zeros((4, 4, 1, 1), dtype=np.float32),
                         np.zeros(4, dtype=np.float32), stride=1)
        with pytest.raises(ValueError):
            RepBranchSpec(main, identity_bn(4), scale, identity_bn(4))

    @pytest.mark.parametrize("branch", ["main_bn", "scale", "identity_bn"])
    def test_rejects_a_branch_of_another_dtype(self, branch):
        """A float64 branch under a float32 main conv would fail only later,
        in ``rep_branch_forward``."""
        main = ConvSpec(np.zeros((4, 4, 3, 3), dtype=np.float32),
                        np.zeros(4, dtype=np.float32), padding=1)
        scale = ConvSpec(np.zeros((4, 4, 1, 1), dtype=np.float32), np.zeros(4, dtype=np.float32))
        branches = dict(main_bn=identity_bn(4), scale=scale, scale_bn=identity_bn(4),
                        identity_bn=identity_bn(4))
        RepBranchSpec(main, **branches)  # all float32 passes
        branches[branch] = (
            ConvSpec(scale.kernel.astype(np.float64), scale.bias.astype(np.float64))
            if branch == "scale" else BNSpec(np.ones(4), np.zeros(4), np.zeros(4), np.ones(4)))
        with pytest.raises(ValueError, match="dtype"):
            RepBranchSpec(main, **branches)

    def test_rejects_lone_scale_bn(self):
        main = ConvSpec(np.zeros((4, 4, 3, 3), dtype=np.float32),
                        np.zeros(4, dtype=np.float32), padding=1)
        with pytest.raises(ValueError):
            RepBranchSpec(main, identity_bn(4), scale_bn=identity_bn(4))


def grid(conv):
    return conv.kernel.shape, conv.stride, conv.padding, conv.groups


class TestMainConv:
    @pytest.mark.parametrize("attention", ATTENTION_KINDS)
    @pytest.mark.parametrize("variant", ["s1", "s2", "s3"])
    def test_every_unit_runs_on_its_rows_grid_in_both_forms(self, variant, attention):
        """``main_conv`` of every unit, train and deploy, has its geometry
        row's kernel shape, stride, padding k // 2 and groups, and a train
        unit's fuse keeps that grid and dtype.  The arrays are zeros: only
        the grid is read."""
        config = dataclasses.replace(VARIANTS[variant], attention=attention)
        dtype = np.float32 if attention == "sdta" else np.float64
        for mode in ("train", "deploy"):
            model = from_tensors(config, mode, lambda _, shape: np.zeros(shape, dtype))
            for name, row, unit in _walk(model):
                conv = main_conv(unit)
                assert grid(conv) == ((row.out_c, row.in_c // row.groups, row.k, row.k),
                                      row.stride, row.k // 2, row.groups), (mode, name, row)
                assert conv.dtype == dtype
                if mode == "train":
                    fused = main_conv(fuse(unit))
                    assert (grid(fused), fused.dtype) == (grid(conv), conv.dtype), (name, row)


class TestRepBranchForward:
    def test_batch_norms_run_in_place_on_their_conv_outputs(self):
        """A dense 16 to 32 channel 3x3 stride-2 unit with a 1x1 scale
        branch, batch 4 at 112x112.  The peak holds the output, the scale
        branch's conv output and one column buffer: about 2.14 outputs.  A
        batch norm that made its own copy of a conv output would take it
        past 3."""
        spec = random_rep_branch_spec(16, 32, stride=2, rng=np.random.default_rng(16))
        x = np.random.default_rng(17).standard_normal((4, 16, 112, 112)).astype(np.float32)
        out = rep_branch_forward(x, spec)
        tracemalloc.start()
        try:
            rep_branch_forward(x, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * out.nbytes


class TestFuse:
    def test_main_only_identity_bn_returns_unchanged(self):
        np.random.seed(5)
        main = ConvSpec(
            np.random.randn(4, 3, 3, 3).astype(np.float32),
            np.random.randn(4).astype(np.float32),
            padding=1,
        )
        fused = fuse(RepBranchSpec(main, identity_bn(4)))
        assert np.array_equal(fused.kernel, main.kernel)
        assert np.array_equal(fused.bias, main.bias)
        assert (fused.stride, fused.padding, fused.groups) == (1, 1, 1)

    def test_zero_branches_plus_identity_acts_as_identity(self):
        c = 4
        main = ConvSpec(np.zeros((c, c, 3, 3), dtype=np.float32),
                        np.zeros(c, dtype=np.float32), padding=1)
        scale = ConvSpec(np.zeros((c, c, 1, 1), dtype=np.float32),
                         np.zeros(c, dtype=np.float32))
        spec = RepBranchSpec(main, identity_bn(c), scale, identity_bn(c),
                             identity_bn(c))
        fused = fuse(spec)
        np.random.seed(6)
        x = np.random.randint(-5, 5, size=(1, c, 6, 6)).astype(np.float32)
        assert np.array_equal(conv2d(x, fused), x)

    def test_depthwise_three_branch_equivalence(self):
        rng = np.random.default_rng(7)
        spec = random_rep_branch_spec(8, 8, kernel_size=3, groups=8, rng=rng)
        assert spec.identity_bn is not None
        report = verify_equivalence([spec], samples=100, tol=1e-4, input_hw=7)[0]
        assert report["pass"], report

    def test_depthwise_equivalence_float64(self):
        rng = np.random.default_rng(8)
        spec = random_rep_branch_spec(8, 8, kernel_size=3, groups=8,
                                      dtype=np.float64, rng=rng)
        report = verify_equivalence([spec], samples=100, tol=1e-10, input_hw=7)[0]
        assert report["pass"], report

    def test_equivalence_grid(self):
        # dense and depthwise, stride 1 and 2, with and without side branches
        rng = np.random.default_rng(9)
        cases = [
            dict(in_channels=4, out_channels=4, groups=1, stride=1),
            dict(in_channels=4, out_channels=4, groups=1, stride=1, with_identity=False),
            dict(in_channels=4, out_channels=4, groups=1, stride=1,
                 with_scale=False, with_identity=False),
            dict(in_channels=3, out_channels=8, groups=1, stride=2),
            dict(in_channels=6, out_channels=6, groups=6, stride=1),
            dict(in_channels=6, out_channels=6, groups=6, stride=1, with_scale=False),
            dict(in_channels=8, out_channels=8, groups=8, stride=2),
            dict(in_channels=4, out_channels=6, groups=2, stride=2),
            dict(in_channels=4, out_channels=4, groups=1, stride=1, kernel_size=1,
                 with_identity=False),
            dict(in_channels=4, out_channels=4, groups=1, stride=1, kernel_size=1),
        ]
        for kw in cases:
            for dtype, tol in ((np.float32, 1e-4), (np.float64, 1e-10)):
                spec = random_rep_branch_spec(dtype=dtype, rng=rng, **kw)
                report = verify_equivalence([spec], samples=20, tol=tol, input_hw=8)[0]
                assert report["pass"], (kw, dtype, report)

    def test_fuse_has_the_geometry_of_the_grid_rule(self):
        # the main conv's grid: its kernel size, stride, padding, groups and
        # dtype, with or without an identity branch
        rng = np.random.default_rng(11)
        cases = [
            dict(in_channels=4, out_channels=4, groups=1, stride=1),
            dict(in_channels=4, out_channels=4, groups=1, stride=1, with_identity=False),
            dict(in_channels=3, out_channels=8, groups=1, stride=2),
            dict(in_channels=6, out_channels=6, groups=6, stride=1, with_scale=False),
            dict(in_channels=8, out_channels=8, groups=8, stride=2),
            dict(in_channels=4, out_channels=6, groups=2, stride=2),
            dict(in_channels=4, out_channels=4, groups=1, stride=1, kernel_size=1,
                 with_identity=False),
            dict(in_channels=4, out_channels=4, groups=1, stride=1, kernel_size=1),
            dict(in_channels=4, out_channels=8, groups=1, stride=2, kernel_size=1),
        ]
        for kw in cases:
            for dtype in (np.float32, np.float64):
                spec = random_rep_branch_spec(dtype=dtype, rng=rng, **kw)
                m, got = spec.main, fuse(spec)
                k = m.kernel_size[0]
                assert (got.kernel.shape, got.kernel.dtype, got.bias.shape, got.bias.dtype,
                        got.stride, got.padding, got.groups) == (
                    (m.out_channels, m.in_channels // m.groups, k, k), dtype,
                    (m.out_channels,), dtype, m.stride, m.padding, m.groups), (kw, dtype)

    def test_fused_param_count_never_exceeds_train_form(self):
        rng = np.random.default_rng(10)
        for kw in (
            dict(in_channels=4, out_channels=4, groups=1),
            dict(in_channels=8, out_channels=8, groups=8),
            dict(in_channels=3, out_channels=8, groups=1, stride=2),
            dict(in_channels=4, out_channels=4, groups=1, with_scale=False,
                 with_identity=False),
        ):
            spec = random_rep_branch_spec(rng=rng, **kw)
            assert conv_param_total(fuse(spec)) <= train_param_total(spec)

    def test_sums_in_one_float64_centre_plane(self):
        # a float64 grid of the kernel's full size beside the float32 fold
        # would take the peak past three times the kernel's bytes
        spec = random_rep_branch_spec(224, 224, rng=np.random.default_rng(15))
        fuse(spec)
        tracemalloc.start()
        try:
            fuse(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * spec.main.kernel.nbytes

    def test_s1_seed0_deploy_tensors_are_pinned(self):
        """Every fused tensor of s1 seed 0, names, shapes and bytes, pinned in
        memory: its 3x3 embeddings with 1x1 scale branches, its depthwise
        mixers with identity branches and its one-branch units."""
        digest = hashlib.sha256()
        for name, arr in named_tensors(deploy(build(VARIANTS["s1"], 0))):
            digest.update(f"{name} {arr.dtype} {arr.shape}\n".encode())
            digest.update(arr.tobytes())
        assert digest.hexdigest() == (
            "3bcdab5438e957a85c72f9633f57948450584718c1c3c06212c1715ac4a9f377")


class TestVerifyEquivalence:
    def test_identity_spec_zero_diff(self):
        c = 3
        main = ConvSpec(np.zeros((c, c, 3, 3), dtype=np.float32),
                        np.zeros(c, dtype=np.float32), padding=1)
        spec = RepBranchSpec(main, identity_bn(c), identity_bn=identity_bn(c))
        report = verify_equivalence([spec], samples=5, tol=0.0)[0]
        assert report["max_abs_diff"] == 0.0
        assert report["pass"]

    def test_large_gamma_float64_still_tight(self):
        rng = np.random.default_rng(11)
        spec = random_rep_branch_spec(6, 6, groups=6, dtype=np.float64, rng=rng)
        big = BNSpec(
            gamma=np.full(6, 1e3, dtype=np.float64),
            beta=spec.main_bn.beta,
            running_mean=spec.main_bn.running_mean,
            running_var=spec.main_bn.running_var,
        )
        spec = RepBranchSpec(spec.main, big, spec.scale, spec.scale_bn,
                             spec.identity_bn)
        report = verify_equivalence([spec], samples=50, tol=1e-8)[0]
        assert report["pass"], report

    def test_large_gamma_float32_diff_grows(self):
        rng = np.random.default_rng(12)
        base = random_rep_branch_spec(6, 6, groups=6, dtype=np.float32, rng=rng)
        big = BNSpec(
            gamma=np.full(6, 1e3, dtype=np.float32),
            beta=base.main_bn.beta,
            running_mean=base.main_bn.running_mean,
            running_var=base.main_bn.running_var,
        )
        loud = RepBranchSpec(base.main, big, base.scale, base.scale_bn,
                             base.identity_bn)
        quiet = verify_equivalence([base], samples=20, tol=1e-4)[0]["max_abs_diff"]
        noisy = verify_equivalence([loud], samples=20, tol=1e-4)[0]["max_abs_diff"]
        assert noisy > quiet

    def test_rejects_zero_samples(self):
        spec = random_rep_branch_spec(4, 4)
        with pytest.raises(ValueError):
            verify_equivalence([spec], samples=0)[0]

    def test_overflowing_unit_fails(self):
        spec = random_rep_branch_spec(4, 4, rng=np.random.default_rng(12))
        spec.main.kernel[...] = np.finfo(np.float32).max
        with np.errstate(all="ignore"):
            report = verify_equivalence([spec], samples=3)[0]
        assert not report["max_abs_diff"] <= 1e-4
        assert report["pass"] is False

    def test_nan_in_any_sample_fails(self, monkeypatch):
        from mvt2 import fusion

        spec = random_rep_branch_spec(4, 4, rng=np.random.default_rng(13))
        calls = []

        def nan_on_second_sample(x, s):
            calls.append(None)
            out = rep_branch_forward(x, s)
            return np.full_like(out, np.nan) if len(calls) == 2 else out

        monkeypatch.setattr(fusion, "rep_branch_forward", nan_on_second_sample)
        report = verify_equivalence([spec], samples=3)[0]
        assert len(calls) == 3
        assert np.isnan(report["max_abs_diff"])
        assert report["pass"] is False

    def test_draws_each_input_once_per_shape_and_dtype_per_call(self, monkeypatch):
        from mvt2 import fusion

        rng = np.random.default_rng(14)
        specs = [
            random_rep_branch_spec(4, 4, rng=rng),
            random_rep_branch_spec(4, 8, stride=2, rng=rng),
            random_rep_branch_spec(6, 6, groups=6, rng=rng),
            random_rep_branch_spec(4, 4, dtype=np.float64, rng=rng),
            random_rep_branch_spec(6, 6, kernel_size=1, rng=rng),
        ]
        distinct = {(s.main.in_channels, s.main.dtype) for s in specs}
        assert len(distinct) == 3
        alone = [verify_equivalence([s], samples=4)[0] for s in specs]

        draws, writeable = [], []

        class CountingGenerator(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                draws.append(None)
                return super().standard_normal(*args, **kwargs)

        def forward_seen(x, s):
            writeable.append(x.flags.writeable)
            return rep_branch_forward(x, s)

        monkeypatch.setattr(fusion.np.random, "default_rng",
                            lambda seed: CountingGenerator(np.random.PCG64(seed)))
        monkeypatch.setattr(fusion, "rep_branch_forward", forward_seen)
        for _ in range(2):
            draws.clear()
            # every unit's report is the one it gets checked alone
            assert verify_equivalence(specs, samples=4) == alone
            # a second call draws every batch again: nothing is kept between calls
            assert len(draws) == 4 * len(distinct)
        assert len(writeable) == 2 * 4 * len(specs) and not any(writeable)


ROOT = Path(__file__).resolve().parent.parent


def run_script(code: str, timeout: float = 120) -> str:
    """Run ``code`` in a fresh interpreter with ``src`` and ``tests`` on its
    path; returns its stdout and fails the test on a non-zero exit."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), str(ROOT / "tests"),
                                       os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# prints a digest of deploy's tensors, of a batch-3 forward in both forms
# (split over the caller and the worker) and of verify_equivalence's
# reports on a TINY seed-0 train model, and of the tensors ``load`` reads
# back from a file of several read chunks (TINY at dims (32, 64, 128))
DIGEST = """
    import dataclasses, hashlib, os, tempfile
    from helpers import TINY
    from mvt2 import weights
    from mvt2.fusion import verify_equivalence
    from mvt2.model import build, deploy, fusable_branches, named_tensors
    import numpy as np
    from mvt2.model import forward
    model = build(TINY, seed=0)
    h = hashlib.sha256()
    for name, arr in named_tensors(deploy(model)):
        h.update(name.encode() + arr.tobytes())
    x = np.random.default_rng(0).standard_normal((3, 3, 32, 32)).astype(np.float32)
    h.update(forward(model, x).tobytes() + forward(deploy(model), x).tobytes())
    specs = [s for _, s in fusable_branches(model)]
    h.update(repr(verify_equivalence(specs, samples=3)).encode())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.mvt2")
        weights.save(build(dataclasses.replace(TINY, dims=(32, 64, 128)), seed=0), path)
        assert os.path.getsize(path) > 8 * weights._READ_CHUNK
        for name, arr in named_tensors(weights.load(path)):
            h.update(name.encode() + arr.tobytes())
    print(h.hexdigest())
"""


def split_worker() -> threading.Thread:
    split_map(abs, [-1, -2])  # makes the worker if there is none yet
    (worker,) = [t for t in threading.enumerate() if t.name.startswith("mvt2-split")]
    return worker


class TestSplitMap:
    """``deploy`` and ``verify_equivalence`` split their units over the
    caller and one library worker: the results, the reports and the error
    raised are the serial loop's, from any number of callers, in a forked
    child and on one CPU."""

    def test_results_keep_their_order(self):
        for n in range(6):
            assert split_map(lambda v: v * v, range(n)) == [v * v for v in range(n)]

    @pytest.mark.parametrize("bad", [(3, 4), (2, 5), (5, 2), (7,)])
    def test_the_lowest_failing_index_raises(self, bad):
        def fn(v):
            if v in bad:
                raise ValueError(f"item {v}")
            return v

        with pytest.raises(ValueError, match=f"item {min(bad)}$"):
            split_map(fn, range(9))

    def test_the_caller_waits_for_the_worker_when_its_half_fails(self):
        done = []

        def fn(v):
            if v == 0:
                raise KeyError(v)
            time.sleep(0.02)
            done.append(v)

        with pytest.raises(KeyError):
            split_map(fn, range(8))
        assert sorted(done) == [1, 3, 5, 7]

    def test_the_worker_takes_the_callers_error_settings(self):
        with np.errstate(over="ignore", invalid="raise"):
            got = split_map(lambda _: (np.geterr()["over"], np.geterr()["invalid"]), range(4))
        assert got == [("ignore", "raise")] * 4

    def test_overflowing_units_give_the_serial_reports(self):
        specs = [random_rep_branch_spec(4, 4, rng=np.random.default_rng(seed))
                 for seed in (12, 13, 14)]
        for spec in specs[:2]:
            spec.main.kernel[...] = np.finfo(np.float32).max
        with np.errstate(all="ignore"):
            serial = [verify_equivalence([s], samples=3)[0] for s in specs]
            split = verify_equivalence(specs, samples=3)
        assert [r["pass"] for r in serial] == [False, False, True]
        assert repr(split) == repr(serial)

    def test_no_split_nests_in_another(self):
        """Inside a split, the kernels that split a batch (at batch 2 here)
        run whole on their own thread: only the outer splits submit."""
        model = build(TINY, seed=0)
        by_shape = {}
        for _, spec in fusable_branches(model):
            by_shape.setdefault((spec.main.in_channels, spec.main.dtype), []).append(spec)
        group = max(by_shape.values(), key=len)
        assert len(group) >= 2
        with counted_submits() as submits:
            verify_equivalence(group, samples=3, batch=2)
        assert len(submits) == 1 + 3  # the fuse split, then one per sample

        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 8, 9, 9)).astype(np.float32)
        convs = [ConvSpec(rng.standard_normal((8, 8 // g, k, k)).astype(np.float32),
                          np.zeros(8, np.float32), padding=k // 2, groups=g)
                 for k, g in ((1, 1), (3, 8))]
        with counted_submits() as submits:
            split_map(lambda spec: gelu(conv2d(x, spec)), convs)
        assert len(submits) == 1

    def test_deploy_raises_the_serial_loops_error(self):
        """Block 5 runs on the worker and block 6 on the caller: the
        error is block 5's, as in the serial loop."""
        def bn(c):
            return BNSpec(*(np.ones(c, np.float32) for _ in range(4)))

        model = build(TINY, seed=0)
        # specs are frozen and check their batch norms when constructed, so
        # the faults are planted past both
        object.__setattr__(model.blocks[5].branch, "main_bn", bn(9))
        object.__setattr__(model.blocks[6].mixer, "main_bn", bn(10))
        with pytest.raises(ValueError) as serial:
            [deployed(b) for b in model.blocks]
        assert "9 channels" in str(serial.value)
        for _ in range(8):
            with pytest.raises(ValueError) as split:
                deploy(model)
            assert str(split.value) == str(serial.value)

    def test_two_callers_get_the_serial_bits(self):
        model = build(TINY, seed=0)
        specs = [s for _, s in fusable_branches(model)]
        serial_tensors = [a.tobytes() for _, a in named_tensors(
            dataclasses.replace(model, blocks=[deployed(b) for b in model.blocks]))]
        serial_reports = [verify_equivalence([s], samples=2)[0] for s in specs]
        start = threading.Barrier(2, timeout=60)

        def run(_):
            start.wait()
            got = []
            for _ in range(16):
                fused = [a.tobytes() for _, a in named_tensors(deploy(model))]
                got.append(fused == serial_tensors
                           and verify_equivalence(specs, samples=2) == serial_reports)
            return got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(2) as pool:
                results = list(pool.map(run, (0, 1), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == [[True] * 16] * 2

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_a_forked_child_makes_its_own_worker(self):
        run_script("""
            import os, signal, sys
            from helpers import TINY
            from mvt2.model import build, deploy
            model = build(TINY, seed=0)
            deploy(model)
            pid = os.fork()
            if pid == 0:
                signal.alarm(60)  # a hung child ends itself
                deploy(model)
                os._exit(0)
            _, status = os.waitpid(pid, 0)
            sys.exit(os.waitstatus_to_exitcode(status))
        """)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_one_cpu_gives_the_same_results(self):
        one = run_script("import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})"
                         + textwrap.dedent(DIGEST))
        assert one == run_script(DIGEST)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
    def test_the_worker_is_placed_not_pinned(self):
        assert os.sched_getaffinity(split_worker().native_id) == os.sched_getaffinity(0)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="fewer than two allowed CPUs")
    def test_the_worker_leaves_the_callers_cpu_then_allows_all(self):
        out = run_script("""
            import json, os, threading
            calls = []
            set_affinity = os.sched_setaffinity
            def record(pid, mask):
                calls.append((threading.current_thread().name, sorted(mask)))
                set_affinity(pid, mask)
            os.sched_setaffinity = record
            from mvt2.tensor import split_map
            split_map(abs, [1, 2])
            print(json.dumps([calls, sorted(os.sched_getaffinity(0))]))
        """)
        calls, allowed = json.loads(out)
        (first_name, away), (second_name, back) = calls
        assert first_name.startswith("mvt2-split") and second_name == first_name
        assert len(away) == len(allowed) - 1 and set(away) < set(allowed)
        assert back == allowed
