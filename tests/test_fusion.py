import numpy as np
import pytest

from mvt2.fusion import (
    RepBranchSpec,
    fold_bn,
    fuse,
    rep_branch_forward,
    verify_equivalence,
)
from mvt2.tensor import BN_EPS, BNSpec, ConvSpec, batchnorm_infer, conv2d

from helpers import identity_bn, random_rep_branch_spec


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
    """``fuse`` centres a 1x1 kernel on the 3x3 grid of a 3x3 main conv or
    of an identity branch, at one more pixel of padding."""

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
        # an identity branch of scale 0 lifts a 1x1 main to 3x3 and adds nothing
        rng = np.random.default_rng(2)
        main = conv64(rng.standard_normal((5, 5, 1, 1)))
        lifted = fuse(RepBranchSpec(main, exact_bn(5), identity_bn=exact_bn(5, gamma=0.0)))
        assert lifted.kernel_size == (3, 3) and lifted.padding == 1
        x = rng.standard_normal((2, 5, 6, 6))
        assert np.max(np.abs(conv2d(x, main) - conv2d(x, lifted))) < 1e-12

    def test_functional_equivalence_stride2(self):
        rng = np.random.default_rng(3)
        main = conv64(np.zeros((4, 3, 3, 3)), stride=2, padding=1)
        scale = conv64(rng.standard_normal((4, 3, 1, 1)), stride=2)
        lifted = fuse(RepBranchSpec(main, exact_bn(4), scale, exact_bn(4)))
        x = rng.standard_normal((1, 3, 8, 8))
        assert conv2d(x, scale).shape == conv2d(x, lifted).shape
        assert np.max(np.abs(conv2d(x, scale) - conv2d(x, lifted))) < 1e-12

    def test_rejects_3x3(self):
        # only a 1x1 side branch is lifted; a 3x3 one is refused up front
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
        spec = self.identity_only(4, 4)
        assert spec.kernel.shape == (4, 1, 3, 3)
        for i in range(4):
            assert spec.kernel[i, 0, 1, 1] == 1.0
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
        # 3x3 when the main conv is 3x3 or there is an identity branch, else
        # 1x1, padded to keep the main conv's output grid, in its stride,
        # groups and dtype
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
                k = 3 if m.kernel_size == (3, 3) or spec.identity_bn is not None else 1
                assert (got.kernel.shape, got.kernel.dtype, got.bias.shape, got.bias.dtype,
                        got.stride, got.padding, got.groups) == (
                    (m.out_channels, m.in_channels // m.groups, k, k), dtype,
                    (m.out_channels,), dtype, m.stride,
                    m.padding + (k - m.kernel_size[0]) // 2, m.groups), (kw, dtype)

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
        distinct = {(s.in_channels, s.dtype) for s in specs}
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
