import numpy as np
import pytest

from mvt2 import autodiff as ad
from mvt2.blocks import (
    MDTABlock,
    RepDWBlock,
    RepEmbedBlock,
    SDTABlock,
    deployed,
    mdta_block_forward,
    rep_dw_block_forward,
    rep_embed_forward,
    sdta_block_forward,
)
from mvt2.fusion import RepBranchSpec, rep_branch_forward
from mvt2.model import init_block, init_unit
from mvt2.tensor import BNSpec, ConvSpec


def weighted_sum(rng, shape):
    """A fixed random linear functional to turn a tensor into a scalar."""
    w = rng.standard_normal(shape)
    return lambda v: ad.vsum(ad.mul(v, ad.Var(w)))


class TestBackwardBasics:
    def test_fanout_accumulates(self):
        x = ad.Var(np.array([[1.0, 2.0]]))
        loss = ad.vsum(ad.add(x, x))
        ad.backward(loss)
        assert np.array_equal(x.grad, np.full((1, 2), 2.0))

    def test_mul_gives_product_rule(self):
        x = ad.Var(np.array([[3.0]]))
        loss = ad.vsum(ad.mul(x, x))
        ad.backward(loss)
        assert np.array_equal(x.grad, np.array([[6.0]]))

    def test_rejects_non_scalar_loss(self):
        x = ad.Var(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ad.backward(ad.add(x, x))


class TestCheckGradient:
    def test_quadratic(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 5))
        err = ad.check_gradient(lambda v: ad.vsum(ad.mul(v, v)), x, eps=1e-5)
        assert err < 1e-9

    def test_softmax_loss(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((3, 4))
        err = ad.check_gradient(
            lambda v: ad.vsum(ad.mul(ad.softmax(v, axis=0), ad.Var(w))), x, eps=1e-5)
        assert err < 1e-6

    def test_rejects_eps_out_of_range(self):
        with pytest.raises(ValueError):
            ad.check_gradient(lambda v: ad.vsum(v), np.zeros(3), eps=1e-2)
        with pytest.raises(ValueError):
            ad.check_gradient(lambda v: ad.vsum(v), np.zeros(3), eps=1e-8)

    def test_non_finite_raises(self):
        def f(v):
            return ad.vsum(ad.mul(v, ad.Var(np.full(2, np.inf))))

        with pytest.raises(ValueError):
            ad.check_gradient(f, np.ones(2), eps=1e-5)


class TestPrimitives:
    """Each primitive against central differences at randomized small shapes."""

    def test_conv2d_dense(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 5, 5))
        spec = ConvSpec(rng.standard_normal((4, 3, 3, 3)) * 0.3,
                        rng.standard_normal(4) * 0.1, padding=1)
        loss_w = weighted_sum(rng, (2, 4, 5, 5))
        err = ad.check_gradient(lambda v: loss_w(ad.conv2d(v, spec)), x)
        assert err < 1e-6

    def test_conv2d_strided_grouped(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 4, 6, 6))
        spec = ConvSpec(rng.standard_normal((6, 2, 3, 3)) * 0.3, np.zeros(6),
                        stride=2, padding=1, groups=2)
        loss_w = weighted_sum(rng, (1, 6, 3, 3))
        err = ad.check_gradient(lambda v: loss_w(ad.conv2d(v, spec)), x)
        assert err < 1e-6

    def test_conv2d_depthwise(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 5, 4, 4))
        spec = ConvSpec(rng.standard_normal((5, 1, 3, 3)) * 0.3,
                        rng.standard_normal(5) * 0.1, padding=1, groups=5)
        loss_w = weighted_sum(rng, (1, 5, 4, 4))
        err = ad.check_gradient(lambda v: loss_w(ad.conv2d(v, spec)), x)
        assert err < 1e-6

    @staticmethod
    def conv_vjp(x, spec, g):
        """The traced conv's input VJP applied to the cotangent ``g``."""
        leaf = ad.Var(x)
        ad.backward(ad.vsum(ad.mul(ad.conv2d(leaf, spec), ad.Var(g))))
        return leaf.grad

    def test_conv2d_vjp_is_the_adjoint_across_geometries(self):
        """<conv(x) - b, g> = <x, VJP(g)> in float64 for every geometry of
        the grid: dense, grouped, depthwise and channel-changing convs,
        with strides whose windows do not tile the padded input.  The gap
        is taken relative to sum |conv(x) - b| |g|, the scale of a dot
        product's rounding error, since the products may cancel."""
        rng = np.random.default_rng(12)
        for k in (1, 3):
            for stride in (1, 2):
                for padding in (0, 1, 2):
                    for c, o, groups in ((4, 6, 1), (4, 6, 2), (6, 6, 6), (3, 8, 1)):
                        spec = ConvSpec(rng.standard_normal((o, c // groups, k, k)),
                                        rng.standard_normal(o), stride, padding, groups)
                        for h in (5, 6, 7, 8):
                            for w in (5, 8):
                                x = rng.standard_normal((2, c, h, w))
                                y = ad.conv2d(x, spec).value - spec.bias[:, None, None]
                                g = rng.standard_normal(y.shape)
                                lhs = float(np.vdot(y, g))
                                rhs = float(np.vdot(x, self.conv_vjp(x, spec, g)))
                                gap = abs(lhs - rhs) / float(np.vdot(np.abs(y), np.abs(g)))
                                assert gap <= 1e-12, (k, stride, padding, c, o, groups, h, w)

    def test_conv2d_vjp_keeps_a_float64_cotangent(self):
        """A float32 conv fed a float64 cotangent returns the float64 VJP,
        the same bits as the float64 conv with the same weights."""
        rng = np.random.default_rng(13)
        spec32 = ConvSpec(rng.standard_normal((6, 2, 3, 3)).astype(np.float32),
                          np.zeros(6, np.float32), stride=2, padding=1, groups=2)
        spec64 = ConvSpec(spec32.kernel.astype(np.float64), spec32.bias.astype(np.float64),
                          stride=2, padding=1, groups=2)
        x = rng.standard_normal((1, 4, 7, 7)).astype(np.float32)
        g = rng.standard_normal((1, 6, 4, 4))
        got = self.conv_vjp(x, spec32, g)
        assert got.dtype == np.float64
        assert np.array_equal(got, self.conv_vjp(x.astype(np.float64), spec64, g))

    def test_batchnorm(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 4, 3, 3))
        bn = BNSpec(gamma=rng.uniform(0.5, 1.5, 4), beta=rng.standard_normal(4) * 0.1,
                    running_mean=rng.standard_normal(4) * 0.1,
                    running_var=rng.uniform(0.5, 1.5, 4))
        loss_w = weighted_sum(rng, (2, 4, 3, 3))
        err = ad.check_gradient(lambda v: loss_w(ad.batchnorm_infer(v, bn)), x)
        assert err < 1e-6

    def test_matmul(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 4))
        b = ad.Var(rng.standard_normal((4, 5)))
        loss_w = weighted_sum(rng, (3, 5))
        err = ad.check_gradient(lambda v: loss_w(ad.matmul(v, b)), a)
        assert err < 1e-6

    def test_sigmoid(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 4))
        loss_w = weighted_sum(rng, (4, 4))
        err = ad.check_gradient(lambda v: loss_w(ad.sigmoid(v)), x)
        assert err < 1e-6

    def test_gelu(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 4))
        loss_w = weighted_sum(rng, (4, 4))
        err = ad.check_gradient(lambda v: loss_w(ad.gelu(v)), x)
        assert err < 1e-6

    def test_softmax_both_axes(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 5))
        for axis in (0, 1):
            loss_w = weighted_sum(rng, (3, 5))
            err = ad.check_gradient(
                lambda v, a=axis: loss_w(ad.softmax(v, axis=a)), x)
            assert err < 1e-6, axis

    def test_concat_split_roundtrip(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 6, 3, 3))
        loss_w = weighted_sum(rng, (2, 6, 3, 3))

        def f(v):
            parts = [v[:, :2], v[:, 2:]]
            return loss_w(ad.concat_channels(parts))

        err = ad.check_gradient(f, x)
        assert err < 1e-6

    def test_reshape_transpose(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((3, 4))
        loss_w = weighted_sum(rng, (4, 3))
        err = ad.check_gradient(
            lambda v: loss_w(v.reshape(3, 4).swapaxes(0, 1)), x)
        assert err < 1e-6
        x = rng.standard_normal((2, 12))
        loss_w = weighted_sum(rng, (2, 4, 3))
        err = ad.check_gradient(
            lambda v: loss_w(v.reshape(2, 3, 4).swapaxes(1, 2)), x)
        assert err < 1e-6


class TestBlockGradients:
    """The block forwards of ``blocks`` and ``fusion`` run on a traced ``Var``."""

    def test_rep_branch(self):
        rng = np.random.default_rng(17)
        spec = init_unit(rng, RepDWBlock.geometry(6, 2)[0], dtype=np.float64)
        x = rng.standard_normal((1, 6, 4, 4))
        loss_w = weighted_sum(rng, (1, 6, 4, 4))
        err = ad.check_gradient(lambda v: loss_w(rep_branch_forward(v, spec)), x)
        assert err < 1e-6

    def test_rep_embed_gradient_finite(self):
        rng = np.random.default_rng(18)
        block = init_block(RepEmbedBlock, rng, 3, 8, 2, dtype=np.float64)
        x = ad.Var(rng.standard_normal((1, 3, 8, 8)))
        loss = ad.vsum(rep_embed_forward(block, x))
        ad.backward(loss)
        assert np.all(np.isfinite(x.grad))

    def test_rep_dw_block(self):
        rng = np.random.default_rng(19)
        block = init_block(RepDWBlock, rng, 8, 2, dtype=np.float64)
        x = rng.standard_normal((1, 8, 4, 4))
        loss_w = weighted_sum(rng, (1, 8, 4, 4))
        err = ad.check_gradient(lambda v: loss_w(rep_dw_block_forward(block, v)), x)
        assert err < 1e-4

    def test_sdta_block(self):
        rng = np.random.default_rng(20)
        block = init_block(SDTABlock, rng, 8, 2, dtype=np.float64)
        x = rng.standard_normal((1, 8, 4, 4))
        loss_w = weighted_sum(rng, (1, 8, 4, 4))
        err = ad.check_gradient(lambda v: loss_w(sdta_block_forward(block, v)), x)
        assert err < 1e-4

    @pytest.mark.parametrize("n", [1, 2], ids=["n1", "n2"])
    @pytest.mark.parametrize("init, run", [
        pytest.param(lambda rng, c, dtype: init_unit(rng, RepDWBlock.geometry(c, 2)[0], dtype),
                     lambda spec, x: rep_branch_forward(x, spec), id="rep_branch_forward"),
        pytest.param(lambda rng, c, dtype: init_block(RepEmbedBlock, rng, c, c, 1, dtype=dtype),
                     rep_embed_forward, id="rep_embed_forward"),
        pytest.param(lambda rng, c, dtype: init_block(RepDWBlock, rng, c, 2, dtype=dtype),
                     rep_dw_block_forward, id="rep_dw_block_forward"),
        pytest.param(lambda rng, c, dtype: init_block(SDTABlock, rng, c, 2, dtype=dtype),
                     sdta_block_forward, id="sdta_block_forward"),
        pytest.param(lambda rng, c, dtype: init_block(MDTABlock, rng, c, 2, dtype=dtype),
                     mdta_block_forward, id="mdta_block_forward"),
    ])
    def test_traced_matches_plain_forward(self, init, run, n):
        """Bit for bit in float32 and float64, in train form and (for a
        block) deploy form."""
        for dtype in (np.float32, np.float64):
            rng = np.random.default_rng(21)
            block = init(rng, 8, dtype=dtype)
            x = rng.standard_normal((n, 8, 4, 4)).astype(dtype)
            forms = {"train": block}
            if not isinstance(block, RepBranchSpec):
                forms["deploy"] = deployed(block)
            for form, b in forms.items():
                traced = run(b, ad.Var(x))
                assert isinstance(traced, ad.Var)
                assert np.array_equal(traced.value, run(b, x)), (dtype.__name__, form)

    def test_mdta_block(self):
        rng = np.random.default_rng(23)
        block = init_block(MDTABlock, rng, 8, 2, dtype=np.float64)
        x = rng.standard_normal((1, 8, 4, 4))
        loss_w = weighted_sum(rng, (1, 8, 4, 4))
        err = ad.check_gradient(lambda v: loss_w(mdta_block_forward(block, v)), x)
        assert err < 1e-4

    def test_batched_traced_attention_gives_finite_input_gradients(self):
        rng = np.random.default_rng(25)
        block = init_block(SDTABlock, rng, 8, 2, dtype=np.float64)
        x = ad.Var(rng.standard_normal((2, 8, 4, 4)))
        ad.backward(ad.vsum(sdta_block_forward(block, x)))
        assert x.grad.shape == (2, 8, 4, 4)
        assert np.all(np.isfinite(x.grad))

    def test_block_gradients_finite_for_normal_inputs(self):
        rng = np.random.default_rng(22)
        dw = init_block(RepDWBlock, rng, 8, 2, dtype=np.float64)
        sd = init_block(SDTABlock, rng, 8, 2, dtype=np.float64)
        for _ in range(3):
            x = ad.Var(rng.standard_normal((1, 8, 4, 4)))
            loss = ad.vsum(rep_dw_block_forward(dw, x))
            ad.backward(loss)
            assert np.all(np.isfinite(x.grad))
            x2 = ad.Var(rng.standard_normal((1, 8, 4, 4)))
            loss = ad.vsum(sdta_block_forward(sd, x2))
            ad.backward(loss)
            assert np.all(np.isfinite(x2.grad))
