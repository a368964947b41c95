import numpy as np
import pytest

from mvt2 import autodiff as ad
from mvt2.blocks import (
    mdta_block_forward,
    rep_dw_block_forward,
    rep_embed_forward,
    sdta_block_forward,
)
from mvt2.fusion import rep_branch_forward
from mvt2.model import (
    init_dw_mixer,
    init_mdta_block,
    init_rep_dw_block,
    init_rep_embed,
    init_sdta_block,
)
from mvt2.tensor import BNSpec, ConvSpec


def weighted_sum(rng, shape):
    """A fixed random linear functional to turn a tensor into a scalar."""
    w = rng.standard_normal(shape)
    return lambda v: ad.vsum(ad.cmul(v, w))


class TestBackwardBasics:
    def test_linear_bias_gradient_is_ones(self):
        rng = np.random.default_rng(0)
        x = ad.Var(rng.standard_normal((3, 4)))
        w = ad.Var(rng.standard_normal((2, 4)))
        b = ad.Var(np.zeros(2))
        loss = ad.vsum(ad.linear(x, w, b))
        ad.backward(loss)
        assert np.array_equal(b.grad, np.full(2, 3.0))  # summed over 3 rows

    def test_constant_scale_gradient(self):
        rng = np.random.default_rng(1)
        c = rng.standard_normal((2, 3, 4, 4))
        x = ad.Var(rng.standard_normal((2, 3, 4, 4)))
        loss = ad.vsum(ad.cmul(x, c))
        ad.backward(loss)
        assert np.allclose(x.grad, c)

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
            lambda v: ad.vsum(ad.cmul(ad.softmax(v, axis=0), w)), x, eps=1e-5)
        assert err < 1e-6

    def test_rejects_eps_out_of_range(self):
        with pytest.raises(ValueError):
            ad.check_gradient(lambda v: ad.vsum(v), np.zeros(3), eps=1e-2)
        with pytest.raises(ValueError):
            ad.check_gradient(lambda v: ad.vsum(v), np.zeros(3), eps=1e-8)

    def test_non_finite_raises(self):
        def f(v):
            return ad.vsum(ad.cmul(v, np.inf))

        with pytest.raises(ValueError):
            ad.check_gradient(f, np.ones(2), eps=1e-5)


class TestPrimitives:
    """Each primitive against central differences at randomized small shapes."""

    def test_conv2d_dense(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 5, 5))
        kernel = ad.Var(rng.standard_normal((4, 3, 3, 3)) * 0.3)
        bias = ad.Var(rng.standard_normal(4) * 0.1)
        loss_w = weighted_sum(rng, (2, 4, 5, 5))
        err = ad.check_gradient(
            lambda v: loss_w(ad.conv2d(v, kernel, bias, padding=1)), x)
        assert err < 1e-6

    def test_conv2d_strided_grouped(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 4, 6, 6))
        kernel = ad.Var(rng.standard_normal((6, 2, 3, 3)) * 0.3)
        bias = ad.Var(np.zeros(6))
        loss_w = weighted_sum(rng, (1, 6, 3, 3))
        err = ad.check_gradient(
            lambda v: loss_w(ad.conv2d(v, kernel, bias, stride=2, padding=1,
                                       groups=2)), x)
        assert err < 1e-6

    def test_conv2d_depthwise(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 5, 4, 4))
        kernel = ad.Var(rng.standard_normal((5, 1, 3, 3)) * 0.3)
        bias = ad.Var(rng.standard_normal(5) * 0.1)
        loss_w = weighted_sum(rng, (1, 5, 4, 4))
        err = ad.check_gradient(
            lambda v: loss_w(ad.conv2d(v, kernel, bias, padding=1, groups=5)), x)
        assert err < 1e-6

    def test_conv2d_kernel_and_bias_grads(self):
        rng = np.random.default_rng(7)
        x = ad.Var(rng.standard_normal((2, 2, 4, 4)))
        loss_w = weighted_sum(rng, (2, 3, 4, 4))

        kernel0 = rng.standard_normal((3, 2, 3, 3)) * 0.3
        err = ad.check_gradient(
            lambda kv: loss_w(ad.conv2d(x, kv, ad.Var(np.zeros(3)), padding=1)),
            kernel0)
        assert err < 1e-6

        bias0 = rng.standard_normal(3)
        err = ad.check_gradient(
            lambda bv: loss_w(ad.conv2d(x, ad.Var(kernel0), bv, padding=1)),
            bias0)
        assert err < 1e-6

    def test_batchnorm(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 4, 3, 3))
        gamma = rng.uniform(0.5, 1.5, 4)
        beta = rng.standard_normal(4) * 0.1
        mean = rng.standard_normal(4) * 0.1
        var = rng.uniform(0.5, 1.5, 4)
        loss_w = weighted_sum(rng, (2, 4, 3, 3))
        err = ad.check_gradient(
            lambda v: loss_w(ad.batchnorm_infer(v, ad.Var(gamma), ad.Var(beta),
                                                mean, var)), x)
        assert err < 1e-6
        # scale and shift parameters
        err = ad.check_gradient(
            lambda gv: loss_w(ad.batchnorm_infer(ad.Var(x), gv, ad.Var(beta),
                                                 mean, var)), gamma)
        assert err < 1e-6

    def test_matmul(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 4))
        b = ad.Var(rng.standard_normal((4, 5)))
        loss_w = weighted_sum(rng, (3, 5))
        err = ad.check_gradient(lambda v: loss_w(ad.matmul(v, b)), a)
        assert err < 1e-6

    def test_linear(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 4))
        w = ad.Var(rng.standard_normal((2, 4)))
        b = ad.Var(rng.standard_normal(2))
        loss_w = weighted_sum(rng, (3, 2))
        err = ad.check_gradient(lambda v: loss_w(ad.linear(v, w, b)), x)
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
            parts = ad.split_channels(v, [2, 4])
            return loss_w(ad.concat_channels(parts))

        err = ad.check_gradient(f, x)
        assert err < 1e-6

    def test_global_avg_pool(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((2, 3, 4, 4))
        loss_w = weighted_sum(rng, (2, 3))
        err = ad.check_gradient(lambda v: loss_w(ad.global_avg_pool(v)), x)
        assert err < 1e-6

    def test_reshape_transpose(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((3, 4))
        loss_w = weighted_sum(rng, (4, 3))
        err = ad.check_gradient(
            lambda v: loss_w(ad.transpose(ad.reshape(v, (3, 4)))), x)
        assert err < 1e-6


class TestBlockGradients:
    """The block forwards of ``blocks`` and ``fusion`` run on a traced ``Var``."""

    def test_rep_branch(self):
        rng = np.random.default_rng(17)
        spec = init_dw_mixer(rng, 6, dtype=np.float64)
        x = rng.standard_normal((1, 6, 4, 4))
        loss_w = weighted_sum(rng, (1, 6, 4, 4))
        err = ad.check_gradient(lambda v: loss_w(rep_branch_forward(v, spec)), x)
        assert err < 1e-6

    def test_rep_embed_gradient_finite(self):
        rng = np.random.default_rng(18)
        block = init_rep_embed(rng, 3, 8, stride=2, dtype=np.float64)
        x = ad.Var(rng.standard_normal((1, 3, 8, 8)))
        loss = ad.vsum(rep_embed_forward(block, x))
        ad.backward(loss)
        assert np.all(np.isfinite(x.grad))

    def test_rep_dw_block(self):
        rng = np.random.default_rng(19)
        block = init_rep_dw_block(rng, 8, 2, dtype=np.float64)
        x = rng.standard_normal((1, 8, 4, 4))
        loss_w = weighted_sum(rng, (1, 8, 4, 4))
        err = ad.check_gradient(lambda v: loss_w(rep_dw_block_forward(block, v)), x)
        assert err < 1e-4

    def test_sdta_block(self):
        rng = np.random.default_rng(20)
        block = init_sdta_block(rng, 8, 2, dtype=np.float64)
        x = rng.standard_normal((1, 8, 4, 4))
        loss_w = weighted_sum(rng, (1, 8, 4, 4))
        err = ad.check_gradient(lambda v: loss_w(sdta_block_forward(block, v)), x)
        assert err < 1e-4

    @pytest.mark.parametrize("n", [1, 2], ids=["n1", "n2"])
    @pytest.mark.parametrize("init, run", [
        pytest.param(init_dw_mixer, lambda spec, x: rep_branch_forward(x, spec),
                     id="rep_branch_forward"),
        pytest.param(lambda rng, c, dtype: init_rep_embed(rng, c, c, 1, dtype),
                     rep_embed_forward, id="rep_embed_forward"),
        pytest.param(lambda rng, c, dtype: init_rep_dw_block(rng, c, 2, dtype),
                     rep_dw_block_forward, id="rep_dw_block_forward"),
        pytest.param(lambda rng, c, dtype: init_sdta_block(rng, c, 2, dtype),
                     sdta_block_forward, id="sdta_block_forward"),
        pytest.param(lambda rng, c, dtype: init_mdta_block(rng, c, 2, dtype),
                     mdta_block_forward, id="mdta_block_forward"),
    ])
    def test_traced_matches_plain_forward(self, init, run, n):
        rng = np.random.default_rng(21)
        block = init(rng, 8, dtype=np.float64)
        x = rng.standard_normal((n, 8, 4, 4))
        traced = run(block, ad.Var(x))
        assert isinstance(traced, ad.Var)
        assert np.max(np.abs(traced.value - run(block, x))) < 1e-12

    def test_mdta_block(self):
        rng = np.random.default_rng(23)
        block = init_mdta_block(rng, 8, 2, dtype=np.float64)
        x = rng.standard_normal((1, 8, 4, 4))
        loss_w = weighted_sum(rng, (1, 8, 4, 4))
        err = ad.check_gradient(lambda v: loss_w(mdta_block_forward(block, v)), x)
        assert err < 1e-4

    def test_batched_traced_attention_gives_finite_input_gradients(self):
        rng = np.random.default_rng(25)
        block = init_sdta_block(rng, 8, 2, dtype=np.float64)
        x = ad.Var(rng.standard_normal((2, 8, 4, 4)))
        ad.backward(ad.vsum(sdta_block_forward(block, x)))
        assert x.grad.shape == (2, 8, 4, 4)
        assert np.all(np.isfinite(x.grad))

    def test_block_gradients_finite_for_normal_inputs(self):
        rng = np.random.default_rng(22)
        dw = init_rep_dw_block(rng, 8, 2, dtype=np.float64)
        sd = init_sdta_block(rng, 8, 2, dtype=np.float64)
        for _ in range(3):
            x = ad.Var(rng.standard_normal((1, 8, 4, 4)))
            loss = ad.vsum(rep_dw_block_forward(dw, x))
            ad.backward(loss)
            assert np.all(np.isfinite(x.grad))
            x2 = ad.Var(rng.standard_normal((1, 8, 4, 4)))
            loss = ad.vsum(sdta_block_forward(sd, x2))
            ad.backward(loss)
            assert np.all(np.isfinite(x2.grad))
