import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from mvt2.blocks import rep_embed_forward
from mvt2.model import VARIANTS, _layout, build
from mvt2.tensor import (
    BN_EPS,
    BNSpec,
    ConvSpec,
    batchnorm_infer,
    concat_channels,
    conv2d,
    conv_output_hw,
    gelu,
    global_avg_pool,
    linear,
    matmul,
    sigmoid,
    softmax,
)

from helpers import identity_bn


def conv2d_reference(x, kernel, bias, stride, padding, groups):
    """Brute-force convolution in float64, seven nested loops."""
    x = x.astype(np.float64)
    kernel = kernel.astype(np.float64)
    bias = bias.astype(np.float64)
    n, c, h, w = x.shape
    oc, icg, kh, kw = kernel.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ocg = oc // groups
    out = np.zeros((n, oc, ho, wo))
    for b in range(n):
        for o in range(oc):
            g = o // ocg
            for y in range(ho):
                for xo in range(wo):
                    acc = 0.0
                    for ci in range(icg):
                        for i in range(kh):
                            for j in range(kw):
                                acc += (
                                    xp[b, g * icg + ci, y * stride + i, xo * stride + j]
                                    * kernel[o, ci, i, j]
                                )
                    out[b, o, y, xo] = acc + bias[o]
    return out


def dense_conv_geometries():
    """(kernel shape, stride, padding, groups, input resolution) of every
    distinct dense conv of s1, s2 and s3 at 224, train and deploy form,
    walked over the ``_layout`` rows and resolved as ``model.count`` does:
    each unit's main conv, which has its folded conv's geometry, and its
    1x1 scale conv where the row has one."""
    found = set()
    for variant in ("s1", "s2", "s3"):
        config = VARIANTS[variant]
        res = config.input_resolution
        for _, cls, dims in _layout(config):
            for row in cls.geometry(*dims):
                if not row.groups == row.in_c == row.out_c:
                    for k in (row.k, 1) if row.scale else (row.k,):
                        kshape = (row.out_c, row.in_c // row.groups, k, k)
                        found.add((kshape, row.stride, k // 2, row.groups, res))
                res, _ = conv_output_hw(res, res, row.k, row.k, row.stride, row.k // 2)
    return sorted(found)


class TestConv2d:
    def test_against_reference_shape_grid(self):
        np.random.seed(42)
        cases = [
            # (n, c, h, w, oc, k, stride, padding, groups)
            (1, 1, 3, 3, 1, 3, 1, 1, 1),
            (2, 3, 5, 5, 4, 3, 1, 1, 1),
            (2, 4, 6, 6, 4, 3, 2, 1, 1),
            (1, 4, 5, 7, 8, 1, 1, 0, 1),
            (2, 4, 5, 5, 4, 3, 1, 1, 4),
            (1, 6, 6, 6, 6, 3, 2, 1, 6),
            (2, 4, 7, 9, 6, 3, 2, 1, 2),
            (1, 3, 9, 9, 2, 1, 2, 0, 1),
            (3, 2, 4, 4, 2, 3, 1, 1, 2),
        ]
        for n, c, h, w, oc, k, stride, padding, groups in cases:
            x = np.random.randn(n, c, h, w).astype(np.float32)
            kernel = np.random.randn(oc, c // groups, k, k).astype(np.float32)
            bias = np.random.randn(oc).astype(np.float32)
            spec = ConvSpec(kernel, bias, stride=stride, padding=padding, groups=groups)
            got = conv2d(x, spec)
            want = conv2d_reference(x, kernel, bias, stride, padding, groups)
            assert got.shape == want.shape
            assert np.max(np.abs(got.astype(np.float64) - want)) < 1e-4

    def test_float64_matches_reference_tightly(self):
        np.random.seed(7)
        x = np.random.randn(2, 3, 6, 6)
        kernel = np.random.randn(5, 3, 3, 3)
        bias = np.random.randn(5)
        spec = ConvSpec(kernel, bias, stride=1, padding=1)
        got = conv2d(x, spec)
        want = conv2d_reference(x, kernel, bias, 1, 1, 1)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_identity_kernel(self):
        np.random.seed(0)
        x = np.random.randn(1, 3, 4, 4).astype(np.float32)
        kernel = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for i in range(3):
            kernel[i, i, 1, 1] = 1.0
        spec = ConvSpec(kernel, np.zeros(3, dtype=np.float32), stride=1, padding=1)
        assert np.array_equal(conv2d(x, spec), x)

    def test_known_values_single_channel(self):
        x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
        kernel = np.ones((1, 1, 3, 3), dtype=np.float32)
        spec = ConvSpec(kernel, np.zeros(1, dtype=np.float32), stride=1, padding=0)
        # sum of all nine entries: 0 + 1 + ... + 8 = 36
        assert conv2d(x, spec)[0, 0, 0, 0] == 36.0

    def test_stride_two_output_shape(self):
        x = np.zeros((1, 2, 8, 8), dtype=np.float32)
        kernel = np.zeros((4, 2, 3, 3), dtype=np.float32)
        spec = ConvSpec(kernel, np.zeros(4, dtype=np.float32), stride=2, padding=1)
        assert conv2d(x, spec).shape == (1, 4, 4, 4)

    def test_deterministic_repeat(self):
        np.random.seed(1)
        x = np.random.randn(2, 8, 7, 7).astype(np.float32)
        kernel = np.random.randn(16, 8, 3, 3).astype(np.float32)
        spec = ConvSpec(kernel, np.random.randn(16).astype(np.float32), padding=1)
        a = conv2d(x, spec)
        b = conv2d(x, spec)
        assert np.array_equal(a, b)

    def test_batch_rows_independent(self):
        # Each batch element must see only its own pixels, bit for bit.
        np.random.seed(2)
        x = np.random.randn(4, 6, 5, 5).astype(np.float32)
        kernel = np.random.randn(8, 6, 3, 3).astype(np.float32)
        spec = ConvSpec(kernel, np.random.randn(8).astype(np.float32), padding=1)
        full = conv2d(x, spec)
        for b in range(4):
            single = conv2d(x[b:b + 1], spec)
            assert np.array_equal(full[b:b + 1], single)

    def test_batch_rows_bit_identical_at_network_shapes(self):
        # The GEMM shapes the BLAS sees in the real networks: each row of a
        # batch-8 call equals the batch-1 call on that row, bit for bit.
        rng = np.random.default_rng(6)
        geometries = dense_conv_geometries()
        assert len(geometries) > 10
        for kshape, stride, padding, groups, res in geometries:
            spec = ConvSpec(rng.standard_normal(kshape).astype(np.float32),
                            rng.standard_normal(kshape[0]).astype(np.float32),
                            stride, padding, groups)
            x = rng.standard_normal((8, spec.in_channels, res, res)).astype(np.float32)
            full = conv2d(x, spec)
            for b in range(8):
                assert np.array_equal(full[b:b + 1], conv2d(x[b:b + 1], spec)), (kshape, res, b)

    def test_rejects_channel_mismatch(self):
        x = np.zeros((1, 3, 4, 4), dtype=np.float32)
        spec = ConvSpec(np.zeros((2, 4, 3, 3), dtype=np.float32),
                        np.zeros(2, dtype=np.float32))
        with pytest.raises(ValueError):
            conv2d(x, spec)

    def test_rejects_dtype_mismatch(self):
        x = np.zeros((1, 2, 4, 4), dtype=np.float64)
        spec = ConvSpec(np.zeros((2, 2, 1, 1), dtype=np.float32),
                        np.zeros(2, dtype=np.float32))
        with pytest.raises(ValueError):
            conv2d(x, spec)

    def test_rejects_kernel_larger_than_padded_input(self):
        x = np.zeros((1, 1, 2, 2), dtype=np.float32)
        spec = ConvSpec(np.zeros((1, 1, 3, 3), dtype=np.float32),
                        np.zeros(1, dtype=np.float32), padding=0)
        with pytest.raises(ValueError):
            conv2d(x, spec)

    def test_rejects_bad_rank(self):
        spec = ConvSpec(np.zeros((1, 1, 3, 3), dtype=np.float32),
                        np.zeros(1, dtype=np.float32), padding=1)
        with pytest.raises(ValueError):
            conv2d(np.zeros((1, 3, 3), dtype=np.float32), spec)


class TestConvSpec:
    def test_rejects_bias_shape(self):
        with pytest.raises(ValueError):
            ConvSpec(np.zeros((4, 2, 3, 3), dtype=np.float32),
                     np.zeros(3, dtype=np.float32))

    def test_rejects_groups_not_dividing(self):
        with pytest.raises(ValueError):
            ConvSpec(np.zeros((4, 2, 3, 3), dtype=np.float32),
                     np.zeros(4, dtype=np.float32), groups=3)

    def test_depthwise_flag(self):
        spec = ConvSpec(np.zeros((6, 1, 3, 3), dtype=np.float32),
                        np.zeros(6, dtype=np.float32), groups=6)
        assert spec.is_depthwise
        assert spec.in_channels == 6


class TestBatchNorm:
    def test_against_elementwise_reference(self):
        np.random.seed(3)
        x = np.random.randn(2, 5, 4, 4).astype(np.float32)
        bn = BNSpec(
            gamma=np.random.rand(5).astype(np.float32) + 0.5,
            beta=np.random.randn(5).astype(np.float32),
            running_mean=np.random.randn(5).astype(np.float32),
            running_var=np.random.rand(5).astype(np.float32) + 0.5,
        )
        got = batchnorm_infer(x, bn)
        want = np.empty_like(x, dtype=np.float64)
        for c in range(5):
            want[:, c] = (x[:, c].astype(np.float64) - bn.running_mean[c]) / np.sqrt(
                np.float64(bn.running_var[c]) + BN_EPS
            ) * bn.gamma[c] + bn.beta[c]
        assert np.max(np.abs(got.astype(np.float64) - want)) < 1e-4

    def test_identity_spec_is_exact(self):
        np.random.seed(4)
        x = np.random.randn(1, 3, 2, 2).astype(np.float32)
        bn = identity_bn(3)
        assert np.allclose(batchnorm_infer(x, bn), x, atol=1e-7)

    def test_rejects_negative_var(self):
        with pytest.raises(ValueError):
            BNSpec(
                gamma=np.ones(2, dtype=np.float32),
                beta=np.zeros(2, dtype=np.float32),
                running_mean=np.zeros(2, dtype=np.float32),
                running_var=np.array([1.0, -0.1], dtype=np.float32),
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            BNSpec(
                gamma=np.ones(2, dtype=np.float32),
                beta=np.zeros(3, dtype=np.float32),
                running_mean=np.zeros(2, dtype=np.float32),
                running_var=np.ones(2, dtype=np.float32),
            )


class TestSoftmax:
    def test_columns_sum_to_one_axis0(self):
        np.random.seed(5)
        m = np.random.randn(6, 9)
        s = softmax(m, axis=0)
        assert np.max(np.abs(s.sum(axis=0) - 1.0)) < 1e-6
        assert np.all(s > 0)

    def test_rows_sum_to_one_axis1(self):
        np.random.seed(6)
        m = np.random.randn(4, 7)
        s = softmax(m, axis=1)
        assert np.max(np.abs(s.sum(axis=1) - 1.0)) < 1e-6

    def test_matches_float64_reference(self):
        np.random.seed(8)
        m = np.random.randn(5, 5).astype(np.float32)
        got = softmax(m, axis=0)
        m64 = m.astype(np.float64)
        e = np.exp(m64 - m64.max(axis=0, keepdims=True))
        want = e / e.sum(axis=0, keepdims=True)
        assert np.max(np.abs(got.astype(np.float64) - want)) < 1e-6

    def test_large_values_stable(self):
        m = np.array([[1000.0, -1000.0], [999.0, -999.0]])
        s = softmax(m, axis=0)
        assert np.all(np.isfinite(s))
        assert np.max(np.abs(s.sum(axis=0) - 1.0)) < 1e-12

    def test_shift_invariance(self):
        np.random.seed(9)
        m = np.random.randn(3, 4)
        assert np.allclose(softmax(m, axis=0), softmax(m + 100.0, axis=0), atol=1e-12)

    def test_stacked_results_equal_per_matrix_results(self):
        # The batched attention relies on this: one stacked call gives each
        # matrix the bits a call on that matrix alone gives.
        rng = np.random.default_rng(11)
        q = rng.standard_normal((4, 16, 49)).astype(np.float32)
        k = rng.standard_normal((4, 16, 49)).astype(np.float32)
        v = rng.standard_normal((4, 8, 49)).astype(np.float32)
        scores = matmul(q.swapaxes(1, 2), k)
        m = softmax(scores, axis=1)
        att = matmul(v, m)
        for b in range(4):
            assert np.array_equal(scores[b], matmul(q[b].T, k[b]))
            assert np.array_equal(m[b], softmax(scores[b], axis=0))
            assert np.array_equal(att[b], matmul(v[b], m[b]))
            assert np.array_equal(softmax(scores, axis=2)[b], softmax(scores[b], axis=1))


class TestElementwise:
    def test_sigmoid_known_values(self):
        assert sigmoid(np.array(0.0)) == 0.5
        assert abs(sigmoid(np.array(2.0)) - 1.0 / (1.0 + np.exp(-2.0))) < 1e-12

    def test_sigmoid_saturates(self):
        assert sigmoid(np.array(50.0)) == pytest.approx(1.0)
        assert sigmoid(np.array(-50.0)) == pytest.approx(0.0, abs=1e-20)

    def test_gelu_known_values(self):
        # gelu(0) = 0; gelu(x) -> x for large x; gelu(-x) large -> 0
        assert gelu(np.array(0.0)) == 0.0
        assert abs(gelu(np.array(10.0)) - 10.0) < 1e-6
        assert abs(gelu(np.array(-10.0))) < 1e-6

    def test_gelu_at_one(self):
        from scipy.special import erf as _erf
        want = 0.5 * 1.0 * (1.0 + _erf(1.0 / np.sqrt(2.0)))
        assert abs(gelu(np.array(1.0)) - want) < 1e-12


class TestShapeOps:
    def test_global_avg_pool(self):
        x = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        got = global_avg_pool(x)
        assert got.shape == (1, 2)
        assert got[0, 0] == pytest.approx((0 + 1 + 2 + 3) / 4.0)
        assert got[0, 1] == pytest.approx((4 + 5 + 6 + 7) / 4.0)

    def test_split_then_concat_roundtrip(self):
        np.random.seed(10)
        x = np.random.randn(2, 10, 3, 3).astype(np.float32)
        parts = [x[:, :2], x[:, 2:5], x[:, 5:]]
        assert [p.shape[1] for p in parts] == [2, 3, 5]
        assert np.array_equal(concat_channels(parts), x)

    def test_concat_rejects_spatial_mismatch(self):
        a = np.zeros((1, 2, 3, 3), dtype=np.float32)
        b = np.zeros((1, 2, 4, 4), dtype=np.float32)
        with pytest.raises(ValueError):
            concat_channels([a, b])

    def test_matmul_known(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(matmul(a, b), a @ b)

    def test_matmul_rejects_inner_mismatch(self):
        with pytest.raises(ValueError):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    @pytest.mark.parametrize("a, b", [((2, 2, 3), (3, 3, 4)), ((2, 3), (2, 3, 4)),
                                      ((3,), (3,)), ((1, 2, 2, 3), (1, 2, 3, 4))])
    def test_matmul_rejects_unequal_stacks(self, a, b):
        with pytest.raises(ValueError):
            matmul(np.zeros(a), np.zeros(b))

    def test_linear_known(self):
        x = np.array([[1.0, 2.0]], dtype=np.float32)
        w = np.array([[3.0, 4.0], [5.0, 6.0]], dtype=np.float32)
        b = np.array([0.5, -0.5], dtype=np.float32)
        got = linear(x, w, b)
        assert np.allclose(got, [[1 * 3 + 2 * 4 + 0.5, 1 * 5 + 2 * 6 - 0.5]])


def gelu_float64(x):
    """The exact GELU evaluated in float64."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))


class TestGelu:
    def test_rejects_non_float_dtypes(self):
        for x in (np.array([1, 2, 3]), np.array([1.0, 2.0], dtype=np.float16),
                  np.array([True]), np.array([1 + 1j])):
            with pytest.raises(ValueError, match="float32 or float64"):
                gelu(x)

    def test_float64_is_the_scipy_formula_bit_for_bit(self):
        x = np.random.default_rng(0).normal(scale=4.0, size=10_000)
        assert np.array_equal(gelu(x), gelu_float64(x))

    def test_float32_within_1e6_on_grid(self):
        x = np.linspace(-10.0, 10.0, 400_001, dtype=np.float32)
        got = gelu(x)
        assert got.dtype == np.float32
        assert np.max(np.abs(got - gelu_float64(x))) < 1e-6

    @pytest.mark.filterwarnings("error")
    def test_float32_within_1e6_for_large_magnitudes(self):
        rng = np.random.default_rng(1)
        mag = 10.0 ** rng.uniform(0.0, 30.0, size=20_000)
        x = (mag * rng.choice([-1.0, 1.0], size=mag.size)).astype(np.float32)
        got = gelu(x)
        assert got.dtype == np.float32
        assert np.max(np.abs(got - gelu_float64(x))) < 1e-6

    @pytest.mark.filterwarnings("error")
    def test_special_values_match_float64(self):
        x = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0])
        want = gelu(x)
        got = gelu(x.astype(np.float32))
        assert np.array_equal(want, [np.inf, 0.0, np.nan, 0.0, 0.0], equal_nan=True)
        assert np.array_equal(got, want.astype(np.float32), equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_zero_dim_input(self):
        got = gelu(np.array(1.0, dtype=np.float32))
        assert got.shape == () and got.dtype == np.float32
        assert abs(float(got) - gelu_float64(1.0)) < 1e-6

    def test_batch_rows_bit_identical_to_batch_one(self):
        # Odd extents, so rows start at every alignment within a SIMD vector.
        x = np.random.default_rng(2).normal(scale=3.0, size=(5, 7, 13, 11)).astype(np.float32)
        full = gelu(x)
        for b in range(x.shape[0]):
            assert np.array_equal(full[b:b + 1], gelu(x[b:b + 1]))

    def test_results_do_not_depend_on_block_layout(self):
        # Compared as bits, so -0.0 against 0.0 or a NaN payload would show.
        def bits(a):
            return np.ascontiguousarray(a).view(np.uint32)

        rng = np.random.default_rng(5)
        # Odd, and more than three 32768-element blocks.
        x = rng.normal(scale=4.0, size=3 * 32768 + 4321).astype(np.float32)
        x[::997] = [np.inf, -np.inf, np.nan, -0.0, 0.0, -20.0] * 17 + [1e-30]
        full = gelu(x)
        # Each element alone (0-d), around every block edge and at random.
        edges = np.concatenate([np.arange(k * 32768 - 9, k * 32768 + 9) for k in (1, 2, 3)])
        for i in np.concatenate([edges, rng.choice(x.size, 300, replace=False)]):
            alone = gelu(x[i][()])
            assert alone.shape == () and bits(alone) == bits(full[i])
        # Every element moved to another block and another vector lane.
        perm = rng.permutation(x.size)
        assert np.array_equal(bits(gelu(x[perm])), bits(full[perm]))
        assert np.array_equal(bits(gelu(x[1:])), bits(full[1:]))
        # Non-contiguous views give the bits of their contiguous copies.
        for view in (x[:-1].reshape(4, -1).T, x[::3], x[5::7][::-1]):
            assert not view.flags.c_contiguous
            got = gelu(view)
            assert got.shape == view.shape
            assert np.array_equal(bits(got), bits(gelu(np.ascontiguousarray(view))))

    def test_float32_emits_no_subnormals(self):
        # A result below float32's smallest normal that is not 0 would
        # reach the next GEMM as a subnormal, which runs many times slower.
        tiny = np.finfo(np.float32).tiny

        def subnormals(y):
            return int(np.count_nonzero((y != 0) & (np.abs(y) < tiny)))

        grid = np.linspace(-1e4, 1e4, 4_000_001, dtype=np.float32)
        assert subnormals(gelu(grid)) == 0
        # Where exp(-x^2 / 2) leaves the normal range, densely.
        assert subnormals(gelu(np.linspace(-30.0, -9.0, 1_000_001, dtype=np.float32))) == 0

        model = build(VARIANTS["s1"], seed=0)
        x = np.random.default_rng(6).standard_normal((1, 3, 224, 224)).astype(np.float32)
        for emb in model.stem[:-1]:
            x = gelu(rep_embed_forward(emb, x))
            assert subnormals(x) == 0


@st.composite
def conv_cases(draw):
    k = draw(st.sampled_from([1, 3]))
    stride = draw(st.sampled_from([1, 2]))
    padding = draw(st.sampled_from([0, 1, 2]))
    kind = draw(st.sampled_from(["dense", "grouped", "depthwise"]))
    n = draw(st.integers(1, 4))
    if kind == "depthwise":
        c = oc = groups = draw(st.integers(1, 4))
    else:
        groups = 1 if kind == "dense" else 2
        c = groups * draw(st.integers(1, 3))
        oc = groups * draw(st.integers(1, 3))
    h = draw(st.integers(max(1, k - 2 * padding), 6))
    w = draw(st.integers(max(1, k - 2 * padding), 6))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, c, h, w, oc, k, stride, padding, groups, seed


class TestConv2dProperties:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(conv_cases())
    def test_matches_reference_and_rows_are_independent(self, case):
        n, c, h, w, oc, k, stride, padding, groups, seed = case
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, h, w))
        kernel = rng.standard_normal((oc, c // groups, k, k))
        bias = rng.standard_normal(oc)
        want = conv2d_reference(x, kernel, bias, stride, padding, groups)
        for dtype in (np.float64, np.float32):
            spec = ConvSpec(kernel.astype(dtype), bias.astype(dtype), stride, padding, groups)
            xd = x.astype(dtype)
            got = conv2d(xd, spec)
            assert got.dtype == dtype and got.shape == want.shape
            if dtype == np.float64:
                assert np.max(np.abs(got - want)) < 1e-10
            else:
                spec64 = ConvSpec(spec.kernel.astype(np.float64), spec.bias.astype(np.float64),
                                  stride, padding, groups)
                exact = conv2d(xd.astype(np.float64), spec64)
                scale = max(1.0, float(np.max(np.abs(exact))))
                assert np.max(np.abs(got - exact)) <= 1e-5 * scale
            for b in range(n):
                assert np.array_equal(got[b:b + 1], conv2d(xd[b:b + 1], spec))


def depthwise_tap_reference(x, kernel, bias, stride, padding):
    """NCHW depthwise convolution summing the taps in row-major order:
    0 + x*k[0, 0] + x*k[0, 1] + ... + x*k[kh-1, kw-1], then + bias."""
    n, c, h, w = x.shape
    kh, kw = kernel.shape[2:]
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, c, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            win = xp[:, :, i:i + stride * (ho - 1) + 1:stride, j:j + stride * (wo - 1) + 1:stride]
            out += win * kernel[:, 0, i, j][None, :, None, None]
    return out + bias[None, :, None, None]


@st.composite
def depthwise_cases(draw):
    k = draw(st.sampled_from([1, 3, 5]))
    padding = draw(st.sampled_from([0, 1, 2]))
    smallest = max(1, k - 2 * padding)
    return dict(
        k=k, stride=draw(st.sampled_from([1, 2])), padding=padding,
        n=draw(st.integers(1, 4)), c=draw(st.integers(1, 6)),
        h=draw(st.integers(smallest, 9)), w=draw(st.integers(smallest, 9)),
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        transposed=draw(st.booleans()), seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestDepthwiseTapOrder:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(depthwise_cases())
    def test_bit_identical_to_row_major_nchw_taps(self, case):
        rng = np.random.default_rng(case["seed"])
        n, c, h, w, k, dtype = (case[key] for key in ("n", "c", "h", "w", "k", "dtype"))
        if case["transposed"]:
            x = rng.standard_normal((n, c, w, h)).astype(dtype).swapaxes(2, 3)
        else:
            x = rng.standard_normal((n, c, h, w)).astype(dtype)
        kernel = rng.standard_normal((c, 1, k, k)).astype(dtype)
        bias = rng.standard_normal(c).astype(dtype)
        spec = ConvSpec(kernel, bias, case["stride"], case["padding"], groups=c)
        assert spec.is_depthwise

        got = conv2d(x, spec)
        want = depthwise_tap_reference(x, kernel, bias, case["stride"], case["padding"])
        assert got.dtype == dtype and got.shape == want.shape
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)
