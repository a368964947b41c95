import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.special import erf

from mvt2.blocks import (
    QK_DIM,
    MDTABlock,
    RepDWBlock,
    RepEmbedBlock,
    SDTABlock,
    deployed,
    mdta_block_forward,
    mdta_forward,
    rep_dw_block_forward,
    rep_embed_forward,
    sdta_attention_map,
    sdta_block_forward,
    sdta_forward,
)
from mvt2.fusion import RepBranchSpec, fold_bn, fuse, main_conv
from mvt2.model import init_block, init_unit
from mvt2.tensor import BN_EPS, ConvSpec, batchnorm_infer, conv2d, sigmoid

from helpers import identity_bn


def zero_conv(in_c, out_c, k, stride=1, padding=None, groups=1, dtype=np.float32):
    if padding is None:
        padding = k // 2
    return ConvSpec(
        np.zeros((out_c, in_c // groups, k, k), dtype=dtype),
        np.zeros(out_c, dtype=dtype),
        stride=stride, padding=padding, groups=groups,
    )


def zero_ffn(c, ratio=2):
    """The ``expand`` and ``project`` fields of a zero feed-forward."""
    return {
        "expand": RepBranchSpec(zero_conv(c, ratio * c, 1), identity_bn(ratio * c)),
        "project": RepBranchSpec(zero_conv(ratio * c, c, 1), identity_bn(c)),
    }


def conv_ref64(x, kernel, bias, stride, padding, groups):
    """Patch-gather convolution in float64; independent of the engine path."""
    x = x.astype(np.float64)
    kernel = kernel.astype(np.float64)
    n, c, h, w = x.shape
    oc, icg, kh, kw = kernel.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    patches = np.empty((n, c, kh, kw, ho, wo))
    for y in range(ho):
        for z in range(wo):
            patches[:, :, :, :, y, z] = xp[:, :, y * stride:y * stride + kh,
                                           z * stride:z * stride + kw]
    ocg = oc // groups
    out = np.empty((n, oc, ho, wo))
    for g in range(groups):
        out[:, g * ocg:(g + 1) * ocg] = np.einsum(
            "ncijyz,ocij->noyz",
            patches[:, g * icg:(g + 1) * icg], kernel[g * ocg:(g + 1) * ocg],
        )
    return out + bias.astype(np.float64)[None, :, None, None]


def bn_ref64(x, bn):
    s = bn.gamma.astype(np.float64) / np.sqrt(
        bn.running_var.astype(np.float64) + BN_EPS)
    return (x - bn.running_mean.astype(np.float64)[None, :, None, None]) \
        * s[None, :, None, None] + bn.beta.astype(np.float64)[None, :, None, None]


def branch_ref64(x, spec):
    out = bn_ref64(conv_ref64(x, spec.main.kernel, spec.main.bias, spec.main.stride,
                              spec.main.padding, spec.main.groups), spec.main_bn)
    if spec.scale is not None:
        out = out + bn_ref64(conv_ref64(x, spec.scale.kernel, spec.scale.bias,
                                        spec.scale.stride, spec.scale.padding,
                                        spec.scale.groups), spec.scale_bn)
    if spec.identity_bn is not None:
        out = out + bn_ref64(x.astype(np.float64), spec.identity_bn)
    return out


def sdta_block_ref64(block, x):
    """Full attention block in float64: mixer, projection, split, token
    attention, gate, output projection, residual, feed-forward residual."""
    x = x.astype(np.float64)
    n, c, h, w = x.shape
    hw = h * w
    t = branch_ref64(x, block.mixer)
    p = branch_ref64(t, block.proj_p)
    q, k = p[:, :QK_DIM], p[:, QK_DIM:2 * QK_DIM]
    v, u = p[:, 2 * QK_DIM:2 * QK_DIM + c // 4], p[:, 2 * QK_DIM + c // 4:]
    att = np.empty_like(v)
    for b in range(n):
        scores = q[b].reshape(QK_DIM, hw).T @ k[b].reshape(QK_DIM, hw) / 4.0
        e = np.exp(scores)
        m = e / e.sum(axis=0, keepdims=True)
        att[b] = (v[b].reshape(c // 4, hw) @ m).reshape(c // 4, h, w)
    gate = 1.0 / (1.0 + np.exp(-u))
    cat = np.concatenate([att, gate], axis=1)
    y = branch_ref64(cat, block.proj_o)
    x1 = x + y
    hmid = branch_ref64(x1, block.expand)
    act = 0.5 * hmid * (1.0 + erf(hmid / np.sqrt(2.0)))
    y2 = branch_ref64(act, block.project)
    return x1 + y2


class TestRepEmbed:
    def test_all_identity_configuration_passes_input_through(self):
        c = 4
        branch = RepBranchSpec(
            main=zero_conv(c, c, 3),
            main_bn=identity_bn(c),
            scale=zero_conv(c, c, 1),
            scale_bn=identity_bn(c),
            identity_bn=identity_bn(c),
        )
        block = RepEmbedBlock(branch)
        np.random.seed(42)
        x = np.random.randn(2, c, 5, 5).astype(np.float32)
        assert np.array_equal(rep_embed_forward(block, x), x)

    def test_stride2_output_shape(self):
        rng = np.random.default_rng(0)
        block = init_block(RepEmbedBlock, rng, 3, 16, 2)
        x = rng.standard_normal((1, 3, 224, 224)).astype(np.float32)
        assert rep_embed_forward(block, x).shape == (1, 16, 112, 112)

    def test_train_vs_deploy(self):
        rng = np.random.default_rng(1)
        block = init_block(RepEmbedBlock, rng, 8, 12, 2)
        x = rng.standard_normal((2, 8, 14, 14)).astype(np.float32)
        a = rep_embed_forward(block, x)
        b = rep_embed_forward(deployed(block), x)
        assert np.max(np.abs(a - b)) < 1e-4

    def test_rejects_grouped_branch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            RepEmbedBlock(init_unit(rng, RepDWBlock.geometry(8, 2)[0]))


class TestRepDWBlock:
    def test_zero_weights_pure_residual(self):
        c = 6
        mixer = RepBranchSpec(
            main=zero_conv(c, c, 3, groups=c),
            main_bn=identity_bn(c),
            scale=zero_conv(c, c, 1, groups=c),
            scale_bn=identity_bn(c),
        )
        block = RepDWBlock(mixer=mixer, **zero_ffn(c))
        np.random.seed(0)
        x = np.random.randn(1, c, 4, 4).astype(np.float32)
        assert np.array_equal(rep_dw_block_forward(block, x), x)

    def test_shape_preserved(self):
        rng = np.random.default_rng(5)
        block = init_block(RepDWBlock, rng, 128, 2)
        x = rng.standard_normal((2, 128, 14, 14)).astype(np.float32)
        assert rep_dw_block_forward(block, x).shape == (2, 128, 14, 14)

    def test_train_vs_deploy_all_variant_widths(self):
        rng = np.random.default_rng(6)
        for c in (128, 224, 384, 448):
            block = init_block(RepDWBlock, rng, c, 2)
            x = rng.standard_normal((1, c, 7, 7)).astype(np.float32)
            a = rep_dw_block_forward(block, x)
            b = rep_dw_block_forward(deployed(block), x)
            assert np.max(np.abs(a - b)) < 1e-4, c

    def test_rejects_dense_mixer(self):
        rng = np.random.default_rng(7)
        dense = init_block(RepEmbedBlock, rng, 8, 8, 1).branch
        with pytest.raises(ValueError):
            RepDWBlock(mixer=dense, **zero_ffn(8))

    def test_rejects_ffn_width_mismatch(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            RepDWBlock(mixer=init_unit(rng, RepDWBlock.geometry(8, 2)[0]), **zero_ffn(6))


class TestFFN:
    def test_integral_ratio_enforced(self):
        mixer = init_unit(np.random.default_rng(9), RepDWBlock.geometry(4, 2)[0])
        with pytest.raises(ValueError):
            RepDWBlock(
                mixer=mixer,
                expand=RepBranchSpec(zero_conv(4, 6, 1), identity_bn(6)),
                project=RepBranchSpec(zero_conv(6, 4, 1), identity_bn(4)),
            )

    def test_ratio_property(self):
        rng = np.random.default_rng(9)
        for cls in (RepDWBlock, SDTABlock, MDTABlock):
            block = init_block(cls, rng, 8, 3)
            assert block.dims == (8, 3), cls.__name__
            assert block.expand.main.out_channels == 3 * block.channels, cls.__name__


class TestSDTA:
    def test_c320_projection_split(self):
        rng = np.random.default_rng(11)
        block = init_block(SDTABlock, rng, 320, 2)
        assert block.proj_p.main.out_channels == 352
        x = rng.standard_normal((1, 320, 4, 4)).astype(np.float32)
        out = sdta_block_forward(block, x)
        assert out.shape == x.shape

    def test_attention_scale_is_four(self):
        assert float(np.sqrt(QK_DIM)) == 4.0
        rng = np.random.default_rng(12)
        block = init_block(SDTABlock, rng, 8, 2)
        x = rng.standard_normal((1, 8, 3, 3)).astype(np.float32)
        maps = sdta_attention_map(block, x)
        # recompute the map from the block's own projections at scale 4
        from mvt2.fusion import rep_branch_forward
        t = rep_branch_forward(x, block.mixer)
        p = batchnorm_infer(conv2d(t, block.proj_p.main), block.proj_p.main_bn)
        q = p[0, :QK_DIM].reshape(QK_DIM, 9)
        k = p[0, QK_DIM:2 * QK_DIM].reshape(QK_DIM, 9)
        scores = (q.T @ k).astype(np.float64) / 4.0
        e = np.exp(scores - scores.max(axis=0, keepdims=True))
        want = e / e.sum(axis=0, keepdims=True)
        assert np.max(np.abs(maps[0].astype(np.float64) - want)) < 1e-6

    def test_attention_map_column_stochastic(self):
        rng = np.random.default_rng(13)
        block = init_block(SDTABlock, rng, 16, 2)
        x = rng.standard_normal((2, 16, 4, 4)).astype(np.float32)
        maps = sdta_attention_map(block, x)
        assert maps.shape == (2, 16, 16)
        assert np.max(np.abs(maps.sum(axis=1) - 1.0)) < 1e-6

    def test_single_position_attention_is_identity(self):
        rng = np.random.default_rng(14)
        block = init_block(SDTABlock, rng, 8, 2)
        x = rng.standard_normal((1, 8, 1, 1)).astype(np.float32)
        maps = sdta_attention_map(block, x)
        assert np.array_equal(maps, np.ones((1, 1, 1), dtype=np.float32))
        # with M = [[1]] the attended values equal V, so the block reduces
        # to projecting concat(V, sigmoid(U)) and adding the residual
        from mvt2.fusion import rep_branch_forward
        t = rep_branch_forward(x, block.mixer)
        p = batchnorm_infer(conv2d(t, block.proj_p.main), block.proj_p.main_bn)
        v = p[:, 2 * QK_DIM:2 * QK_DIM + 2]
        u = p[:, 2 * QK_DIM + 2:]
        cat = np.concatenate([v, sigmoid(u)], axis=1)
        want = x + batchnorm_infer(conv2d(cat, block.proj_o.main), block.proj_o.main_bn)
        got = sdta_forward(block, x)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_against_float64_reference(self):
        rng = np.random.default_rng(15)
        block = init_block(SDTABlock, rng, 8, 2, dtype=np.float64)
        x = rng.standard_normal((1, 8, 4, 4))
        got = sdta_block_forward(block, x)
        want = sdta_block_ref64(block, x)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_train_vs_deploy_all_variant_widths(self):
        rng = np.random.default_rng(16)
        for c in (320, 448):
            block = init_block(SDTABlock, rng, c, 2)
            x = rng.standard_normal((1, c, 4, 4)).astype(np.float32)
            a = sdta_block_forward(block, x)
            b = sdta_block_forward(deployed(block), x)
            assert np.max(np.abs(a - b)) < 1e-4, c

    def test_attention_map_agrees_across_forms(self):
        rng = np.random.default_rng(20)
        block = init_block(SDTABlock, rng, 8, 2)
        x = rng.standard_normal((2, 8, 3, 3)).astype(np.float32)
        a = sdta_attention_map(block, x)
        b = sdta_attention_map(deployed(block), x)
        assert np.max(np.abs(a - b)) < 1e-5

    def test_rejects_indivisible_channels(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError):
            init_block(SDTABlock, rng, 6, 2)

    def test_rejects_wrong_projection_width(self):
        rng = np.random.default_rng(18)
        block = init_block(SDTABlock, rng, 8, 2)
        with pytest.raises(ValueError):
            SDTABlock(
                mixer=block.mixer,
                proj_p=RepBranchSpec(zero_conv(8, 8 + 31, 1), identity_bn(8 + 31)),
                proj_o=block.proj_o,
                expand=block.expand,
                project=block.project,
            )


class TestMDTA:
    def test_hand_computed_two_channel_case(self):
        c = 2
        # q = k = v = x: qkv kernel stacks three 2x2 identities; depthwise
        # center taps pass through; all BNs exact identities; proj = identity
        qkv_kernel = np.zeros((6, 2, 1, 1), dtype=np.float32)
        for i in range(6):
            qkv_kernel[i, i % 2, 0, 0] = 1.0
        dw_kernel = np.zeros((6, 1, 3, 3), dtype=np.float32)
        dw_kernel[:, 0, 1, 1] = 1.0
        proj_kernel = np.zeros((2, 2, 1, 1), dtype=np.float32)
        proj_kernel[0, 0, 0, 0] = 1.0
        proj_kernel[1, 1, 0, 0] = 1.0
        block = MDTABlock(
            qkv=RepBranchSpec(ConvSpec(qkv_kernel, np.zeros(6, dtype=np.float32)),
                              identity_bn(6)),
            dw=RepBranchSpec(ConvSpec(dw_kernel, np.zeros(6, dtype=np.float32),
                                      padding=1, groups=6), identity_bn(6)),
            proj=RepBranchSpec(ConvSpec(proj_kernel, np.zeros(2, dtype=np.float32)),
                               identity_bn(2)),
            **zero_ffn(2),
        )
        x = np.array([1.0, 2.0], dtype=np.float32).reshape(1, 2, 1, 1)
        got = mdta_forward(block, x)
        # scores = [[1,2],[2,4]] / sqrt(2), softmax per row, mixed = m @ [1,2]
        s = 1.0 / math.sqrt(2.0)
        row0 = np.exp([1 * s, 2 * s])
        row0 /= row0.sum()
        row1 = np.exp([2 * s, 4 * s])
        row1 /= row1.sum()
        mixed0 = row0[0] * 1.0 + row0[1] * 2.0
        mixed1 = row1[0] * 1.0 + row1[1] * 2.0
        want = np.array([1.0 + mixed0, 2.0 + mixed1]).reshape(1, 2, 1, 1)
        assert np.max(np.abs(got.astype(np.float64) - want)) < 1e-6

    def test_row_stochastic_mixing(self):
        # rows of the channel map sum to 1, so mixing constant channels
        # returns the constant
        c = 4
        qkv_kernel = np.zeros((12, 4, 1, 1), dtype=np.float32)
        for i in range(12):
            qkv_kernel[i, i % 4, 0, 0] = 1.0
        dw_kernel = np.zeros((12, 1, 3, 3), dtype=np.float32)
        dw_kernel[:, 0, 1, 1] = 1.0
        proj_kernel = np.zeros((c, c, 1, 1), dtype=np.float32)
        for i in range(c):
            proj_kernel[i, i, 0, 0] = 1.0
        block = MDTABlock(
            qkv=RepBranchSpec(ConvSpec(qkv_kernel, np.zeros(12, dtype=np.float32)),
                              identity_bn(12)),
            dw=RepBranchSpec(ConvSpec(dw_kernel, np.zeros(12, dtype=np.float32),
                                      padding=1, groups=12), identity_bn(12)),
            proj=RepBranchSpec(ConvSpec(proj_kernel, np.zeros(c, dtype=np.float32)),
                               identity_bn(c)),
            **zero_ffn(c),
        )
        x = np.full((1, c, 1, 1), 3.0, dtype=np.float32)
        got = mdta_forward(block, x)
        # every channel mixes constant 3.0 back to 3.0; residual doubles it
        assert np.max(np.abs(got - 6.0)) < 1e-5

    def test_output_finite(self):
        rng = np.random.default_rng(19)
        block = init_block(MDTABlock, rng, 8, 2)
        x = rng.standard_normal((1, 8, 4, 4)).astype(np.float32)
        from mvt2.blocks import mdta_block_forward
        out = mdta_block_forward(block, x)
        assert out.shape == x.shape
        assert np.all(np.isfinite(out))

    def test_param_count_exceeds_sdta_at_equal_width(self):
        rng = np.random.default_rng(20)
        c = 64
        sdta = init_block(SDTABlock, rng, c, 2)
        mdta = init_block(MDTABlock, rng, c, 2)

        def unit_params(units):
            # conv kernel and bias, plus the batch norm's four vectors
            return sum(u.main.kernel.size + u.main.bias.size + 4 * u.main_bn.channels
                       for u in units)

        sdta_attn = unit_params([sdta.proj_p, sdta.proj_o])
        mdta_attn = unit_params([mdta.qkv, mdta.dw, mdta.proj])
        # 4 C^2 dominates 2 C^2 + 32 C
        assert mdta_attn > sdta_attn


class TestConverter:
    def test_fills_every_deploy_field_with_the_fused_unit(self):
        rng = np.random.default_rng(30)
        for block in (init_block(RepEmbedBlock, rng, 8, 16, 2),
                      init_block(RepDWBlock, rng, 8, 2),
                      init_block(SDTABlock, rng, 8, 2)):
            converted = deployed(block)
            for field in fields(block):
                got = getattr(converted, field.name)
                want = fuse(getattr(block, field.name))
                assert isinstance(got, ConvSpec), field.name
                assert np.array_equal(got.kernel, want.kernel), field.name
                assert np.array_equal(got.bias, want.bias), field.name

    def test_single_branch_fuse_is_fold_bn(self):
        block = init_block(RepDWBlock, np.random.default_rng(31), 8, 2)
        got = deployed(block).expand
        want = fold_bn(block.expand.main, block.expand.main_bn)
        assert np.array_equal(got.kernel, want.kernel)
        assert np.array_equal(got.bias, want.bias)

    def test_ablation_block_deploys_to_its_folded_units(self):
        block = init_block(MDTABlock, np.random.default_rng(32), 8, 2, dtype=np.float64)
        converted = deployed(block)
        for field in fields(block):
            got, want = getattr(converted, field.name), fuse(getattr(block, field.name))
            assert np.array_equal(got.kernel, want.kernel), field.name
            assert np.array_equal(got.bias, want.bias), field.name
        x = np.random.default_rng(33).standard_normal((2, 8, 4, 4))
        assert np.max(np.abs(mdta_block_forward(block, x)
                             - mdta_block_forward(converted, x))) < 1e-10


def wrong_geometries(spec, kernels):
    """(what, (in, out, k, stride, groups)) for geometries that differ from
    ``spec``'s in exactly one of the five and still make a valid conv."""
    conv = main_conv(spec)
    in_c, out_c, (k, _), stride, g = (conv.in_channels, conv.out_channels,
                                      conv.kernel_size, conv.stride, conv.groups)
    yield "in", (in_c + g, out_c, k, stride, g)
    yield "out", (in_c, out_c + g, k, stride, g)
    for other in kernels:
        if other != k:
            yield "kernel", (in_c, out_c, other, stride, g)
    yield "stride", (in_c, out_c, k, stride + 2, g)
    yield "groups", (in_c, out_c, k, stride, 1 if g > 1 else 2)


class TestGeometryRows:
    @pytest.mark.parametrize("init", [
        lambda rng: init_block(RepEmbedBlock, rng, 8, 16, 2),
        lambda rng: init_block(RepDWBlock, rng, 8, 3),
        lambda rng: init_block(RepDWBlock, rng, 8, 2),
        lambda rng: init_block(SDTABlock, rng, 8, 2),
        lambda rng: init_block(MDTABlock, rng, 8, 2),
    ], ids=["embed", "ffn", "repdw", "sdta", "mdta"])
    def test_every_unit_is_checked_against_its_row_in_both_forms(self, init):
        """A unit with a wrong in/out width, kernel, stride or groups is
        refused, as a branch group and as a folded conv.  The bad unit is a
        valid conv, so only the block can refuse it."""
        block = init(np.random.default_rng(40))
        for form, kernels in ((block, (1, 3)), (deployed(block), (1, 3, 5))):
            for row in form.geometry(*form.dims):
                field = row.field
                replace(form, **{field: getattr(form, field)})  # the unit as built passes
                for what, (in_c, out_c, k, stride, g) in wrong_geometries(
                        getattr(form, field), kernels):
                    if isinstance(form, RepEmbedBlock) and what in ("in", "out"):
                        continue  # an embedding's widths are its own dims
                    bad = zero_conv(in_c, out_c, k, stride, groups=g)
                    if form is block:
                        bad = RepBranchSpec(bad, identity_bn(out_c))
                    with pytest.raises(ValueError):
                        replace(form, **{field: bad})
                        pytest.fail(f"{row.name or field} accepted a wrong {what}")

    @pytest.mark.parametrize("cls", [RepEmbedBlock, RepDWBlock, SDTABlock, MDTABlock],
                             ids=lambda cls: cls.__name__)
    def test_the_unit_table_lists_every_field_in_order(self, cls):
        """The geometry rows are the one record of a block's units that
        deploy, the model walk, the cost model, file names and init read:
        their fields are the dataclass fields, in order."""
        dims = (8, 16, 2) if cls is RepEmbedBlock else (8, 2)
        assert [row.field for row in cls.geometry(*dims)] == [f.name for f in fields(cls)]

    @pytest.mark.parametrize("cls", [RepEmbedBlock, RepDWBlock, SDTABlock, MDTABlock],
                             ids=lambda cls: cls.__name__)
    def test_channels_is_the_input_width(self, cls):
        dims = (8, 16, 2) if cls is RepEmbedBlock else (8, 2)
        assert init_block(cls, np.random.default_rng(42), *dims).channels == 8

    def test_a_geometry_a_row_short_raises(self, monkeypatch):
        """A unit without a row is neither drawn unchecked nor left unchecked:
        the block is then short of a field, and a block given every field
        refuses rows that are not its fields."""
        block = init_block(RepDWBlock, np.random.default_rng(41), 8, 2)
        full = RepDWBlock.geometry
        monkeypatch.setattr(RepDWBlock, "geometry", staticmethod(lambda c, r: full(c, r)[:-1]))
        with pytest.raises(TypeError):
            init_block(RepDWBlock, np.random.default_rng(41), 8, 2)
        with pytest.raises(ValueError):
            replace(block)
