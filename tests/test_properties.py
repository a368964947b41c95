"""Property tests of fusion and whole-network contracts over randomly
drawn branch groups and configs.

Derandomized and with no example database, so a run is reproducible and
leaves nothing behind."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvt2 import tensor
from mvt2.fusion import RepBranchSpec, fold_bn, fuse, verify_equivalence
from mvt2.model import ModelConfig, build, count, deploy, forward, named_tensors
from mvt2.tensor import BNSpec, ConvSpec

from helpers import random_rep_branch_spec, reference_fold_bn, reference_fuse


@st.composite
def branch_specs(draw):
    """The ``RepBranchSpec`` space: a 1x1 or 3x3 main conv at stride 1 or 2,
    dense, 2-group or depthwise, with or without the scale and the identity
    branch (one-branch groups included), in float32 or float64."""
    kind = draw(st.sampled_from(["dense", "grouped", "depthwise"]))
    stride = draw(st.sampled_from([1, 2]))
    unit = 2 if kind == "grouped" else 1
    in_c = unit * draw(st.integers(1, 4))
    if kind == "depthwise":
        out_c, groups = in_c, in_c
    else:
        out_c, groups = unit * draw(st.integers(1, 4)), unit
    identity = stride == 1 and in_c == out_c and draw(st.booleans())
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return random_rep_branch_spec(
        in_c, out_c, kernel_size=draw(st.sampled_from([1, 3])), stride=stride,
        groups=groups, with_scale=draw(st.booleans()), with_identity=identity, dtype=dtype,
        rng=np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spec=branch_specs(), batch=st.integers(1, 4), hw=st.integers(1, 9),
       seed=st.integers(0, 2**16))
def test_fusion_is_equivalent_and_on_the_grid_rule(spec, batch, hw, seed):
    """``fuse`` computes the train form's function on the main conv's grid,
    and its bytes are those of the reference fuser's arithmetic."""
    tol = 1e-4 if spec.main.dtype == np.float32 else 1e-10
    report = verify_equivalence([spec], samples=2, tol=tol, input_hw=hw, batch=batch,
                                seed=seed)[0]
    assert report["pass"], report
    m, got, want = spec.main, fuse(spec), reference_fuse(spec)
    assert (got.kernel.shape, got.kernel.dtype, got.bias.shape, got.bias.dtype,
            got.stride, got.padding, got.groups) == (
        m.kernel.shape, m.dtype, (m.out_channels,), m.dtype, m.stride, m.padding, m.groups)
    assert got.kernel.tobytes() == want.kernel.tobytes()
    assert got.bias.tobytes() == want.bias.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fuse_turns_negative_zero_taps_positive(dtype):
    """A -0.0 tap of the main fold comes out +0.0 from a multi-branch group,
    as from a sum from zero, off the centre and on it; a one-branch group
    is its fold, -0.0 taps and all."""
    spec = random_rep_branch_spec(4, 4, groups=2, dtype=dtype, rng=np.random.default_rng(3))
    spec.main.kernel[:, :, 0, :] = -0.0  # a whole row of off-centre taps
    spec.main.kernel[:, :, 1, 1] = -0.0
    spec.scale.kernel[0] = -0.0  # the scale fold is -0.0 at channel 0's centre
    spec.identity_bn.gamma[0] = -0.0  # and so is the identity fold
    assert np.signbit(fold_bn(spec.main, spec.main_bn).kernel[:, :, 0, :]).all()
    got = fuse(spec)
    assert got.kernel.tobytes() == reference_fuse(spec).kernel.tobytes()
    assert not np.signbit(got.kernel[:, :, 0, :]).any()
    assert got.kernel[0, 0, 1, 1] == 0 and not np.signbit(got.kernel[0, 0, 1, 1])
    alone = RepBranchSpec(spec.main, spec.main_bn)
    assert np.signbit(fuse(alone).kernel[:, :, 0, :]).all()
    assert fuse(alone).kernel.tobytes() == reference_fuse(alone).kernel.tobytes()


def read_only(arr):
    """``arr`` as ``weights.load`` gives a tensor: a view that refuses writes."""
    view = arr.view()
    view.flags.writeable = False
    return view


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["dense", "grouped", "depthwise"]), k=st.sampled_from([1, 3]),
       dtype=st.sampled_from([np.float32, np.float64]), in_per_group=st.integers(1, 4),
       out_per_group=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_fold_bn_rounds_each_weight_once(kind, k, dtype, in_per_group, out_per_group, seed):
    """``fold_bn`` is the float64 fold rounded once to the conv's dtype, bit
    for bit, on read-only inputs."""
    rng = np.random.default_rng(seed)
    groups = {"dense": 1, "grouped": 2, "depthwise": in_per_group}[kind]
    in_c = groups * (1 if kind == "depthwise" else in_per_group)
    out_c = in_c if kind == "depthwise" else groups * out_per_group

    def draw(n, lo=-3.0, hi=3.0):
        # magnitudes over many binades, so the products round in every way
        return read_only((rng.standard_normal(n) * 10.0 ** rng.uniform(lo, hi, n)).astype(dtype))

    conv = ConvSpec(draw((out_c, in_c // groups, k, k)), draw(out_c), padding=k // 2,
                    groups=groups)
    bn = BNSpec(gamma=draw(out_c), beta=draw(out_c), running_mean=draw(out_c),
                running_var=read_only(np.abs(draw(out_c))))
    got = fold_bn(conv, bn)
    want_w, want_b = reference_fold_bn(conv.kernel, conv.bias, bn, dtype)
    assert got.kernel.dtype == got.bias.dtype == dtype
    assert got.kernel.tobytes() == want_w.tobytes()
    assert got.bias.tobytes() == want_b.tobytes()
    assert (got.stride, got.padding, got.groups) == (conv.stride, conv.padding, conv.groups)


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
    models = [model, deploy(model)]
    r = config.input_resolution
    x = np.random.default_rng(seed).standard_normal((batch, 3, r, r)).astype(np.float32)
    for m in models:
        full = forward(m, x)
        for b in range(batch):
            assert np.array_equal(full[b:b + 1], forward(m, x[b:b + 1])), (m.mode, b)


# MACs per call of each ``tensor`` kernel that multiplies, from its output
# and its arguments.  Block forwards look these up on the module at each
# call (``autodiff.kernels``), so wrapping them there sees every call.
KERNEL_MACS = {
    "conv2d": lambda out, x, spec: out[0].size * spec.kernel[0].size,
    "batchnorm_infer": lambda out, x, bn: out[0].size,
    "matmul": lambda out, a, b: out[0].size * a.shape[-1],
}


def forward_macs(model, x):
    """The MACs a forward of the one-image batch ``x`` runs: its conv,
    batch-norm and matmul calls, plus the classifier's product."""
    calls = [model.head_weight.size]

    def counted(kernel, macs):
        def run(*args, **kwargs):
            out = kernel(*args, **kwargs)
            calls.append(macs(out, *args))
            return out
        return run

    with pytest.MonkeyPatch.context() as mp:
        for name, macs in KERNEL_MACS.items():
            mp.setattr(tensor, name, counted(getattr(tensor, name), macs))
        forward(model, x)
    return sum(calls)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(config=small_configs(), seed=st.integers(0, 2**16))
def test_count_is_what_a_forward_runs_and_a_model_stores(config, seed):
    """In either form, ``count`` of a config gives the entries of the built
    model and of its deploy, the MACs a batch-1 forward runs and the
    elements the model stores."""
    train = build(config, seed=seed)
    deployed = deploy(train)
    assert count(train, "deploy").entries == count(deployed).entries
    r = config.input_resolution
    x = np.random.default_rng(seed).standard_normal((1, 3, r, r)).astype(np.float32)
    for form, model in (("train", train), ("deploy", deployed)):
        report = count(config, form)
        assert report.entries == count(train, form).entries, form
        assert report.total_macs == forward_macs(model, x), form
        assert report.total_params == sum(a.size for _, a in named_tensors(model)), form
