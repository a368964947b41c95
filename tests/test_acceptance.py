"""End-to-end acceptance checks.

One test per release criterion, in order, so a verbose run prints one
pass/fail line for each.  Run with ``-s`` to see the measured numbers:

    python3 -m pytest tests/test_acceptance.py -v -s

Criterion 9 is a soft performance expectation: it prints a warning instead
of failing when the machine disagrees.
"""

import time

import numpy as np
import pytest
import scipy.special

from mvt2 import autodiff as ad
from mvt2 import blocks, weights
from mvt2.bench import BenchConfig, PowerProvider, compute_eta, energy_from_throughput, run_bench, speed_check
from mvt2.fusion import random_rep_branch_spec, verify_equivalence
from mvt2.model import (
    VARIANTS,
    build,
    count,
    deploy,
    forward,
    init_rep_dw_block,
    init_sdta_block,
    named_tensors,
)
from mvt2.tensor import BNSpec, ConvSpec, batchnorm_infer, conv2d, softmax

# published budget table: variant -> (params, macs); only s1 is asserted,
# the other rows are printed as measured deviations
PUBLISHED_BUDGETS = {
    "s1": (6.7e6, 250e6),
    "s2": (12.7e6, 407e6),
    "s3": (17.0e6, 676e6),
}


def note(text: str):
    print(f"\n    {text}")


@pytest.fixture(scope="module")
def s1_pair():
    model = build(VARIANTS["s1"], seed=0)
    return model, deploy(model)


def test_criterion_1_fusion_equivalence_on_100_random_specs():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    worst32 = 0.0
    worst64 = 0.0
    for i in range(100):
        groups_pool = {1: (1,), 2: (1, 2), 4: (1, 2, 4), 6: (1, 2, 3, 6), 8: (1, 2, 4, 8)}
        cin = int(rng.choice(list(groups_pool)))
        kernel = int(rng.choice([1, 3]))
        stride = int(rng.choice([1, 2]))
        groups = int(rng.choice(groups_pool[cin]))
        cout = cin if rng.random() < 0.5 else groups * int(rng.integers(1, 4))
        spec = random_rep_branch_spec(
            cin,
            cout,
            kernel_size=kernel,
            stride=stride,
            groups=groups,
            with_scale=bool(rng.random() < 0.8),
            with_identity=bool(rng.random() < 0.8),
            rng=rng,
        )
        r32 = verify_equivalence(spec, samples=5, tol=1e-4, seed=i)
        r64 = verify_equivalence(spec.astype(np.float64), samples=5, tol=1e-10, seed=i)
        worst32 = max(worst32, r32["max_abs_diff"])
        worst64 = max(worst64, r64["max_abs_diff"])
        assert r32["pass"], f"spec {i} exceeded 1e-4 in float32: {r32['max_abs_diff']}"
        assert r64["pass"], f"spec {i} exceeded 1e-10 in float64: {r64['max_abs_diff']}"
    elapsed = time.monotonic() - start
    note(f"criterion 1: worst f32 diff {worst32:.2e}, worst f64 diff {worst64:.2e}, {elapsed:.1f}s")
    assert elapsed < 60


def test_criterion_2_deploy_equivalence_for_all_variants(s1_pair):
    start = time.monotonic()
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 3, 224, 224)).astype(np.float32)
    for name in ("s1", "s2", "s3"):
        if name == "s1":
            train, fused = s1_pair
        else:
            train = build(VARIANTS[name], seed=0)
            fused = deploy(train)
        diff = float(np.max(np.abs(forward(train, x) - forward(fused, x))))
        train_params = count(train).total_params
        fused_params = count(fused).total_params
        note(f"criterion 2: {name} max diff {diff:.2e}, params {train_params} -> {fused_params}")
        assert diff < 1e-3, name
        assert fused_params < train_params, name
    elapsed = time.monotonic() - start
    note(f"criterion 2: total {elapsed:.1f}s")
    assert elapsed < 300


def test_criterion_3_cost_model_against_published_table():
    reports = {name: count(VARIANTS[name], mode="deploy") for name in ("s1", "s2", "s3")}
    for name, report in reports.items():
        ref_p, ref_m = PUBLISHED_BUDGETS[name]
        dp = (report.total_params - ref_p) / ref_p
        dm = (report.total_macs - ref_m) / ref_m
        note(
            f"criterion 3: {name} params {report.total_params/1e6:.2f}M "
            f"({dp:+.1%} vs {ref_p/1e6:.1f}M), macs {report.total_macs/1e6:.1f}M "
            f"({dm:+.1%} vs {ref_m/1e6:.0f}M)"
        )
    s1 = reports["s1"]
    assert abs(s1.total_params - 6.7e6) <= 0.10 * 6.7e6
    assert abs(s1.total_macs - 250e6) <= 0.10 * 250e6
    assert reports["s1"].total_params < reports["s2"].total_params < reports["s3"].total_params
    assert reports["s1"].total_macs < reports["s2"].total_macs < reports["s3"].total_macs
    import dataclasses

    mdta_s2 = count(dataclasses.replace(VARIANTS["s2"], attention="mdta"), mode="train")
    sdta_s2 = count(VARIANTS["s2"], mode="train")
    note(
        f"criterion 3: s2 attention swap macs {sdta_s2.total_macs/1e6:.1f}M -> "
        f"{mdta_s2.total_macs/1e6:.1f}M"
    )
    assert mdta_s2.total_macs > sdta_s2.total_macs


def test_criterion_4_energy_metric_reproduces_published_rows():
    rows = [
        ("s1", 25.8, 2367.6, 72.7, 10.8, 6.67),
        ("s2", 28.0, 1883.3, 75.1, 14.9, 5.04),
    ]
    for name, watts, throughput, acc, e_ref, eta_ref in rows:
        e = energy_from_throughput(watts, throughput)
        eta = compute_eta(acc, e)
        note(f"criterion 4: {name} E {e:.2f} mJ (ref {e_ref}), eta {eta:.2f} (ref {eta_ref})")
        assert abs(e - e_ref) / e_ref < 0.015
        assert abs(eta - eta_ref) / eta_ref < 0.015


def test_criterion_5_attention_structure():
    rng = np.random.default_rng(3)
    for c in (320, 448):
        block = init_sdta_block(rng, c, 2)
        assert block.proj_p.out_channels == c + 32
        x = rng.standard_normal((2, c, 4, 4)).astype(np.float32)
        maps = blocks.sdta_attention_map(block, x)
        assert maps.shape == (2, 16, 16)
        sums = maps.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-6
        y = blocks.sdta_block_forward(block, x)
        assert y.shape == x.shape
        note(f"criterion 5: C={c} column sums within {np.max(np.abs(sums - 1.0)):.1e} of 1")
        # single-position grid: the mixing matrix is [[1]], so attention
        # returns the value channels untouched
        x1 = rng.standard_normal((2, c, 1, 1)).astype(np.float32)
        att, mix, _ = blocks._sdta_attention(block, x1)
        assert mix.shape == (2, 1, 1)
        assert np.all(mix == 1.0)
        mixer, proj_p, _ = block.UNITS
        p = proj_p.forward(block, mixer.forward(block, x1))
        v = p[:, 2 * blocks.QK_DIM:2 * blocks.QK_DIM + c // 4]
        assert att.tobytes() == np.ascontiguousarray(v).tobytes()
    assert blocks.QK_DIM == 16


def test_criterion_6_gradient_checks_for_core_blocks():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 8, 4, 4))
    loss_w = ad.Var(rng.standard_normal(x.shape))
    for label, init, block_forward in (
        ("repdw", init_rep_dw_block, blocks.rep_dw_block_forward),
        ("sdta", init_sdta_block, blocks.sdta_block_forward),
    ):
        block = init(rng, 8, 2, dtype=np.float64)

        def f(v, block_forward=block_forward, block=block):
            return ad.vsum(ad.mul(block_forward(block, v), loss_w))

        err = ad.check_gradient(f, x, eps=1e-5)
        note(f"criterion 6: {label} gradient error {err:.2e}")
        assert err < 1e-4, label
    elapsed = time.monotonic() - start
    note(f"criterion 6: total {elapsed:.1f}s")
    assert elapsed < 120


def test_criterion_7_kernel_reference_oracles():
    rng = np.random.default_rng(11)

    def conv_reference(x, spec):
        n, cin, h, w = x.shape
        cout, cing, kh, kw = spec.kernel.shape
        p, s = spec.padding, spec.stride
        xp = np.zeros((n, cin, h + 2 * p, w + 2 * p), dtype=np.float64)
        xp[:, :, p:p + h, p:p + w] = x
        oh = (h + 2 * p - kh) // s + 1
        ow = (w + 2 * p - kw) // s + 1
        out = np.zeros((n, cout, oh, ow), dtype=np.float64)
        per_group = cout // spec.groups
        for b in range(n):
            for o in range(cout):
                g = o // per_group
                for y in range(oh):
                    for z in range(ow):
                        acc = 0.0
                        for ci in range(cing):
                            for i in range(kh):
                                for j in range(kw):
                                    acc += (
                                        xp[b, g * cing + ci, y * s + i, z * s + j]
                                        * spec.kernel[o, ci, i, j]
                                    )
                        out[b, o, y, z] = acc + spec.bias[o]
        return out

    for cin, cout, k, stride, groups in ((3, 4, 3, 1, 1), (4, 4, 3, 2, 4), (6, 6, 1, 1, 2)):
        spec = ConvSpec(
            kernel=rng.standard_normal((cout, cin // groups, k, k)),
            bias=rng.standard_normal(cout),
            stride=stride,
            padding=k // 2,
            groups=groups,
        )
        x = rng.standard_normal((2, cin, 6, 6))
        diff = float(np.max(np.abs(conv2d(x, spec) - conv_reference(x, spec))))
        assert diff < 1e-10, (cin, cout, k, stride, groups)

    c = 5
    bn = BNSpec(
        gamma=rng.standard_normal(c),
        beta=rng.standard_normal(c),
        running_mean=rng.standard_normal(c),
        running_var=rng.uniform(0.5, 2.0, c),
    )
    x = rng.standard_normal((2, c, 3, 3))
    manual = (x - bn.running_mean[:, None, None]) / np.sqrt(
        bn.running_var[:, None, None] + bn.epsilon
    ) * bn.gamma[:, None, None] + bn.beta[:, None, None]
    assert float(np.max(np.abs(batchnorm_infer(x, bn) - manual))) < 1e-12

    z = rng.standard_normal((7, 9))
    for axis in (0, 1):
        diff = float(np.max(np.abs(softmax(z, axis=axis) - scipy.special.softmax(z, axis=axis))))
        assert diff < 1e-12
    note("criterion 7: conv, batch norm, and softmax match independent references")


def test_criterion_8_determinism_and_serialization(s1_pair, tmp_path):
    again = build(VARIANTS["s1"], seed=0)
    for (name_a, a), (name_b, b) in zip(named_tensors(s1_pair[0]), named_tensors(again)):
        assert name_a == name_b
        assert a.tobytes() == b.tobytes(), name_a

    path = tmp_path / "s1.mvt2"
    weights.save(s1_pair[0], path)
    loaded = weights.load(path)
    stored = dict(named_tensors(s1_pair[0]))
    for name, arr in named_tensors(loaded):
        assert arr.tobytes() == stored[name].tobytes(), name

    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 224, 224)).astype(np.float32)
    first = forward(s1_pair[0], x)
    second = forward(s1_pair[0], x)
    assert first.tobytes() == second.tobytes()
    note("criterion 8: rebuilds, file round-trips, and repeated runs are bit-identical")


def test_criterion_9_deploy_not_slower_soft_check(s1_pair):
    config = BenchConfig(batch_size=4, warmup=1, duration_s=10.0)
    power = PowerProvider.constant(10.0)
    train_report = run_bench(s1_pair[0], config, power)
    deploy_report = run_bench(s1_pair[1], config, power)
    result = speed_check(train_report, deploy_report)
    status = "PASS" if result["deploy_not_slower"] else "WARN"
    note(
        f"criterion 9 [{status}]: train {result['train_throughput_img_s']:.1f} img/s, "
        f"deploy {result['deploy_throughput_img_s']:.1f} img/s"
    )
    if not result["deploy_not_slower"]:
        import warnings

        warnings.warn(
            "deploy form ran slower than train form on this machine; "
            "soft expectation, not a failure"
        )
