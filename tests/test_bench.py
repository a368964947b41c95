import dataclasses
import json

import numpy as np
import pytest

from mvt2.bench import (
    BenchConfig,
    PowerProvider,
    compute_eta,
    compute_throughput,
    energy_from_throughput,
    load_power_trace,
    run_bench,
    variant_name,
)
from mvt2 import weights
from mvt2.model import VARIANTS, build, deploy

from helpers import TINY


class TestPowerProvider:
    def test_constant_mean_is_the_wattage(self):
        p = PowerProvider.constant(25.8)
        mean, replayed = p.mean_over(3.7)
        assert mean == 25.8
        assert replayed is False

    def test_linear_trace_covering_window_averages_endpoints(self):
        # 10 W rising linearly to 30 W over one second: trapezoid gives 20 W
        p = PowerProvider.trace([(0.0, 10.0), (1.0, 30.0)])
        mean, replayed = p.mean_over(1.0)
        assert mean == pytest.approx(20.0, abs=1e-12)
        assert replayed is False

    def test_partial_window_uses_interpolated_endpoint(self):
        p = PowerProvider.trace([(0.0, 10.0), (1.0, 30.0)])
        # over [0, 0.5] the trace runs 10 W to 20 W, mean 15 W
        mean, _ = p.mean_over(0.5)
        assert mean == pytest.approx(15.0, abs=1e-12)

    def test_window_longer_than_trace_replays_and_flags(self):
        p = PowerProvider.trace([(0.0, 10.0), (1.0, 30.0)])
        # 2.5 s window = two full 20 W cycles plus half a cycle at 15 W
        mean, replayed = p.mean_over(2.5)
        expected = (2 * 20.0 + 0.5 * 15.0) / 2.5
        assert mean == pytest.approx(expected, abs=1e-12)
        assert replayed is True

    def test_trace_offset_start_time(self):
        p = PowerProvider.trace([(5.0, 4.0), (7.0, 8.0)])
        mean, _ = p.mean_over(2.0)
        assert mean == pytest.approx(6.0, abs=1e-12)

    def test_rejects_single_sample_trace(self):
        with pytest.raises(ValueError):
            PowerProvider.trace([(0.0, 10.0)])

    def test_rejects_non_increasing_timestamps(self):
        with pytest.raises(ValueError):
            PowerProvider.trace([(0.0, 10.0), (0.0, 20.0)])
        with pytest.raises(ValueError):
            PowerProvider.trace([(1.0, 10.0), (0.5, 20.0)])

    @pytest.mark.parametrize("samples", [
        [(0.0, 10.0), (float("nan"), 20.0), (1.0, 30.0)],
        [(0.0, 10.0), (1.0, 20.0), (float("inf"), 30.0)],
    ], ids=["nan", "inf"])
    def test_rejects_non_finite_timestamps(self, samples):
        with pytest.raises(ValueError, match="finite"):
            PowerProvider.trace(samples)

    def test_rejects_non_positive_watts(self):
        with pytest.raises(ValueError):
            PowerProvider.constant(0.0)
        with pytest.raises(ValueError):
            PowerProvider.trace([(0.0, 10.0), (1.0, -1.0)])

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            PowerProvider(kind="battery", watts=10.0)

    @pytest.mark.parametrize("span", [1e-200, 1e-9])
    def test_mean_over_a_trace_far_shorter_than_the_window(self, span):
        p = PowerProvider.trace([(0.0, 2.0), (span, 2.0)])
        for duration in (1e-5, 1e-3, 0.0123, 0.7, 2.5):
            mean, replayed = p.mean_over(duration)
            assert mean == pytest.approx(2.0) and replayed, duration

    def test_mean_over_rejects_non_positive_window(self):
        p = PowerProvider.constant(5.0)
        with pytest.raises(ValueError):
            p.mean_over(0.0)


class TestTraceFile:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "trace.tsv"
        path.write_text("0.0\t10.0\n0.5\t12.5\n1.0\t30.0\n", encoding="utf-8")
        p = load_power_trace(path)
        assert p.kind == "trace"
        assert p.samples == ((0.0, 10.0), (0.5, 12.5), (1.0, 30.0))

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "trace.tsv"
        path.write_text("0.0\t10.0\n\n1.0\t30.0\n", encoding="utf-8")
        assert len(load_power_trace(path).samples) == 2

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "trace.tsv"
        path.write_text("0.0\t10.0\n1.0 30.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="trace.tsv:2"):
            load_power_trace(path)

    def test_non_numeric_field_rejected(self, tmp_path):
        path = tmp_path / "trace.tsv"
        path.write_text("0.0\tten\n1.0\t30.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_power_trace(path)


class TestEnergyArithmetic:
    def test_one_second_one_watt_one_image_is_1000_mj(self):
        assert energy_from_throughput(1.0, compute_throughput([1.0], 1)) == 1000.0

    # Released measurement rows reproduced from their published wattage,
    # throughput, and accuracy; reported E and eta match within 1.5%.
    @pytest.mark.parametrize(
        "watts,throughput,acc,e_ref,eta_ref",
        [
            (25.8, 2367.6, 72.7, 10.8, 6.67),
            (28.0, 1883.3, 75.1, 14.9, 5.04),
        ],
    )
    def test_published_rows_within_tolerance(self, watts, throughput, acc, e_ref, eta_ref):
        e = energy_from_throughput(watts, throughput)
        assert abs(e - e_ref) / e_ref < 0.015
        eta = compute_eta(acc, e)
        assert abs(eta - eta_ref) / eta_ref < 0.015

    def test_homogeneity_in_power(self):
        base = energy_from_throughput(10.0, 500.0)
        assert energy_from_throughput(20.0, 500.0) == pytest.approx(2 * base, rel=1e-12)

    def test_homogeneity_in_throughput(self):
        base = energy_from_throughput(10.0, 500.0)
        assert energy_from_throughput(10.0, 1000.0) == pytest.approx(base / 2, rel=1e-12)

    def test_non_finite_energy_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            energy_from_throughput(1e308, 1.0)

    def test_throughput_counts_batch(self):
        assert compute_throughput([0.5, 0.5], 4) == 8.0

    def test_empty_latencies_rejected(self):
        with pytest.raises(ValueError):
            compute_throughput([], 1)

    def test_non_positive_latency_rejected(self):
        with pytest.raises(ValueError):
            compute_throughput([0.1, 0.0], 1)

    def test_eta_rejects_non_positive_energy(self):
        with pytest.raises(ValueError):
            compute_eta(70.0, 0.0)

    def test_eta_zero_accuracy_is_zero(self):
        assert compute_eta(0.0, 5.0) == 0.0


class TestRunBench:
    def test_fixed_iteration_report_fields(self):
        model = build(TINY, seed=0)
        cfg = BenchConfig(batch_size=2, warmup=1, iters=3, acc_percent=70.0, acc_source="table")
        report = run_bench(model, cfg, PowerProvider.constant(12.0))
        assert len(report.latencies_s) == 3
        assert all(t > 0 for t in report.latencies_s)
        assert report.mean_power_w == 12.0
        assert report.metadata["mode"] == "train"
        assert report.metadata["variant"] == "custom"
        assert report.metadata["batch_size"] == 2
        assert report.metadata["iterations"] == 3
        assert report.metadata["acc_source"] == "table"
        assert report.eta_pct_per_mj == pytest.approx(70.0 / report.e_img_mj)

    def test_report_energy_reproducible_from_its_own_fields(self):
        model = build(TINY, seed=0)
        report = run_bench(model, BenchConfig(iters=2), PowerProvider.constant(9.0))
        again = energy_from_throughput(report.mean_power_w, report.throughput_img_s)
        assert again == report.e_img_mj

    def test_throughput_consistent_with_latencies(self):
        model = build(TINY, seed=0)
        report = run_bench(model, BenchConfig(batch_size=3, iters=4), PowerProvider.constant(5.0))
        expected = 4 * 3 / sum(report.latencies_s)
        assert report.throughput_img_s == pytest.approx(expected, rel=1e-12)

    def test_latency_summary_statistics(self):
        model = build(TINY, seed=0)
        report = run_bench(model, BenchConfig(iters=5), PowerProvider.constant(5.0))
        lat = report.latencies_s
        assert report.latency_mean_s == pytest.approx(sum(lat) / len(lat), rel=1e-12)
        assert report.latency_median_s == pytest.approx(sorted(lat)[2], rel=1e-12)

    def test_duration_mode_runs_at_least_once(self):
        model = build(TINY, seed=0)
        report = run_bench(model, BenchConfig(duration_s=0.05), PowerProvider.constant(5.0))
        assert len(report.latencies_s) >= 1
        assert report.metadata["iterations"] == len(report.latencies_s)

    def test_deterministic_runs_agree_on_outputs(self):
        model = build(TINY, seed=0)
        cfg = BenchConfig(iters=2)
        a = run_bench(model, cfg, PowerProvider.constant(5.0))
        b = run_bench(model, cfg, PowerProvider.constant(5.0))
        assert a.metadata["output_digest"] == b.metadata["output_digest"]
        assert a.metadata["config_hash"] == b.metadata["config_hash"]

    def test_eta_absent_without_accuracy(self):
        model = build(TINY, seed=0)
        report = run_bench(model, BenchConfig(iters=1), PowerProvider.constant(5.0))
        assert report.eta_pct_per_mj is None

    def test_deploy_mode_recorded(self):
        model = deploy(build(TINY, seed=0))
        report = run_bench(model, BenchConfig(iters=1), PowerProvider.constant(5.0))
        assert report.metadata["mode"] == "deploy"

    def test_trace_replay_flag_lands_in_metadata(self):
        model = build(TINY, seed=0)
        # microsecond-scale trace is far shorter than any real window
        p = PowerProvider.trace([(0.0, 5.0), (1e-6, 5.0)])
        report = run_bench(model, BenchConfig(iters=1), p)
        assert report.metadata["power_trace_replayed"] is True

    def test_report_json_round_trip(self):
        model = build(TINY, seed=0)
        report = run_bench(model, BenchConfig(iters=2), PowerProvider.constant(5.0))
        assert json.loads(report.to_json()) == report.to_dict()


class TestBenchConfig:
    def test_requires_exactly_one_stopping_rule(self):
        with pytest.raises(ValueError):
            BenchConfig()
        with pytest.raises(ValueError):
            BenchConfig(iters=3, duration_s=1.0)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BenchConfig(iters=0)
        with pytest.raises(ValueError):
            BenchConfig(duration_s=0.0)
        with pytest.raises(ValueError):
            BenchConfig(iters=1, batch_size=0)
        with pytest.raises(ValueError):
            BenchConfig(iters=1, warmup=-1)
        with pytest.raises(ValueError):
            BenchConfig(iters=1, acc_percent=101.0)


class TestVariantName:
    def test_named_variants_recognized(self):
        for name, cfg in VARIANTS.items():
            assert variant_name(cfg) == name

    def test_unknown_config_is_custom(self):
        assert variant_name(TINY) == "custom"

    @pytest.mark.parametrize("change", [{"attention": "mdta"}, {"input_resolution": 256},
                                        {"num_classes": 10}],
                             ids=["mdta", "resolution-256", "10-classes"])
    def test_look_alike_of_a_variant_is_custom(self, change):
        """Same depths and dims as s1, but another network."""
        assert variant_name(dataclasses.replace(VARIANTS["s1"], **change)) == "custom"

    def test_loaded_variant_file_keeps_its_name(self, tmp_path):
        path = tmp_path / "s1.mvt2"
        weights.save(deploy(build(VARIANTS["s1"], seed=0)), path)
        assert variant_name(weights.load(path).config) == "s1"
