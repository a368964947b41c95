import dataclasses
import json
import warnings

import numpy as np
import pytest

from mvt2 import cli, weights
from mvt2.model import ModelConfig, build, deploy, forward

TINY = ModelConfig(
    depths=(1, 1, 1),
    dims=(8, 8, 8),
    ffn_ratio=2,
    num_classes=10,
    input_resolution=32,
)


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    train = root / "tiny.mvt2"
    dep = root / "tiny_deploy.mvt2"
    model = build(TINY, seed=0)
    weights.save(model, train)
    weights.save(deploy(model), dep)
    return {"root": root, "train": str(train), "deploy": str(dep), "model": model}


def run(capsys, args):
    rc = cli.main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestBuild:
    def test_build_s1_round_trips(self, capsys, tmp_path):
        out = str(tmp_path / "s1.mvt2")
        rc, stdout, _ = run(capsys, ["build", "--variant", "s1", "--seed", "7", "--out", out])
        assert rc == 0
        info = json.loads(stdout)
        assert info["variant"] == "s1"
        assert info["mode"] == "train"
        assert info["params"] > 6e6
        model = weights.load(out)
        assert model.config.dims == (128, 224, 320)

    def test_unknown_variant_is_usage_error(self, capsys, tmp_path):
        rc, _, _ = run(capsys, ["build", "--variant", "s9", "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_missing_subcommand_is_usage_error(self, capsys):
        rc, _, _ = run(capsys, [])
        assert rc == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        rc, _, _ = run(capsys, ["explode"])
        assert rc == 2


class TestFuse:
    def test_fuse_produces_deploy_file(self, capsys, tiny_files, tmp_path):
        out = str(tmp_path / "fused.mvt2")
        rc, stdout, _ = run(capsys, ["fuse", "--in", tiny_files["train"], "--out", out])
        assert rc == 0
        info = json.loads(stdout)
        assert info["mode"] == "deploy"
        fused = weights.load(out)
        assert fused.mode == "deploy"
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
        diff = np.max(np.abs(forward(fused, x) - forward(tiny_files["model"], x)))
        assert diff < 1e-3

    def test_ablation_variant_fuses_and_verifies(self, capsys, tmp_path):
        train, out = str(tmp_path / "mdta.mvt2"), str(tmp_path / "mdta_deploy.mvt2")
        weights.save(build(dataclasses.replace(TINY, attention="mdta"), seed=0), train)
        rc, stdout, _ = run(capsys, ["fuse", "--in", train, "--out", out])
        assert rc == 0 and json.loads(stdout)["mode"] == "deploy"
        assert weights.load(out).mode == "deploy"
        rc, stdout, _ = run(capsys, ["verify-fusion", "--in", train, "--samples", "3"])
        assert rc == 0
        names = [b["name"] for b in json.loads(stdout)["blocks"]]
        assert {"stage3.0.qkv", "stage3.0.dw", "stage3.0.proj"} <= set(names)

    def test_fuse_already_deployed_fails_cleanly(self, capsys, tiny_files, tmp_path):
        out = str(tmp_path / "x.mvt2")
        rc, stdout, stderr = run(capsys, ["fuse", "--in", tiny_files["deploy"], "--out", out])
        assert rc == 1
        assert stdout == ""
        assert "deploy" in stderr

    def test_fuse_missing_file(self, capsys, tmp_path):
        rc, _, _ = run(capsys, ["fuse", "--in", str(tmp_path / "no.mvt2"), "--out", str(tmp_path / "y")])
        assert rc == 3

    def test_fuse_corrupt_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.mvt2"
        bad.write_bytes(b"XXXXgarbage")
        rc, _, _ = run(capsys, ["fuse", "--in", str(bad), "--out", str(tmp_path / "y")])
        assert rc == 4


class TestVerifyFusion:
    def test_fresh_build_passes(self, capsys, tiny_files):
        rc, stdout, _ = run(
            capsys,
            ["verify-fusion", "--in", tiny_files["train"], "--samples", "5", "--tol", "1e-4"],
        )
        assert rc == 0
        report = json.loads(stdout)
        assert report["all_pass"] is True
        assert len(report["blocks"]) == 17
        for block in report["blocks"]:
            assert block["pass"] is True
            assert block["max_abs_diff"] < 1e-4

    def test_impossible_tolerance_fails(self, capsys, tiny_files):
        rc, stdout, _ = run(
            capsys,
            ["verify-fusion", "--in", tiny_files["train"], "--samples", "3", "--tol", "0"],
        )
        assert rc == 1
        assert json.loads(stdout)["all_pass"] is False

    def test_deploy_file_rejected(self, capsys, tiny_files):
        rc, _, _ = run(capsys, ["verify-fusion", "--in", tiny_files["deploy"]])
        assert rc == 1


class TestOutOfRangeFlags:
    @pytest.mark.parametrize("flags", [
        ["verify-fusion", "--samples", "0"],
        ["verify-fusion", "--tol", "-1"],
        ["verify-fusion", "--tol", "nan"],
        ["verify-fusion", "--tol", "inf"],
        ["count", "--variant", "s1", "--resolution", "100"],
        ["count", "--variant", "s1", "--resolution", "0"],
    ])
    def test_usage_error_with_one_line(self, capsys, tiny_files, flags):
        if flags[0] == "verify-fusion":
            flags = flags + ["--in", tiny_files["train"]]
        rc, stdout, stderr = run(capsys, flags)
        assert rc == 2
        assert stdout == ""
        assert stderr.startswith("error: ")
        assert stderr.count("\n") == 1
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("topk", ["0", "-1", "-998"])
    def test_infer_topk_below_one_is_usage_error(self, capsys, tiny_files, topk):
        data = tiny_files["root"] / "topk_input.bin"
        np.zeros((1, 3, 32, 32), dtype="<f4").tofile(data)
        rc, stdout, stderr = run(capsys, [
            "infer", "--model", tiny_files["deploy"], "--input", str(data),
            "--shape", "1,3,32,32", "--topk", topk,
        ])
        assert rc == 2
        assert stdout == ""
        assert stderr.startswith("error: --topk")
        assert stderr.count("\n") == 1


class TestUnopenablePaths:
    """A path that exists but cannot be opened (here a directory) is exit 3."""

    @pytest.mark.parametrize("flags", [
        ["infer", "--model", "{dir}", "--input", "{input}", "--shape", "1,3,32,32"],
        ["bench", "--model", "{dir}", "--iters", "1", "--power", "constant:10"],
        ["bench", "--model", "{deploy}", "--iters", "1", "--power", "trace:{dir}"],
        ["fuse", "--in", "{dir}", "--out", "{out}"],
        ["verify-fusion", "--in", "{dir}"],
        ["fuse", "--in", "{train}", "--out", "{dir}"],
        ["build", "--variant", "s1", "--out", "{dir}"],
    ], ids=["infer-model", "bench-model", "bench-power-trace", "fuse-in",
            "verify-fusion-in", "fuse-out", "build-out"])
    def test_directory_is_unreadable_with_one_line(self, capsys, tiny_files, tmp_path, flags):
        data = tmp_path / "input.bin"
        np.zeros((1, 3, 32, 32), dtype="<f4").tofile(data)
        paths = {"dir": tmp_path, "input": data, "out": tmp_path / "out.mvt2",
                 "train": tiny_files["train"], "deploy": tiny_files["deploy"]}
        rc, stdout, stderr = run(capsys, [f.format(**paths) for f in flags])
        assert rc == 3
        assert stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert "Traceback" not in stderr


class TestCount:
    def test_s1_near_published_budget(self, capsys):
        rc, stdout, _ = run(capsys, ["count", "--variant", "s1"])
        assert rc == 0
        report = json.loads(stdout)
        assert abs(report["total_params"] - 6.7e6) / 6.7e6 < 0.10
        assert abs(report["total_macs"] - 250e6) / 250e6 < 0.10
        assert report["total_params"] == sum(e["params"] for e in report["entries"])
        assert report["total_macs"] == sum(e["macs"] for e in report["entries"])

    def test_resolution_changes_macs_not_params(self, capsys):
        rc, base_out, _ = run(capsys, ["count", "--variant", "s1"])
        base = json.loads(base_out)
        rc, half_out, _ = run(capsys, ["count", "--variant", "s1", "--resolution", "112"])
        half = json.loads(half_out)
        assert half["total_params"] == base["total_params"]
        assert half["total_macs"] < base["total_macs"]

    def test_ablation_attention_costs_more(self, capsys):
        rc, sdta_out, _ = run(capsys, ["count", "--variant", "s2"])
        rc, mdta_out, _ = run(capsys, ["count", "--variant", "s2", "--attention", "mdta"])
        assert json.loads(mdta_out)["total_macs"] > json.loads(sdta_out)["total_macs"]

    def test_train_mode_counts_more_params(self, capsys):
        rc, dep_out, _ = run(capsys, ["count", "--variant", "s1", "--mode", "deploy"])
        rc, train_out, _ = run(capsys, ["count", "--variant", "s1", "--mode", "train"])
        assert json.loads(train_out)["total_params"] > json.loads(dep_out)["total_params"]


class TestInfer:
    def write_input(self, tmp_path, shape, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape).astype("<f4")
        path = tmp_path / "x.raw"
        x.tofile(path)
        return str(path), x

    def test_logits_match_direct_forward(self, capsys, tiny_files, tmp_path):
        path, x = self.write_input(tmp_path, (2, 3, 32, 32))
        rc, stdout, _ = run(
            capsys,
            ["infer", "--model", tiny_files["train"], "--input", path,
             "--shape", "2,3,32,32", "--topk", "3"],
        )
        assert rc == 0
        result = json.loads(stdout)
        scores = forward(tiny_files["model"], x)
        assert len(result["topk"]) == 2
        for row, entries in zip(scores, result["topk"]):
            assert len(entries) == 3
            assert entries[0]["class"] == int(np.argmax(row))
            logits = [e["logit"] for e in entries]
            assert logits == sorted(logits, reverse=True)
            assert logits[0] == pytest.approx(float(np.max(row)), rel=1e-6)

    def test_wrong_element_count_is_shape_error(self, capsys, tiny_files, tmp_path):
        path, _ = self.write_input(tmp_path, (1, 3, 16, 16))
        rc, _, _ = run(
            capsys,
            ["infer", "--model", tiny_files["train"], "--input", path, "--shape", "1,3,32,32"],
        )
        assert rc == 5

    def test_resolution_not_multiple_of_16_is_shape_error(self, capsys, tiny_files, tmp_path):
        path, _ = self.write_input(tmp_path, (1, 3, 30, 30))
        rc, _, _ = run(
            capsys,
            ["infer", "--model", tiny_files["train"], "--input", path, "--shape", "1,3,30,30"],
        )
        assert rc == 5

    def test_wrong_channel_count_is_shape_error(self, capsys, tiny_files, tmp_path):
        path, _ = self.write_input(tmp_path, (1, 4, 32, 32))
        rc, _, _ = run(
            capsys,
            ["infer", "--model", tiny_files["train"], "--input", path, "--shape", "1,4,32,32"],
        )
        assert rc == 5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_input_is_shape_error(self, capsys, tiny_files, tmp_path, bad):
        x = np.zeros((1, 3, 32, 32), dtype="<f4")
        x[0, 1, 3, 4] = bad
        path = tmp_path / "x.raw"
        x.tofile(path)
        rc, stdout, err = run(
            capsys,
            ["infer", "--model", tiny_files["deploy"], "--input", str(path), "--shape", "1,3,32,32"],
        )
        assert rc == 5
        assert stdout == ""
        assert err == "error: input holds a NaN or infinite value\n"

    def test_shape_whose_int64_product_wraps_is_shape_error(self, capsys, tiny_files, tmp_path):
        # the four extents multiply to 3072 modulo 2**64
        path, _ = self.write_input(tmp_path, (1, 3, 32, 32))
        rc, stdout, stderr = run(
            capsys,
            ["infer", "--model", tiny_files["train"], "--input", path,
             "--shape", "262145,68719214593,1,3072"],
        )
        assert rc == 5
        assert stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1

    def test_malformed_shape_is_usage_error(self, capsys, tiny_files, tmp_path):
        path, _ = self.write_input(tmp_path, (1, 3, 32, 32))
        rc, _, _ = run(
            capsys,
            ["infer", "--model", tiny_files["train"], "--input", path, "--shape", "3,32,32"],
        )
        assert rc == 2

    def test_missing_input_file(self, capsys, tiny_files, tmp_path):
        rc, _, _ = run(
            capsys,
            ["infer", "--model", tiny_files["train"], "--input", str(tmp_path / "no.raw"),
             "--shape", "1,3,32,32"],
        )
        assert rc == 3


class TestBench:
    def test_report_written_and_printed(self, capsys, tiny_files, tmp_path):
        out = tmp_path / "report.json"
        rc, stdout, _ = run(
            capsys,
            ["bench", "--model", tiny_files["deploy"], "--batch", "2", "--iters", "3",
             "--power", "constant:10", "--acc", "70.0", "--acc-source", "held-out set",
             "--out", str(out)],
        )
        assert rc == 0
        printed = json.loads(stdout)
        on_disk = json.loads(out.read_text())
        assert printed == on_disk
        assert len(printed["latencies_s"]) == 3
        assert printed["mean_power_w"] == 10.0
        assert printed["metadata"]["mode"] == "deploy"
        assert printed["metadata"]["acc_source"] == "held-out set"
        assert printed["eta_pct_per_mj"] == pytest.approx(70.0 / printed["e_img_mj"])

    def test_trace_power_source(self, capsys, tiny_files, tmp_path):
        trace = tmp_path / "p.tsv"
        trace.write_text("0.0\t10.0\n100.0\t10.0\n", encoding="utf-8")
        rc, stdout, _ = run(
            capsys,
            ["bench", "--model", tiny_files["deploy"], "--iters", "2",
             "--power", f"trace:{trace}"],
        )
        assert rc == 0
        report = json.loads(stdout)
        assert report["mean_power_w"] == pytest.approx(10.0)
        assert report["eta_pct_per_mj"] is None

    def test_non_finite_logits_fail_with_one_error_line(self, capsys, tmp_path):
        model = build(TINY, seed=0)
        model.stage1[0].mixer.main.kernel[...] = np.finfo(np.float32).max
        path = str(tmp_path / "huge.mvt2")
        weights.save(model, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, stdout, stderr = run(
                capsys,
                ["bench", "--model", path, "--iters", "1", "--warmup", "0",
                 "--power", "constant:5"],
            )
        assert rc == 1
        assert stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert "NaN or infinite" in stderr

    def test_unwritable_out_fails_before_the_timed_run(self, capsys, tiny_files, tmp_path,
                                                       monkeypatch):
        def no_run(*args):
            raise AssertionError("run_bench reached with an unwritable --out")

        monkeypatch.setattr(cli, "run_bench", no_run)
        rc, stdout, stderr = run(
            capsys,
            ["bench", "--model", tiny_files["deploy"], "--iters", "1",
             "--power", "constant:10", "--out", str(tmp_path)],
        )
        assert rc == 3
        assert stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1

    @pytest.mark.parametrize("stamp", ["nan", "inf"])
    def test_non_finite_trace_timestamp_fails_before_the_timed_run(
        self, capsys, tiny_files, tmp_path, monkeypatch, stamp,
    ):
        def no_run(*args):
            raise AssertionError("run_bench reached with a malformed power trace")

        monkeypatch.setattr(cli, "run_bench", no_run)
        trace = tmp_path / "p.tsv"
        trace.write_text(f"0.0\t10.0\n1.0\t10.0\n{stamp}\t10.0\n", encoding="utf-8")
        rc, stdout, stderr = run(
            capsys,
            ["bench", "--model", tiny_files["deploy"], "--iters", "1",
             "--power", f"trace:{trace}"],
        )
        assert rc == 3
        assert stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1

    def test_iters_and_duration_conflict(self, capsys, tiny_files):
        rc, _, _ = run(
            capsys,
            ["bench", "--model", tiny_files["deploy"], "--iters", "2", "--duration", "1",
             "--power", "constant:10"],
        )
        assert rc == 2

    def test_bad_power_spec(self, capsys, tiny_files):
        rc, _, _ = run(
            capsys,
            ["bench", "--model", tiny_files["deploy"], "--iters", "1", "--power", "volts:3"],
        )
        assert rc == 2

    def test_missing_trace_file(self, capsys, tiny_files, tmp_path):
        rc, _, _ = run(
            capsys,
            ["bench", "--model", tiny_files["deploy"], "--iters", "1",
             "--power", f"trace:{tmp_path / 'no.tsv'}"],
        )
        assert rc == 3


class TestGradcheck:
    @pytest.mark.parametrize("block", ["repdw", "sdta", "mdta"])
    def test_blocks_pass(self, capsys, block):
        rc, stdout, _ = run(
            capsys,
            ["gradcheck", "--block", block, "--channels", "8", "--hw", "4", "--eps", "1e-5"],
        )
        assert rc == 0
        report = json.loads(stdout)
        assert report["pass"] is True
        assert report["error"] < 1e-4

    def test_unknown_block_is_usage_error(self, capsys):
        rc, _, _ = run(capsys, ["gradcheck", "--block", "dense"])
        assert rc == 2

    def test_eps_out_of_range_is_usage_error(self, capsys):
        rc, _, _ = run(
            capsys,
            ["gradcheck", "--block", "repdw", "--channels", "8", "--hw", "4", "--eps", "1"],
        )
        assert rc == 2

    def test_invalid_channel_count_is_usage_error(self, capsys):
        rc, _, _ = run(capsys, ["gradcheck", "--block", "sdta", "--channels", "6"])
        assert rc == 2

    @pytest.mark.parametrize("block", ["repdw", "sdta", "mdta"])
    @pytest.mark.parametrize("flag,value", [
        ("--channels", "0"), ("--channels", "-1"), ("--hw", "0"), ("--hw", "-2"),
    ])
    def test_non_positive_size_is_usage_error_before_build(
        self, capsys, monkeypatch, block, flag, value,
    ):
        def no_build(*args, **kwargs):
            raise AssertionError("a block was built before the flags were checked")

        for name in ("init_rep_dw_block", "init_sdta_block", "init_mdta_block"):
            monkeypatch.setattr(cli, name, no_build)
        rc, stdout, stderr = run(capsys, ["gradcheck", "--block", block, flag, value])
        assert rc == 2
        assert stdout == ""
        assert stderr.startswith(f"error: {flag} ")
        assert stderr.count("\n") == 1
