import contextlib
import dataclasses
import hashlib
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvt2 import cli, weights
from mvt2.model import build, deploy, forward

from helpers import TINY


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

    def test_negative_seed_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "s1.mvt2"
        rc, stdout, err = run(capsys, ["build", "--variant", "s1", "--seed", "-1",
                                       "--out", str(out)])
        assert rc == 2 and stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

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

    def test_deploy_file_error_names_the_form(self, capsys, tiny_files):
        path = tiny_files["deploy"]
        rc, stdout, stderr = run(capsys, ["verify-fusion", "--in", path])
        assert rc == 1 and stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        # the message says why, not only which file: the path itself reads "deploy"
        assert "deploy" in stderr.replace(path, "")


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


class TestOutOfMemory:
    """A command whose input needs more memory than any machine has exits 1
    with one line.  Each request is at least 2 PiB, above the 128 TiB user
    address space, so the allocation fails at once and touches no memory."""

    @pytest.mark.parametrize("flags", [
        ["gradcheck", "--block", "sdta", "--channels", "8", "--hw", "33554432"],
        ["bench", "--model", "{deploy}", "--batch", "100000000000", "--iters", "1",
         "--power", "constant:10"],
        ["bench", "--model", "{huge_resolution}", "--iters", "1", "--power", "constant:10"],
    ], ids=["gradcheck-hw", "bench-batch", "bench-header-resolution"])
    def test_exit_1_with_one_line(self, capsys, tiny_files, tmp_path, flags):
        huge = tmp_path / "huge_resolution.mvt2"
        data = Path(tiny_files["deploy"]).read_bytes()
        header_len = int.from_bytes(data[8:16], "little")
        header = json.loads(data[16:16 + header_len])
        header["config"]["input_resolution"] = 16777216
        text = json.dumps(header).encode("utf-8")
        huge.write_bytes(data[:8] + len(text).to_bytes(8, "little") + text
                         + data[16 + header_len:])
        paths = {"deploy": tiny_files["deploy"], "huge_resolution": huge}
        rc, stdout, stderr = run(capsys, [f.format(**paths) for f in flags])
        assert rc == 1
        assert stdout == ""
        assert stderr == f"error: {flags[0]} needs more memory than there is\n"


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

    # sha256 of the whole stdout of each variant, mode and attention; any
    # change to an entry's name, order, parameters or MACs changes it
    PINNED = {
        ("s1", "train", "sdta"): "7c98cef4f1548c128d1803d38474d0bec77ab697cd16d173ea799bfbe6f057b1",
        ("s1", "train", "mdta"): "d089b7bcaceb3819e5cd3628dff56ef5e0c7b259a097cd61bd4f7f3a1f1cdcaa",
        ("s1", "deploy", "sdta"): "d498af26063e6215f5a15e725dd2a4546274a59554523ddbc98b65ad167a9d03",
        ("s1", "deploy", "mdta"): "4469ec9eace7955b5656f865ca18ea8436d334f4b9f898eaaafab9c7667af1d3",
        ("s2", "train", "sdta"): "49ae47e532d4ff00f21b1ae2c42be9e2979d4e4e0ff508b9a65149a3ef4f755e",
        ("s2", "train", "mdta"): "6b735e5b9d6ce2c68c6fae0ad08a09ad8d641572b41b2ad90873304aaead3645",
        ("s2", "deploy", "sdta"): "4e46be72eacf42a7a7f3f2e20884de7454452e221fcc34d3b87ff269eb62627c",
        ("s2", "deploy", "mdta"): "62b04f7512038097e8162b044dd1b0029ed99a1591ddcdeeac55ec6a75152419",
        ("s3", "train", "sdta"): "3b21a8b4975741cd9ddcc589732e8deabf72100eff3973d206b978224c3b028c",
        ("s3", "train", "mdta"): "dee33b42608d2384a5672aa48d66a78bcb945c2535108309545787ef7efa13f9",
        ("s3", "deploy", "sdta"): "6023153418a33bc6a162c7bcc0fe8cf3a105b91e6d8cfaf1988400c227af54a2",
        ("s3", "deploy", "mdta"): "9ee7576eac7ebe8abac6b4ba06eb887409fb816dbe976708110a42be0bc9d2da",
    }

    @pytest.mark.parametrize("case", sorted(PINNED), ids="-".join)
    def test_stdout_is_pinned(self, capsys, case):
        variant, mode, attention = case
        rc, stdout, _ = run(capsys, ["count", "--variant", variant, "--mode", mode,
                                     "--attention", attention])
        assert rc == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == self.PINNED[case]


class TestVerifyFusionPinned:
    # sha256 of the whole `verify-fusion --samples 3` stdout of the TINY
    # seed-1 train file; any change to a unit's inputs, its fold or its
    # report changes it
    PINNED = {
        "sdta": "b854ea75c724edabed4afb707d88023fd985a43e8a5a8eedbd7401e3b99e5526",
        "mdta": "2e1b68105fd24f9d8ebf5e48b0065c21d18fa6c50577b29a246d1a1dd0626122",
    }

    @pytest.mark.parametrize("attention", sorted(PINNED))
    def test_stdout_is_pinned(self, capsys, tmp_path, attention):
        path = tmp_path / "m.mvt2"
        weights.save(build(dataclasses.replace(TINY, attention=attention), seed=1), path)
        rc, stdout, _ = run(capsys, ["verify-fusion", "--in", str(path), "--samples", "3"])
        assert rc == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == self.PINNED[attention]


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

    @pytest.mark.parametrize("power", ["constant:1e308", "trace:{short_trace}"])
    def test_non_finite_energy_fails_with_one_error_line(self, capsys, tiny_files, tmp_path,
                                                         power):
        """A power draw too large, or a trace too short to tile the measured
        window, leaves no finite energy figure: the run fails and prints no
        report, since stdout must stay JSON."""
        short_trace = tmp_path / "p.tsv"
        short_trace.write_text("0\t1\n5e-324\t1\n", encoding="utf-8")
        rc, stdout, stderr = run(
            capsys,
            ["bench", "--model", tiny_files["deploy"], "--iters", "1",
             "--power", power.format(short_trace=short_trace)],
        )
        assert rc == 1
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

        monkeypatch.setattr(cli, "init_block", no_build)
        rc, stdout, stderr = run(capsys, ["gradcheck", "--block", block, flag, value])
        assert rc == 2
        assert stdout == ""
        assert stderr.startswith(f"error: {flag} ")
        assert stderr.count("\n") == 1


# For each flag of each subcommand, (common values, rare values).  Common
# values are valid; rare ones are out of range, malformed or, for
# --duration, exclusive with --iters.  Paths are placeholders for the
# files of ``fuzz_paths``.
MODELS = ["{train}", "{deploy}"]
OTHER_FILES = ["{raw}", "{short}", "{trace}", "{dir}", "{missing}"]
WRITE = (["{root}/out.mvt2"], ["{dir}", "{missing}/out.mvt2"])
FUZZ_FLAGS = {
    "build": {"--variant": (["s1"], ["s9"]), "--seed": (["0", "3"], ["-1", "x"]),
              "--out": WRITE},
    "fuse": {"--in": (MODELS, OTHER_FILES), "--out": WRITE},
    "verify-fusion": {"--in": (MODELS, OTHER_FILES),
                      "--samples": (["1", "2"], ["0", "-3", "x"]),
                      "--tol": (["1e-4", "0"], ["-1", "nan", "inf", "x"])},
    "count": {"--variant": (["s1", "s2", "s3"], ["s9"]),
              "--resolution": (["32", "224", "4096"], ["0", "-16", "17", "x"]),
              "--mode": (["train", "deploy"], ["both"]),
              "--attention": (["sdta", "mdta"], ["x"])},
    "infer": {"--model": (MODELS, OTHER_FILES), "--input": (["{raw}"], MODELS + OTHER_FILES),
              "--shape": (["1,3,32,32"], ["1,3,16,16", "2,3,32,32", "1,3,32", "0,3,32,32",
                                          "a,b,c,d", "-1,3,32,32", "1,3,99999999999,9"]),
              "--topk": (["1", "5", "20"], ["0", "-2", "x"])},
    "bench": {"--model": (MODELS, OTHER_FILES), "--batch": (["1", "2"], ["0", "-1", "x"]),
              "--iters": (["1", "2"], ["0", "-1"]),
              "--duration": ([], ["0.01", "0", "-1", "nan", "inf"]),
              "--power": (["constant:10", "trace:{trace}"],
                          ["constant:-1", "constant:nan", "constant:1e308",
                           "trace:{bad_trace}", "trace:{short_trace}", "trace:{missing}",
                           "trace:{dir}", "joules:3"]),
              "--warmup": (["0", "1"], ["-1"]), "--acc": (["50"], ["150", "nan"]),
              "--acc-source": (["paper"], []), "--out": WRITE},
    "gradcheck": {"--block": (["repdw", "sdta", "mdta"], ["dense"]),
                  "--channels": (["4", "8"], ["6", "0", "-1"]),
                  "--hw": (["1", "2", "3"], ["0"]),
                  "--eps": (["1e-5", "1e-3"], ["0", "1", "nan", "-1e-5"])},
}


@pytest.fixture(scope="module")
def fuzz_paths(tiny_files):
    root = tiny_files["root"]
    np.random.default_rng(0).standard_normal((1, 3, 32, 32)).astype("<f4").tofile(root / "x.f32")
    (root / "short.f32").write_bytes(bytes(12))
    (root / "power.tsv").write_text("0\t10\n1\t12\n")
    (root / "bad_power.tsv").write_text("0\tnan\nx\n")
    (root / "short_power.tsv").write_text("0\t1\n5e-324\t1\n")
    (root / "a_dir").mkdir(exist_ok=True)
    return {"root": root, "train": tiny_files["train"], "deploy": tiny_files["deploy"],
            "raw": root / "x.f32", "short": root / "short.f32", "trace": root / "power.tsv",
            "bad_trace": root / "bad_power.tsv", "short_trace": root / "short_power.tsv",
            "dir": root / "a_dir", "missing": root / "no_such_dir"}


@st.composite
def cli_argvs(draw):
    """A subcommand with each of its flags absent (one time in eight), set
    to a rare value (two in eight) or to a common one; a flag with no
    values of the drawn kind is left out."""
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv = [command]
    for flag, (common, rare) in FUZZ_FLAGS[command].items():
        kind = draw(st.integers(0, 7))
        values = common if kind > 2 else rare
        if kind > 0 and values:
            argv += [flag, draw(st.sampled_from(values))]
    return argv


def not_json(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(argv=cli_argvs())
def test_random_flags_end_in_a_documented_exit_code(fuzz_paths, argv):
    """Whatever the flags, ``main`` returns an exit code of 0-5 and lets no
    exception escape, stdout is empty or one strict JSON document (no NaN
    or Infinity), and a failing run says why: on stderr, or in a failing
    verify-fusion report."""
    argv = [a.format(**fuzz_paths) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in range(6), (argv, rc, err.getvalue())
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=not_json)
    if rc != 0:
        assert err.getvalue() or (argv[0], rc) == ("verify-fusion", 1), argv
