"""The mvt2 benchmark: s1 at 224x224, four workloads, one command.

    python3 perfbench/run.py --ref-calib-ms MS [--workload NAME|all]
        [--seed N] [--seconds S] [--trace 0|1]

Workloads (closed loop, one caller, one BLAS thread):

- deploy_b1: deploy file, batch 1.  Single-image latency; activations fit
  in L2 and the many small 1x1 convs make per-call overhead count.
- deploy_b4: deploy file, batch 4.  Activations spill out of L2; GELU and
  the dense 3x3 stem convs dominate.
- train_b4: train file, batch 4, the same inputs.  The only forward
  workload that runs batch norm and the multi-branch path.
- lifecycle: ``mvt2 fuse`` -> ``verify-fusion`` -> ``infer`` through
  in-process ``cli.main``: weight files, model building, fusion, and
  convs on hundreds of tiny inputs.

Every workload first builds its train file from ``--seed`` (with a pool of
distinct input images, float64 oracles and batch-1 references), in this
process and untimed.  The forward workloads then run eight lifecycle
cycles here, which make the deploy file and measure ``fuse_s`` and
``verify_s``; the lifecycle workload runs its cycles for ``--seconds``.
The timed part runs in a separate worker process that only loads and runs,
so its peak RSS is that of a user's process.

Times are normalised by a calibration kernel (see calib.py) and read as
time at a machine whose kernel takes ``--ref-calib-ms``; raw wall and
calibration times are reported beside them.  With ``--trace 1`` the run
reports per-layer metrics instead, from spans the tracer (tracer.py) puts
around the program's functions.  The last line of stdout is the result
JSON; the lines before it are a report with the environment record.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SIDE_CYCLES = 8
WORKER_SLACK_S = 120  # worker start-up and set-up, beyond --seconds

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_img_s": "img/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "fuse_s": "s",
    "verify_s": "s",
}


def _per_layer() -> dict:
    units = {}
    for kind in ("dense3x3", "dense1x1", "depthwise"):
        units |= {f"tensor.conv2d.{kind}.self_ms": "ms", f"tensor.conv2d.{kind}.calls": "count",
                  f"tensor.conv2d.{kind}.gmac_s": "GMAC/s"}
    units |= {"tensor.gelu.self_ms": "ms", "tensor.gelu.calls": "count",
              "tensor.gelu.gb_s": "GB/s",
              "tensor.batchnorm_infer.self_ms": "ms", "tensor.batchnorm_infer.calls": "count",
              "tensor.attention.self_ms": "ms", "tensor.head.self_ms": "ms"}
    for f in ("rep_branch_forward", "fold_bn", "fuse", "verify_equivalence"):
        units[f"fusion.{f}.self_ms"] = "ms"
    units |= {"fusion.fold_bn.calls": "count", "blocks.glue.self_ms": "ms"}
    for s in ("stem", "stage1", "down12", "stage2", "down23", "stage3", "head"):
        units |= {f"model.stage.{s}.ms": "ms", f"model.stage.{s}.gmac_s": "GMAC/s"}
    units |= {"model.build.ms": "ms", "model.build.calls": "count", "model.deploy.ms": "ms",
              "model.resident_mb": "MiB", "model.resident_used_share": "ratio",
              "weights.load.self_ms": "ms", "weights.load.file_mb": "MiB",
              "weights.load.skeleton_share": "ratio", "weights.save.self_ms": "ms",
              "cli.fuse.ms": "ms", "cli.verify_fusion.ms": "ms", "cli.infer.ms": "ms",
              "trace.overhead_pct": "%", "env.calib_p50_ms": "ms"}
    return units


PER_LAYER = _per_layer()


def pin_threads():
    """One BLAS/OpenMP thread in this process and the worker, so the one
    caller is the only thread computing.  It is steadier than two threads
    on a shared 2-core host and no slower on s1.  Must run before numpy is
    imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": sys.version, "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": deps.get("blas"), "lapack": deps.get("lapack"),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_count": os.cpu_count(), "seed": seed,
    }


def run_worker(cfg: dict, run_dir: Path) -> dict:
    """Run worker.py to completion (killed after its time allowance)."""
    cfg_path, out_path = run_dir / "worker_cfg.json", run_dir / "worker_out.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(cfg_path), str(out_path)],
                          timeout=cfg["seconds"] + WORKER_SLACK_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    return json.loads(out_path.read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: bool, ref_ms: float) -> dict:
    import numpy as np

    import phases as P
    from calib import Calibration, summarize
    from tracer import Tracer

    load_start = P.load_average()
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}{'-trace' if trace else ''}"
    run_dir = OUT / f"run-{os.getpid()}-{tag}"
    run_dir.mkdir()
    try:
        ledger, calib = P.Ledger(), Calibration()
        ctx = P.prepare(run_dir, workload, seed, ledger)
        side = side_trace = None
        if workload != "lifecycle":
            tracer = Tracer() if trace else None
            expect = dict(np.load(run_dir / "expect.npz"))
            side = P.lifecycle(ctx, expect, calib, ledger, tracer, cycles=SIDE_CYCLES)
            if tracer is not None:
                side_trace = P.trace_report(tracer, ledger, OUT / f"{tag}.lifecycle.spans.jsonl")
        w = run_worker({"root": str(ROOT), "ctx": ctx, "seconds": seconds, "trace": trace,
                        "spans_path": str(OUT / f"{tag}.spans.jsonl")}, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    def norm(t):
        return summarize(t, ref_ms)

    life = w.get("lifecycle") or side
    timings = {"setup_load": norm(w["setup"]),
               "fuse": norm(life["timings"]["fuse"]),
               "verify": norm(life["timings"]["verify"])}
    if workload == "lifecycle":
        timings["request"] = norm(life["timings"]["infer"])
        images = timings["request"]["n"]
    else:
        timings["request"] = norm(w["forward"]["timings"])
        images = timings["request"]["n"] * w["forward"]["images"]
    attempted = ledger.attempted + w["ledger"]["attempted"]
    failed = ledger.failed + w["ledger"]["failed"]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "ref_calib_ms": ref_ms, "attempted": attempted, "failed": failed,
        "ops_failed_share": {"value": failed / attempted, "unit": "ratio"},
        "errors": ledger.errors + w["ledger"]["errors"],
        "timings": timings,
        "wait_time": "not recorded: closed loop with one caller and no queues, so nothing waits",
        "environment": {**environment(seed), "blas_threads": w["blas_threads"],
                        "loadavg_start": load_start, "loadavg_end": P.load_average()},
    }
    if trace:
        metrics, report["trace"] = layer_report(w, side_trace, life, ref_ms, workload)
    else:
        req = timings["request"]
        values = {
            "latency_p50_ms": req["normalised_p50_ms"],
            "latency_p90_ms": req["normalised_tail_ms"],
            "throughput_img_s": images / req["normalised_total_s"],
            "setup_s": timings["setup_load"]["normalised_p50_ms"] / 1e3,
            "peak_rss_mb": w["peak_rss_mb"],
            "fuse_s": timings["fuse"]["normalised_p50_ms"] / 1e3,
            "verify_s": timings["verify"]["normalised_p50_ms"] / 1e3,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    report["metrics"] = metrics
    return report


def layer_report(w: dict, side_trace, life, ref_ms: float, workload: str):
    """Per-layer metrics.  A name takes its value from the workload's own
    timed phase where the layer occurs there, else from the lifecycle cycles
    that made the deploy file; the sources are reported."""
    from calib import summarize

    main = dict(w["trace"]["layers"])
    main.update(w["resident"])
    main["weights.load.file_mb"] = w["file_mb"]
    if workload == "lifecycle":
        cyc = life["cycle_ratio"]
        overhead = statistics.median(cyc["traced"]) / statistics.median(cyc["plain"])
        calib_ms = summarize(life["timings"]["infer"], ref_ms)["calib_p50_ms"]
    else:
        f = w["forward"]
        overhead = (summarize(f["traced_timings"], ref_ms)["ratio_p50"]
                    / summarize(f["timings"], ref_ms)["ratio_p50"])
        calib_ms = summarize(f["timings"], ref_ms)["calib_p50_ms"]
    main["trace.overhead_pct"] = (overhead - 1) * 100
    main["env.calib_p50_ms"] = calib_ms
    side = side_trace["layers"] if side_trace else {}
    sources, metrics = {}, {}
    for name, unit in PER_LAYER.items():
        if name in main:
            value, sources[name] = main[name], "timed phase"
        elif name in side:
            value, sources[name] = side[name], "lifecycle cycles before the timed phase"
        else:
            value, sources[name] = 0.0, "absent"
        metrics[name] = {"value": value, "unit": unit}
    info = {"coverage": w["trace"]["coverage"], "spans": w["trace"]["spans"],
            "spans_path": w["trace"]["spans_path"],
            "side_spans_path": side_trace["spans_path"] if side_trace else None,
            "sources": sources,
            "note": "gb_s counts bytes computed from tensor sizes (read + write), not measured"}
    return metrics, info


def main(argv=None) -> int:
    import phases as P

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*P.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=P.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ref-calib-ms", type=float, required=True,
                        help="reference calibration time that normalised times are scaled to")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.ref_calib_ms <= 0:
        parser.error("--seconds and --ref-calib-ms must be positive")
    P.import_mvt2(ROOT)

    names = list(P.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        t0 = time.perf_counter()
        report = run_workload(name, args.seed, args.seconds, bool(args.trace), args.ref_calib_ms)
        report["run_wall_s"] = time.perf_counter() - t0
        print(json.dumps(report, indent=1), flush=True)
        results.append(report)
    metrics = results[0]["metrics"] if len(results) == 1 else {
        f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    pin_threads()
    sys.exit(main())
