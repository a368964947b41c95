"""The measured process: it only loads the weight file and runs.

Started by run.py with a JSON config; writes its result as JSON.  Keeping
set-up work (building weights, oracles) out of this process makes its
peak RSS the footprint of loading and running alone.

    python3 perfbench/worker.py CONFIG.json RESULT.json
"""

import json
import os
import sys
from pathlib import Path

import numpy as np

import phases as P
from calib import Calibration, blas_threads
from tracer import Tracer


def main(cfg_path: str, out_path: str) -> int:
    cfg = json.loads(Path(cfg_path).read_text())
    ctx = cfg["ctx"]
    P.import_mvt2(Path(cfg["root"]))
    calib, ledger = Calibration(), P.Ledger()
    tracer = Tracer() if cfg["trace"] else None
    expect = dict(np.load(Path(ctx["run_dir"]) / "expect.npz"))
    lifecycle = ctx["workload"] == "lifecycle"
    form = "train" if lifecycle else P.WORKLOADS[ctx["workload"]]["form"]
    path = ctx[f"{form}_path"]

    setup, model = P.setup_loads(path, ctx["digests"][form], calib, ledger, tracer)
    result = {"setup": setup.to_dict(), "resident": P.resident(model) if model else {},
              "file_mb": os.path.getsize(path) / 2**20}
    if lifecycle:
        model = None
        result["lifecycle"] = P.lifecycle(ctx, expect, calib, ledger, tracer,
                                          seconds=cfg["seconds"], infers=P.LIFECYCLE_INFERS)
    else:
        result["forward"] = P.forward_loop(ctx, model, expect, calib, ledger,
                                           cfg["seconds"], tracer)
    result["peak_rss_mb"] = P.peak_rss_mb()
    if tracer is not None:
        result["trace"] = P.trace_report(tracer, ledger, Path(cfg["spans_path"]))
    result["ledger"] = ledger.to_dict()
    result["blas_threads"] = blas_threads()
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
