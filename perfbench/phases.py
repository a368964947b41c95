"""What the workloads run: input preparation, the lifecycle commands and
the timed forward loop, each with its correctness checks.

Every operation is checked after its timed region and after the
calibration run that follows it; an operation counts as failed when any
check fails or it raises.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import struct
import sys
import time
from pathlib import Path

import numpy as np

from calib import Calibration, Timings
from tracer import Tracer, forward_coverage, layer_metrics

VARIANT = "s1"
RESOLUTION = 224
DEFAULT_SEED = 0
POOL = 8                  # distinct input images per seed
LIFECYCLE_IMAGES = 4      # pool images the lifecycle's infer commands use
LIFECYCLE_INFERS = 4      # infer commands per cycle of the lifecycle workload
ORACLE_TOL = 1e-3         # float32 engine vs float64 oracle, max-abs
FUSION_TOL = 1e-4         # verify-fusion tolerance
VERIFY_SAMPLES = 1        # verify-fusion --samples
FUSABLE_UNITS = 64        # fusable units of s1
GOLDEN_TOL = 1e-6         # float64 oracle vs the stored golden logits
SETUP_LOADS = 9           # setup_s is the median over this many loads
FEW_CALLS_REPEATS = 5     # calibration runs after each set-up load or CLI command
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

WORKLOADS = {
    "deploy_b1": {"form": "deploy", "batch": 1},
    "deploy_b4": {"form": "deploy", "batch": 4},
    "train_b4": {"form": "train", "batch": 4},
    "lifecycle": {"form": "deploy", "batch": 1},
}


def import_mvt2(root: Path):
    """Import mvt2 from ``root/src``; refuse any other copy."""
    src = root / "src"
    sys.path.insert(0, str(src))
    try:
        import mvt2
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import mvt2 from {src}: {exc}")
    if Path(mvt2.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: mvt2 imported from {mvt2.__file__}, not {src}")
    return mvt2


class Ledger:
    """Operations attempted and failed, with the first failures' reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, what: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {'; '.join(problems)}")

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors}


# -- inputs and references -------------------------------------------------

def images(seed: int) -> np.ndarray:
    return np.random.default_rng([seed, 1]).standard_normal(
        (POOL, 3, RESOLUTION, RESOLUTION)).astype(np.float32)


def cast64(obj):
    """A float64 copy of a model: every array of every nested dataclass."""
    if isinstance(obj, np.ndarray):
        return obj.astype(np.float64)
    if isinstance(obj, list):
        return [cast64(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.replace(obj, **{
            f.name: cast64(getattr(obj, f.name)) for f in dataclasses.fields(obj) if f.init})
    return obj


def oracle_logits(model, x: np.ndarray) -> np.ndarray:
    from mvt2 import model as M
    m64 = cast64(model)
    return np.concatenate([M.forward(m64, x[i:i + 4].astype(np.float64))
                           for i in range(0, len(x), 4)])


def reference_logits(model, x: np.ndarray) -> np.ndarray:
    """Batch-1 float32 logits of each image, the bit-exact reference."""
    from mvt2 import model as M
    return np.concatenate([M.forward(model, x[i:i + 1]) for i in range(len(x))])


def tensor_digests(model) -> dict:
    from mvt2 import model as M
    return {name: hashlib.sha256(np.ascontiguousarray(arr, dtype="<f4").tobytes()).hexdigest()
            for name, arr in M.named_tensors(model)}


def file_digests(path) -> dict:
    """Digest of each tensor in a weight file, parsed without mvt2."""
    data = Path(path).read_bytes()
    magic, _, hlen = struct.unpack_from("<4sIQ", data)
    if magic != b"MVT2":
        raise ValueError("bad magic")
    header = json.loads(data[16:16 + hlen])
    payload = memoryview(data)[16 + hlen:]
    return {e["name"]: hashlib.sha256(
        payload[e["byte_offset"]:e["byte_offset"] + e["byte_len"]]).hexdigest()
        for e in header["tensors"]}


def golden_entry(oracle_row: np.ndarray) -> dict:
    top = np.argsort(oracle_row)[::-1][:5]
    return {"top5": [int(i) for i in top], "values": [float(oracle_row[i]) for i in top]}


def golden_problems(form: str, oracle_row: np.ndarray) -> list[str]:
    want = json.loads(GOLDEN_PATH.read_text())[form]
    got = golden_entry(oracle_row)
    if got["top5"] != want["top5"]:
        return [f"golden {form} top-5 {got['top5']} != {want['top5']}"]
    worst = max(abs(a - b) for a, b in zip(got["values"], want["values"]))
    return [f"golden {form} logits differ by {worst:.3g}"] if worst > GOLDEN_TOL else []


def default_seed_oracle(form: str) -> np.ndarray:
    """Float64 oracle logits of the default seed's first image."""
    from mvt2 import model as M
    m = M.build(M.VARIANTS[VARIANT], seed=DEFAULT_SEED)
    if form == "deploy":
        m = M.deploy(m)
    return oracle_logits(m, images(DEFAULT_SEED)[:1])[0]


def prepare(run_dir: Path, workload: str, seed: int, ledger: Ledger) -> dict:
    """Weight file, inputs, oracles, references and expected digests.

    Nothing here is timed.  The oracle is a float64 copy of the in-memory
    model, so it also catches a fault in saving or loading the file.
    """
    from mvt2 import model as M
    from mvt2 import weights as W

    form = WORKLOADS[workload]["form"]
    train = M.build(M.VARIANTS[VARIANT], seed=seed)
    deployed = M.deploy(train)
    train_path = run_dir / "train.mvt2"
    W.save(train, train_path)
    x = images(seed)
    np.save(run_dir / "pool.npy", x)
    for j in range(LIFECYCLE_IMAGES):
        x[j:j + 1].astype("<f4").tofile(run_dir / f"img{j}.raw")

    ref = {"deploy": {"model": deployed, "n": POOL if form == "deploy" else LIFECYCLE_IMAGES}}
    if form == "train":
        ref["train"] = {"model": train, "n": POOL}
    arrays = {}
    for f, r in ref.items():
        arrays[f"oracle_{f}"] = oracle_logits(r["model"], x[:r["n"]])
        arrays[f"ref_{f}"] = reference_logits(r["model"], x[:r["n"]])
    np.savez(run_dir / "expect.npz", **arrays)

    oracle0 = arrays[f"oracle_{form}"][0] if seed == DEFAULT_SEED else default_seed_oracle(form)
    ledger.record("golden", golden_problems(form, oracle0))

    return {
        "workload": workload, "seed": seed, "run_dir": str(run_dir),
        "train_path": str(train_path), "deploy_path": str(run_dir / "deploy.mvt2"),
        "digests": {"train": tensor_digests(train), "deploy": tensor_digests(deployed)},
        "deploy_params": M.count(deployed).total_params,
        "fusable": [name for name, _ in M.fusable_branches(train)],
    }


# -- checks -------------------------------------------------------------

def logit_problems(out: np.ndarray, oracle: np.ndarray, ref: np.ndarray) -> list[str]:
    """Finite, within ORACLE_TOL of the float64 oracle, the oracle's top-1,
    and every row bit-identical to the batch-1 run of its image."""
    if out.shape != oracle.shape:
        return [f"shape {out.shape} != {oracle.shape}"]
    if not np.all(np.isfinite(out)):
        return ["non-finite logits"]
    p = []
    gap = float(np.max(np.abs(out.astype(np.float64) - oracle)))
    if gap > ORACLE_TOL:
        p.append(f"max-abs {gap:.3g} from oracle")
    if np.any(out.argmax(axis=1) != oracle.argmax(axis=1)):
        p.append("top-1 differs from oracle")
    if not np.array_equal(out, ref):
        p.append("not bit-identical to batch-1 reference")
    return p


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_problems(result):
    rc, out, err = result
    if rc != 0:
        return None, [f"exit {rc}: {err.strip()[:200]}"]
    try:
        return json.loads(out), []
    except json.JSONDecodeError:
        return None, ["stdout is not JSON"]


# -- phases -------------------------------------------------------------

def lifecycle(ctx: dict, expect: dict, calib: Calibration, ledger: Ledger,
              tracer: Tracer | None, cycles: int | None = None,
              seconds: float | None = None, infers: int = 1) -> dict:
    """``mvt2 fuse`` -> ``mvt2 verify-fusion`` -> ``mvt2 infer`` (``infers``
    times) through in-process ``cli.main``, for ``cycles`` cycles or for
    ``seconds``.  With a tracer, the first half of the time runs untraced
    and the second half traced."""
    from mvt2 import cli

    train, fused = ctx["train_path"], ctx["deploy_path"]
    kinds = ("fuse", "verify", "infer")
    plain = {k: Timings(calib, FEW_CALLS_REPEATS) for k in kinds}
    traced = {k: Timings(calib, FEW_CALLS_REPEATS) for k in kinds}
    cycle_ratio = {"plain": [], "traced": []}

    def command(kind, what, argv, check):
        if tracer is not None:
            tracer.request_id = f"c{c}.{what}"
        try:
            payload, p = _cli_problems(t[kind].time(run_cli, cli, argv))
            if payload is not None:
                p += check(payload)
        except Exception as exc:  # a failed command is a failed operation
            p = [repr(exc)]
        ledger.record(what, p)

    t0 = time.perf_counter()
    c = 0
    while True:
        elapsed = time.perf_counter() - t0
        if cycles is not None and c >= cycles:
            break
        if seconds is not None and elapsed >= seconds:
            break
        on = tracer is not None and (seconds is None or elapsed >= seconds / 2)
        if on and not tracer.enabled:
            tracer.start()
        t = traced if on else plain
        before = {k: len(t[k].wall) for k in kinds}

        command("fuse", "fuse", ["fuse", "--in", train, "--out", fused],
                lambda r: fuse_problems(r, ctx))
        command("verify", "verify-fusion",
                ["verify-fusion", "--in", train, "--samples", str(VERIFY_SAMPLES),
                 "--tol", str(FUSION_TOL)],
                lambda r: verify_problems(r, ctx))
        for k in range(infers):
            j = (c * infers + k) % LIFECYCLE_IMAGES
            command("infer", f"infer{k}",
                    ["infer", "--model", fused, "--input", str(Path(ctx["run_dir"]) / f"img{j}.raw"),
                     "--shape", f"1,3,{RESOLUTION},{RESOLUTION}", "--topk", "5"],
                    lambda r: infer_problems(r, expect["oracle_deploy"][j], expect["ref_deploy"][j]))

        cycle_ratio["traced" if on else "plain"].append(sum(
            w / cal for k in kinds
            for w, cal in zip(t[k].wall[before[k]:], t[k].cal[before[k]:])))
        c += 1
    if tracer is not None:
        tracer.stop()
    return {"timings": {k: plain[k].to_dict() for k in kinds},
            "traced_timings": {k: traced[k].to_dict() for k in kinds},
            "cycle_ratio": cycle_ratio, "cycles": c}


def fuse_problems(report: dict, ctx: dict) -> list[str]:
    p = []
    if report.get("mode") != "deploy" or report.get("params") != ctx["deploy_params"]:
        p.append(f"unexpected fuse report {report}")
    if file_digests(ctx["deploy_path"]) != ctx["digests"]["deploy"]:
        p.append("fused file tensors differ from in-memory deploy()")
    return p


def verify_problems(report: dict, ctx: dict) -> list[str]:
    p = []
    names = [b["name"] for b in report["blocks"]]
    if report.get("all_pass") is not True:
        p.append("all_pass is not true")
    if names != ctx["fusable"] or len(names) != FUSABLE_UNITS:
        p.append(f"verified {len(names)} units, expected {FUSABLE_UNITS}")
    if any(not (b["pass"] and b["max_abs_diff"] <= FUSION_TOL) for b in report["blocks"]):
        p.append("a unit exceeds the fusion tolerance")
    return p


def infer_problems(payload: dict, oracle: np.ndarray, ref: np.ndarray) -> list[str]:
    try:
        top = payload["topk"][0]
        classes = [e["class"] for e in top]
        logits = np.array([e["logit"] for e in top], dtype=np.float64)
    except (KeyError, IndexError, TypeError):
        return ["malformed infer report"]
    p = []
    want = [int(i) for i in np.argsort(ref)[::-1][:5]]
    if classes != want:
        p.append(f"top-5 {classes} != reference {want}")
    elif not np.array_equal(logits.astype(np.float32), ref[classes]):
        p.append("top-5 logits not bit-identical to reference")
    if not np.all(np.isfinite(logits)):
        p.append("non-finite logits")
    elif classes and classes[0] != int(oracle.argmax()):
        p.append("top-1 differs from oracle")
    elif np.max(np.abs(logits - oracle[classes])) > ORACLE_TOL:
        p.append("top-5 logits differ from oracle")
    return p


def setup_loads(path: str, digests: dict, calib: Calibration, ledger: Ledger,
                tracer: Tracer | None):
    """Load the weight file SETUP_LOADS times; return the timings and the model."""
    from mvt2 import weights as W

    t = Timings(calib, FEW_CALLS_REPEATS)
    if tracer is not None:
        tracer.start()
    model = None
    for i in range(SETUP_LOADS):
        model = None
        if tracer is not None:
            tracer.request_id = f"load{i}"
        try:
            model = t.time(W.load, path)
        except Exception as exc:  # a failed load is a failed operation
            ledger.record("load", [repr(exc)])
            continue
        ledger.record("load", [] if tensor_digests(model) == digests
                      else ["loaded tensors differ from the saved model"])
    if tracer is not None:
        tracer.stop()
    return t, model


def forward_loop(ctx: dict, model, expect: dict, calib: Calibration, ledger: Ledger,
                 seconds: float, tracer: Tracer | None) -> dict:
    """Closed loop, one caller: each forward call starts when the previous
    one and its checks are done.  Batches cycle through the image pool."""
    from mvt2 import model as M

    spec = WORKLOADS[ctx["workload"]]
    form, b = spec["form"], spec["batch"]
    x = np.load(Path(ctx["run_dir"]) / "pool.npy")
    oracle, ref = expect[f"oracle_{form}"], expect[f"ref_{form}"]
    batches = [[(i + r) % POOL for r in range(b)] for i in range(0, POOL, b)]
    inputs = [np.ascontiguousarray(x[idx]) for idx in batches]
    plain, traced = Timings(calib), Timings(calib)
    t0 = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            break
        if tracer is None:
            t = plain
        else:
            if elapsed >= seconds / 2 and not tracer.enabled:
                tracer.start()
            t = traced if tracer.enabled else plain
            tracer.request_id = f"f{i}"
        k = i % len(batches)
        try:
            out = t.time(M.forward, model, inputs[k])
            p = logit_problems(out, oracle[batches[k]], ref[batches[k]])
        except Exception as exc:  # a failed call is a failed operation
            p = [repr(exc)]
        ledger.record("forward", p)
        i += 1
    if tracer is not None:
        tracer.stop()
    return {"timings": plain.to_dict(), "traced_timings": traced.to_dict(), "images": b}


def resident(model) -> dict:
    """Bytes of the distinct arrays reachable from the model, and the share
    of them the model's mode executes."""
    from mvt2 import model as M

    seen = {}

    def walk(o):
        if isinstance(o, np.ndarray):
            seen[id(o)] = o.nbytes
        elif isinstance(o, list):
            for v in o:
                walk(v)
        elif dataclasses.is_dataclass(o) and not isinstance(o, type):
            for f in dataclasses.fields(o):
                walk(getattr(o, f.name))

    walk(model)
    total = sum(seen.values())
    used = sum(a.nbytes for _, a in M.named_tensors(model))
    return {"model.resident_mb": total / 2**20, "model.resident_used_share": used / total}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load_average() -> list[float]:
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def trace_report(tracer: Tracer, ledger: Ledger, path: Path) -> dict:
    """Per-layer metrics, the forward-coverage self-check (an operation of
    its own), and the spans written to ``path``."""
    tracer.write(path)
    cov = forward_coverage(tracer.spans)
    ledger.record("trace coverage", [] if cov["ok"] else [f"coverage {cov}"])
    return {"layers": layer_metrics(tracer.spans), "coverage": cov,
            "spans": len(tracer.spans), "spans_path": str(path)}
