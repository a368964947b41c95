"""Machine-speed calibration and the statistics the benchmark reports.

Nothing here imports mvt2, so no change to the program can move the
calibration kernel that every measured time is divided by.

Each measured call is followed at once by one run of a fixed kernel (a
float32 GEMM, ``scipy.special.erf`` and ``np.add``: the same kinds of work
the forward pass does).  A call's wall time divided by that calibration
time is a speed-free ratio; the benchmark reports the median ratio times a
reference calibration time, so a metric reads as time on a machine whose
calibration kernel takes exactly that long.  Host contention slows the call
and the calibration alike and cancels in the ratio.
"""

from __future__ import annotations

import ctypes
import math
import statistics
import time

import numpy as np
from scipy.special import erf

# A tail percentile is reported only where at least this many samples lie
# beyond it.
TAIL_BEYOND = 10


class Calibration:
    """The fixed kernel; inputs come from a constant seed, never the workload's."""

    def __init__(self):
        rng = np.random.default_rng(20260517)
        self.a = rng.standard_normal((384, 384)).astype(np.float32)
        self.b = rng.standard_normal((384, 384)).astype(np.float32)
        self.e = rng.standard_normal(400_000).astype(np.float32)

    def run(self) -> float:
        t0 = time.perf_counter()
        c = self.a @ self.b
        g = np.add(self.e, erf(self.e))
        dt = time.perf_counter() - t0
        if not (math.isfinite(float(c[0, 0])) and math.isfinite(float(g[-1]))):
            raise RuntimeError("calibration kernel produced a non-finite value")
        return dt


class Timings:
    """Wall and process-CPU time of each measured call, and the calibration
    time measured right after it: the median of ``repeats`` kernel runs.

    Phases with few calls (set-up loads, lifecycle commands) use several
    repeats, because one 13 ms kernel run varies by about 15%; the forward
    loops have enough calls for one run each.
    """

    def __init__(self, calib: Calibration, repeats: int = 1):
        self.calib = calib
        self.repeats = repeats
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.cal: list[float] = []

    def time(self, fn, *args):
        c0 = time.process_time()
        t0 = time.perf_counter()
        out = fn(*args)
        self.wall.append(time.perf_counter() - t0)
        self.cpu.append(time.process_time() - c0)
        self.cal.append(statistics.median(self.calib.run() for _ in range(self.repeats)))
        return out

    def to_dict(self) -> dict:
        return {"wall": self.wall, "cpu": self.cpu, "cal": self.cal}


def tail_rank(n: int) -> float:
    """Highest percentile, at most the 90th, with TAIL_BEYOND samples beyond it
    (floored at the median for small samples)."""
    return max(0.5, min(0.9, 1.0 - TAIL_BEYOND / n))


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(t: dict, ref_calib_ms: float) -> dict:
    """Raw, calibration and normalised figures for one list of calls (None
    for an empty list).

    ``normalised_*`` values are milliseconds at the reference machine speed.
    """
    wall, cpu, cal = t["wall"], t["cpu"], t["cal"]
    n = len(wall)
    if not n:
        return None
    ratios = [w / c for w, c in zip(wall, cal)]
    q = tail_rank(n)
    p50 = statistics.median(ratios)
    return {
        "n": n,
        "raw_p50_ms": statistics.median(wall) * 1e3,
        "calib_p50_ms": statistics.median(cal) * 1e3,
        "ratio_p50": p50,
        "cpu_over_wall_p50": statistics.median(c / w for c, w in zip(cpu, wall)),
        "tail_percentile": q * 100,
        "tail_beyond": n - max(1, math.ceil(q * n)),
        "normalised_p50_ms": p50 * ref_calib_ms,
        "normalised_tail_ms": max(p50, nearest_rank(ratios, q)) * ref_calib_ms,
        "normalised_total_s": sum(ratios) * ref_calib_ms / 1e3,
        "raw_total_s": sum(wall),
    }


def blas_threads() -> dict:
    """Threads each loaded OpenBLAS library will use, asked of the library."""
    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return out
    for path in sorted(paths):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            out[path.rsplit("/", 1)[-1]] = fn()
            break
    return out
