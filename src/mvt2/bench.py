"""Latency, throughput, and per-image energy measurement.

The harness times repeated forward passes on synthetic input, converts the
timings into throughput, and combines throughput with a mean power figure to
report energy per image in millijoules:

    E_img = 1000 * P_mean / throughput        [mJ/image]
    eta   = accuracy / E_img                  [%/mJ]

Power comes from a ``PowerProvider``, either a constant wattage or a recorded
trace of (seconds, watts) samples integrated with the trapezoidal rule over
the measurement window.  Accuracy is never measured here; callers pass a
top-1 percentage obtained elsewhere, and the report records where it came
from.
"""

import dataclasses
import hashlib
import json
import math
import statistics
import time
from typing import Optional

import numpy as np

from .model import Model, ModelConfig, VARIANTS, forward

POWER_KINDS = ("constant", "trace")


def _positive(value, name: str):
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclasses.dataclass(frozen=True)
class PowerProvider:
    """Source of the mean power draw over a measurement window.

    kind "constant" uses ``watts`` directly.  kind "trace" interpolates the
    (seconds, watts) ``samples`` piecewise linearly and averages by
    trapezoidal integration; a window longer than the trace replays the
    trace cyclically, which ``mean_over`` flags so reports can record it.
    """

    kind: str
    watts: float = 0.0
    samples: tuple = ()

    def __post_init__(self):
        if self.kind not in POWER_KINDS:
            raise ValueError(f"kind must be one of {POWER_KINDS}, got {self.kind!r}")
        if self.kind == "constant":
            _positive(self.watts, "watts")
        else:
            if len(self.samples) < 2:
                raise ValueError("a power trace needs at least two samples")
            prev_t = None
            for t, w in self.samples:
                if not np.isfinite(t):
                    raise ValueError(f"trace timestamps must be finite, got {t!r}")
                if prev_t is not None and t <= prev_t:
                    raise ValueError("trace timestamps must be strictly increasing")
                _positive(w, "trace watts")
                prev_t = t

    @classmethod
    def constant(cls, watts: float) -> "PowerProvider":
        return cls(kind="constant", watts=float(watts))

    @classmethod
    def trace(cls, samples) -> "PowerProvider":
        return cls(kind="trace", samples=tuple((float(t), float(w)) for t, w in samples))

    def mean_over(self, duration: float):
        """Mean power over a window of ``duration`` seconds.

        Returns (mean_watts, replayed) where replayed is True when a trace
        was shorter than the window and wrapped around.  Raises ValueError
        when the trace is too short to count its replays in the window.
        """
        _positive(duration, "duration")
        if self.kind == "constant":
            return self.watts, False
        ts = np.array([t for t, _ in self.samples], dtype=np.float64)
        ws = np.array([w for _, w in self.samples], dtype=np.float64)
        span = float(ts[-1] - ts[0])
        whole = float(np.trapezoid(ws, ts))
        if not math.isfinite(duration / span):
            raise ValueError(f"a power trace spanning {span!r} s cannot tile a "
                             f"{duration!r} s window")
        cycles = int(duration // span)
        # rounding can leave the remainder just outside [0, span]
        rest = min(max(duration - cycles * span, 0.0), span)
        total = cycles * whole + self._partial_integral(ts, ws, float(ts[0]) + rest)
        return total / duration, duration > span

    @staticmethod
    def _partial_integral(ts, ws, t_end: float) -> float:
        # integral of the piecewise-linear trace from ts[0] to t_end <= ts[-1]
        keep = ts <= t_end
        sub_t = ts[keep]
        sub_w = ws[keep]
        if sub_t[-1] < t_end:
            sub_t = np.append(sub_t, t_end)
            sub_w = np.append(sub_w, np.interp(t_end, ts, ws))
        return float(np.trapezoid(sub_w, sub_t))


def load_power_trace(path) -> PowerProvider:
    """Parse a trace file of "seconds<TAB>watts" lines (UTF-8, no header)."""
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'seconds<TAB>watts'")
            try:
                samples.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return PowerProvider.trace(samples)


@dataclasses.dataclass(frozen=True)
class BenchConfig:
    """Measurement plan for one benchmark run.

    Exactly one of ``iters`` (fixed iteration count) or ``duration_s``
    (run until the deadline passes) must be set.  Fixed-count runs are the
    reproducible ones; duration runs stop after whatever number of
    iterations fits.  ``acc_percent`` is an externally supplied top-1
    accuracy used only for the efficiency ratio, with ``acc_source``
    recording its provenance.
    """

    batch_size: int = 1
    warmup: int = 2
    iters: Optional[int] = None
    duration_s: Optional[float] = None
    acc_percent: Optional[float] = None
    acc_source: str = "unspecified"

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        if (self.iters is None) == (self.duration_s is None):
            raise ValueError("set exactly one of iters or duration_s")
        if self.iters is not None and self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.duration_s is not None:
            _positive(self.duration_s, "duration_s")
        if self.acc_percent is not None and not (0 <= self.acc_percent <= 100):
            raise ValueError("acc_percent must be within [0, 100]")


@dataclasses.dataclass
class BenchReport:
    """Everything measured and derived in one run; serializes to JSON."""

    latencies_s: list
    latency_mean_s: float
    latency_median_s: float
    throughput_img_s: float
    mean_power_w: float
    e_img_mj: float
    eta_pct_per_mj: Optional[float]
    metadata: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)


def compute_throughput(latencies_s, batch_size: int) -> float:
    """Images per second: N * B / total measured time."""
    if not latencies_s:
        raise ValueError("latencies_s must be non-empty")
    for t in latencies_s:
        _positive(t, "latency")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    return len(latencies_s) * batch_size / sum(latencies_s)


def energy_from_throughput(mean_power_w: float, throughput_img_s: float) -> float:
    """mJ per image from mean watts and images per second.

    This is the single arithmetic path for the energy figure, so a report's
    stored e_img_mj always equals this function applied to the report's own
    mean_power_w and throughput_img_s fields.  Raises ValueError when the
    figure is not finite, since a report must stay valid JSON.
    """
    _positive(mean_power_w, "mean_power_w")
    _positive(throughput_img_s, "throughput_img_s")
    e_img = 1000.0 * mean_power_w / throughput_img_s
    if not math.isfinite(e_img):
        raise ValueError(f"the energy per image is not finite: {mean_power_w!r} W at "
                         f"{throughput_img_s!r} img/s")
    return e_img


def compute_eta(acc_percent: float, e_img_mj: float) -> float:
    """Efficiency ratio: accuracy percent per millijoule."""
    if acc_percent < 0:
        raise ValueError("acc_percent must be >= 0")
    _positive(e_img_mj, "e_img_mj")
    return acc_percent / e_img_mj


def variant_name(config: ModelConfig) -> str:
    """The name of the variant whose whole config ``config`` is, else "custom"."""
    return next((name for name, ref in VARIANTS.items() if ref == config), "custom")


def config_digest(config: ModelConfig, bench: BenchConfig) -> str:
    blob = json.dumps(
        [dataclasses.asdict(config), dataclasses.asdict(bench)],
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def run_bench(model: Model, config: BenchConfig, power: PowerProvider) -> BenchReport:
    """Time repeated forward passes and assemble the report.

    Input is synthetic standard-normal data shaped by the model's expected
    resolution, seeded 0 so repeated runs see identical data.  Warmup
    iterations run first and are not timed.  Timed passes stop after
    ``iters`` calls, or else at the first one that ends past the
    ``duration_s`` deadline.  The power provider is averaged over the total
    measured time.  Raises ValueError if the last output holds a NaN or an
    infinity.
    """
    res = model.config.input_resolution
    x = np.random.default_rng(0).standard_normal(
        (config.batch_size, 3, res, res)).astype(model.dtype)

    with np.errstate(all="ignore"):
        for _ in range(config.warmup):
            forward(model, x)

        latencies = []
        deadline = time.perf_counter() + (config.duration_s or math.inf)
        while True:
            t0 = time.perf_counter()
            out = forward(model, x)
            latencies.append(time.perf_counter() - t0)
            if len(latencies) == config.iters or time.perf_counter() >= deadline:
                break
    if not np.isfinite(out).all():
        raise ValueError("the model computed a NaN or infinite logit")

    window = sum(latencies)
    mean_power, replayed = power.mean_over(window)
    throughput = compute_throughput(latencies, config.batch_size)
    e_img = energy_from_throughput(mean_power, throughput)
    eta = None
    if config.acc_percent is not None:
        eta = compute_eta(config.acc_percent, e_img)

    metadata = {
        "variant": variant_name(model.config),
        "mode": model.mode,
        "config_hash": config_digest(model.config, config),
        "batch_size": config.batch_size,
        "iterations": len(latencies),
        "warmup": config.warmup,
        "acc_source": config.acc_source,
        "power_kind": power.kind,
        "power_trace_replayed": replayed,
        "output_digest": hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()[:16],
    }
    return BenchReport(
        latencies_s=latencies,
        latency_mean_s=statistics.fmean(latencies),
        latency_median_s=statistics.median(latencies),
        throughput_img_s=throughput,
        mean_power_w=mean_power,
        e_img_mj=e_img,
        eta_pct_per_mj=eta,
        metadata=metadata,
    )
