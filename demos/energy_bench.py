"""
Benchmarking with an energy model
=================================

Latency comes from timed forward passes; power comes from a provider
(a constant wattage here, a recorded trace in the field).  Energy per
image is mean power over throughput, and accuracy per millijoule gives a
single efficiency number.
"""

import numpy as np

from mvt2.bench import (
    BenchConfig,
    PowerProvider,
    compute_eta,
    energy_from_throughput,
    run_bench,
)
from mvt2.model import ModelConfig, build, deploy

# a small stand-in keeps the demo quick; the arithmetic is size-agnostic
config = ModelConfig(depths=(1, 1, 1), dims=(16, 16, 16), ffn_ratio=2,
                     num_classes=100, input_resolution=64)
model = deploy(build(config, seed=0))

plan = BenchConfig(batch_size=4, warmup=2, iters=10, acc_percent=70.0,
                   acc_source="demo placeholder")
report = run_bench(model, plan, PowerProvider.constant(12.5))
print(f"throughput {report.throughput_img_s:.1f} img/s")
print(f"latency mean {report.latency_mean_s * 1e3:.2f} ms, "
      f"median {report.latency_median_s * 1e3:.2f} ms")
print(f"energy {report.e_img_mj:.3f} mJ/image, eta {report.eta_pct_per_mj:.2f} %/mJ")

# the stored energy is exactly reproducible from the report's own fields
again = energy_from_throughput(report.mean_power_w, report.throughput_img_s)
print("report reproducible:", again == report.e_img_mj)

# a power trace: watts ramping 10 -> 30 over one second, averaged by
# trapezoidal integration over the measured window (replayed if shorter)
trace = PowerProvider.trace([(0.0, 10.0), (1.0, 30.0)])
traced = run_bench(model, plan, trace)
print(f"trace mean power {traced.mean_power_w:.2f} W, "
      f"replayed: {traced.metadata['power_trace_replayed']}")

# published-style arithmetic: wattage and throughput determine the rest
e = energy_from_throughput(25.8, 2367.6)
print(f"25.8 W at 2367.6 img/s -> {e:.2f} mJ/image, "
      f"eta {compute_eta(72.7, e):.2f} %/mJ")

# fused networks should not be slower than their training form
train_model = build(config, seed=0)
train_report = run_bench(train_model, plan, PowerProvider.constant(12.5))
print(f"train {train_report.throughput_img_s:.1f} img/s, deploy {report.throughput_img_s:.1f} "
      f"img/s, deploy not slower: {report.throughput_img_s >= train_report.throughput_img_s}")
