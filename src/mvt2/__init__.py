"""Inference engine and reparameterization toolkit for a three-stage
reparameterizable vision transformer family.

Submodules:

- ``tensor``: NCHW kernels (convolution, batch norm, softmax, ...)
- ``autodiff``: reverse-mode tape, the traced counterparts of the
  ``tensor`` kernels, and a finite-difference gradient checker
- ``fusion``: multi-branch to single-convolution reparameterization
- ``blocks``: the network's building blocks in train and deploy form;
  each forward runs on arrays or on traced ``autodiff.Var`` values
- ``model``: configuration, construction, forward pass, cost model
- ``weights``: binary weight-file serialization
- ``bench``: latency/throughput/energy benchmark harness
- ``cli``: command-line entry point
"""

from .bench import BenchConfig, BenchReport, PowerProvider, run_bench
from .fusion import RepBranchSpec, fuse, verify_equivalence
from .model import VARIANTS, ModelConfig, build, count, deploy, forward
from .tensor import BNSpec, ConvSpec, batchnorm_infer, conv2d, gelu, sigmoid, softmax
from .weights import load, save

__version__ = "0.1.0"

__all__ = [
    "BNSpec",
    "BenchConfig",
    "BenchReport",
    "ConvSpec",
    "ModelConfig",
    "PowerProvider",
    "RepBranchSpec",
    "VARIANTS",
    "batchnorm_infer",
    "build",
    "conv2d",
    "count",
    "deploy",
    "forward",
    "fuse",
    "gelu",
    "load",
    "run_bench",
    "save",
    "sigmoid",
    "softmax",
    "verify_equivalence",
    "__version__",
]
