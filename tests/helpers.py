"""Builders shared by several test modules."""

import numpy as np

from mvt2.tensor import BN_EPS, BNSpec


def identity_bn(channels: int) -> BNSpec:
    """A float32 batch norm that maps x to x exactly (var = 1 - eps, so
    var + eps = 1)."""
    one = np.ones(channels, dtype=np.float32)
    return BNSpec(gamma=one.copy(), beta=np.zeros(channels, dtype=np.float32),
                  running_mean=np.zeros(channels, dtype=np.float32),
                  running_var=one - np.float32(BN_EPS))
