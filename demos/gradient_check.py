"""
Verifying analytic gradients against finite differences
=======================================================

Each block forward in ``mvt2.blocks`` is written once and runs on either an
ndarray or a traced ``autodiff.Var``: given a ``Var`` it records a
reverse-mode tape of the same ``tensor`` kernel calls, so the traced
values are the engine's own, bit for bit.  The tape holds the gradient
with respect to the block's input only; weights are constants.  The
checker compares that gradient with central finite differences
coordinate by coordinate and reports the worst relative error.
"""

import numpy as np

from mvt2 import autodiff as ad
from mvt2.blocks import MDTABlock, RepDWBlock, SDTABlock, block_forward, sdta_block_forward
from mvt2.model import init_block

rng = np.random.default_rng(0)

# a scalar loss: weighted sum of the block output
x = rng.standard_normal((1, 8, 4, 4))
loss_w = ad.Var(rng.standard_normal(x.shape))

for label, cls in (("repdw", RepDWBlock), ("sdta", SDTABlock), ("mdta", MDTABlock)):
    block = init_block(cls, rng, 8, 2, dtype=np.float64)

    def f(v, block=block):
        return ad.vsum(ad.mul(block_forward(block, v), loss_w))

    err = ad.check_gradient(f, x, eps=1e-5)
    print(f"{label:6} worst relative error {err:.2e}")

# the same forward records a tape at any batch size
spec_x = ad.Var(rng.standard_normal((2, 8, 4, 4)))
block = init_block(SDTABlock, rng, 8, 2, dtype=np.float64)
loss = ad.vsum(sdta_block_forward(block, spec_x))
ad.backward(loss)
print("input gradient shape:", spec_x.grad.shape)
print("input gradient finite:", bool(np.all(np.isfinite(spec_x.grad))))

# the checker refuses silly step sizes instead of returning noise
try:
    ad.check_gradient(lambda v: ad.vsum(v), x, eps=1.0)
except ValueError as exc:
    print("eps guard:", exc)
