"""
Folding a multi-branch block into one convolution
=================================================

A training-form unit runs three parallel branches (3x3, 1x1, identity),
each followed by its own batch norm, and sums them.  At deployment the
whole thing collapses into a single 3x3 convolution with identical
outputs.  This script does the collapse one step at a time.
"""

import numpy as np

from mvt2.blocks import RepDWBlock
from mvt2.fusion import fold_bn, fuse, rep_branch_forward
from mvt2.model import init_unit
from mvt2.tensor import ConvSpec, conv2d

rng = np.random.default_rng(0)

# a depthwise unit over 8 channels with all three branches present: the
# token mixer of an 8-channel stage block, drawn as build draws it
spec = init_unit(rng, RepDWBlock.geometry(8, 2)[0])
print("branches: 3x3 main, 1x1 scale, identity")
x = rng.standard_normal((1, 8, 5, 5)).astype(np.float32)

# step 1: batch norm is an affine map per channel, so it folds into the
# convolution that feeds it -- rescale the kernel, shift the bias
folded_main = fold_bn(spec.main, spec.main_bn)
print("main kernel before/after fold:",
      float(spec.main.kernel[0, 0, 1, 1]), "->", float(folded_main.kernel[0, 0, 1, 1]))

# step 2: the fused conv keeps the main conv's 3x3 grid, stride, padding
# and groups, as fuse(spec) shows.  A 1x1 kernel is a 3x3 kernel that is
# zero off-centre, so the folded scale kernel is placed on the centre tap,
# one pixel more padding keeping its output grid
fused = fuse(spec)
print("fused geometry: kernel", fused.kernel.shape, "stride", fused.stride,
      "padding", fused.padding, "groups", fused.groups)
folded_scale = fold_bn(spec.scale, spec.scale_bn)
centred = np.zeros_like(fused.kernel)
centred[:, :, 1:2, 1:2] = folded_scale.kernel
lifted = ConvSpec(centred, folded_scale.bias, padding=fused.padding, groups=fused.groups)
print("1x1 vs centred 3x3 max deviation:",
      float(np.max(np.abs(conv2d(x, folded_scale) - conv2d(x, lifted)))))

# step 3: the identity branch is a convolution too -- a one-hot 1x1
# kernel (a 1 on each channel's own input slot), centred the same way
eye = ConvSpec(np.ones((8, 1, 1, 1), np.float32), np.zeros(8, np.float32), groups=8)
print("identity-as-conv max deviation:", float(np.max(np.abs(conv2d(x, eye) - x))))

# step 4: convolution is linear in its weights, so summing the branches
# means summing their kernels and biases, which is what fuse did
train_out = rep_branch_forward(x, spec)
fused_out = conv2d(x, fused)
print("train vs fused max abs diff:", float(np.max(np.abs(train_out - fused_out))))

# the fused form is also smaller: batch norm statistics and the extra
# branches are gone
convs = (spec.main, spec.scale)
bns = (spec.main_bn, spec.scale_bn, spec.identity_bn)
before = sum(c.kernel.size + c.bias.size for c in convs) + sum(4 * b.channels for b in bns)
after = fused.kernel.size + fused.bias.size
print(f"parameters {before} -> {after}")
