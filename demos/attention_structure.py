"""
Inside the split-projection attention block
===========================================

One projection emits C+32 channels that split into four roles: a 16-wide
query, a 16-wide key, C/4 value channels that get mixed across spatial
positions, and 3C/4 gate channels that stay local.  The mixing matrix is
column-stochastic, so every output position is a convex combination of
input positions.
"""

import numpy as np

from mvt2.blocks import QK_DIM, SDTABlock, sdta_attention_map, sdta_block_forward
from mvt2.model import init_block

rng = np.random.default_rng(0)
c = 64
block = init_block(SDTABlock, rng, c, 2)

# the projection widens by exactly 2 * 16 = 32 channels
print("projection:", c, "->", block.proj_p.out_channels, "channels")
print("split:", [QK_DIM, QK_DIM, c // 4, 3 * c // 4])

# on a 4x4 grid the mixing matrix is 16x16 and its columns sum to one
x = rng.standard_normal((1, c, 4, 4)).astype(np.float32)
maps = sdta_attention_map(block, x)
print("mixing matrix shape:", maps.shape)
print("column sums:", np.round(maps[0].sum(axis=0), 6)[:4], "...")

# entropy per column shows how concentrated the mixing is
col = maps[0][:, 0]
entropy = -float(np.sum(col * np.log(col + 1e-12)))
print(f"first column entropy {entropy:.3f} (uniform would be {np.log(16):.3f})")

# the block keeps the channel count and spatial grid unchanged
y = sdta_block_forward(block, x)
print("block output shape:", y.shape)

# a 1x1 grid has nothing to mix: the matrix degenerates to [[1]] and the
# value channels pass through untouched
x1 = rng.standard_normal((1, c, 1, 1)).astype(np.float32)
print("1x1 mixing matrix:", sdta_attention_map(block, x1)[0])
