"""Attention, gated attention, and the two-path feature refinement.

Shows that key masking really removes rows from the mixture, that the
gate interpolates the attended information, and that the refinement
stage combines multi-head attention with the gate and a residual
normalization over both feature paths of the encoder.
"""

import numpy as np

from sgcap.attention import (
    AoAParams,
    MultiHeadParams,
    aoa_block,
    multi_head_attention,
    scaled_dot_attention,
)
from sgcap.autodiff import add, constant, linear
from sgcap.encoder import RefinePathParams, refine

rng = np.random.default_rng(1)
d = 4

# --- plain scaled dot-product attention, with and without a key mask ---
q = constant(rng.normal(size=(2, d)))
k = constant(rng.normal(size=(5, d)))
v = constant(np.eye(5, d))  # each value row is distinctive

full = scaled_dot_attention(q, k, v)
mask = np.array([True, False, True, False, True])
masked = scaled_dot_attention(q, k, v, key_mask=mask)
print("attended rows (no mask):   ", np.round(full.data[0], 3))
print("attended rows (rows 1,3 off):", np.round(masked.data[0], 3))
print("masked columns are exactly zero:",
      bool((masked.data[:, 1] == 0).all() and (masked.data[:, 3] == 0).all()))

# --- the gate on top of attention ---
aoa = AoAParams.init(rng, d)
v_hat = scaled_dot_attention(q, k, v)
gated = aoa_block(aoa, q, v_hat)
print("\ngated attention output:", np.round(gated.data[0], 3))

# the gate itself is a sigmoid of a linear map of query and context
pre = add(linear(q, aoa.w_q_gate, aoa.b_gate), linear(v_hat, aoa.w_v_gate))
gate = 1.0 / (1.0 + np.exp(-pre.data))
print("gate values (all in (0, 1)):", np.round(gate[0], 3))

# --- one refinement pass, as the encoder applies it to each path ---
path = RefinePathParams.init(rng, d, heads=2)
a = constant(rng.normal(size=(5, d)))
refined = refine(path, a)
print("\nfeature rows before refinement:\n", np.round(a.data, 3))
print("after self-attention + gate + residual norm:\n", np.round(refined.data, 3))

# padded relationship rows are masked the same way during encoding
pad_mask = np.array([True, True, True, False, False])
refined_masked = refine(path, a, key_mask=pad_mask)
print("refinement with the last two rows masked differs:",
      bool(not np.array_equal(refined.data, refined_masked.data)))
