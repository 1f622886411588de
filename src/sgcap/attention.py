"""Attention blocks: scaled dot-product, multi-head, and gated refinement.

The gated refinement block (attention on attention) combines a query and
an attended vector into an information vector and a sigmoid gate, and
returns their elementwise product. Multi-head attention projects queries,
keys and values once; head i attends with column block i of each, at the
per-head width, and writes column block i of the output. All heads run
as one stacked product over (heads, n, d / heads) copies of the blocks.
There is no output projection. Both blocks are single fused tape ops
(``autodiff.attention`` and ``autodiff.aoa``). A memory attended by many
queries (the decoder's steps) can have its keys and values projected
once, by ``project_memory``; the decoder then attends to both of its
memories and gates both results inside its step op,
``autodiff.decoder_cell``.

Masked keys receive an additive -1e9 on their logits; after the softmax
max-subtraction the exponential underflows to exactly 0.0 in float64, so
a masked row cannot influence the output bit-wise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import MASK_LOGIT, DimensionError, Tensor, aoa, attention, linear, parameter
from .nn import ParamArrays, init_weight

__all__ = [
    "MASK_LOGIT",
    "scaled_dot_attention",
    "MultiHeadParams",
    "multi_head_attention",
    "AoAParams",
    "aoa_block",
]


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, key_mask=None) -> Tensor:
    """softmax(q k^T / sqrt(d)) v, softmax taken row-wise over keys."""
    return attention(q, k, v, 1, key_mask)


@dataclass
class MultiHeadParams(ParamArrays):
    """Shared projections plus the head count; head width is d / heads."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    heads: int

    @classmethod
    def init(cls, rng: np.random.Generator, d_model: int, heads: int):
        if d_model % heads != 0:
            raise DimensionError(f"heads {heads} must divide d_model {d_model}")
        return cls(
            init_weight(rng, d_model, d_model),
            init_weight(rng, d_model, d_model),
            init_weight(rng, d_model, d_model),
            heads,
        )

    @property
    def d_model(self) -> int:
        return self.w_q.shape[0]

    def project_memory(self, memory: Tensor) -> tuple[Tensor, Tensor]:
        """Keys and values of a memory that many queries attend to."""
        return linear(memory, self.w_k), linear(memory, self.w_v)


def multi_head_attention(
    params: MultiHeadParams, q_in: Tensor, k_in: Tensor, v_in: Tensor, key_mask=None
) -> Tensor:
    """Project queries, keys and values, then attend with every head at once (one tape op)."""
    d = params.d_model
    for name, t in (("query", q_in), ("key", k_in), ("value", v_in)):
        if t.data.ndim != 2 or t.data.shape[1] != d:
            raise DimensionError(f"{name} must be (n, {d}), got {tuple(t.data.shape)}")
    q, k, v = linear(q_in, params.w_q), linear(k_in, params.w_k), linear(v_in, params.w_v)
    return attention(q, k, v, params.heads, key_mask)


@dataclass
class AoAParams(ParamArrays):
    """Information and gate projections of the gated refinement block, in aoa's order."""

    w_q_info: Tensor
    w_v_info: Tensor
    b_info: Tensor
    w_q_gate: Tensor
    w_v_gate: Tensor
    b_gate: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, d_model: int):
        return cls(
            init_weight(rng, d_model, d_model),
            init_weight(rng, d_model, d_model),
            parameter(np.zeros(d_model)),
            init_weight(rng, d_model, d_model),
            init_weight(rng, d_model, d_model),
            parameter(np.zeros(d_model)),
        )


def aoa_block(params: AoAParams, q: Tensor, v_hat: Tensor) -> Tensor:
    """Gate an information vector with a sigmoid of the same inputs.

    info = q W_qi^T + v_hat W_vi^T + b_i
    gate = sigmoid(q W_qg^T + v_hat W_vg^T + b_g)
    out  = gate * info        (elementwise, row by row)
    """
    return aoa(q, v_hat, *params.weights())
