"""Attention blocks: scaled dot-product, multi-head, and gated refinement.

The gated refinement block (attention on attention) combines a query and
an attended vector into an information vector and a sigmoid gate, and
returns their elementwise product. Multi-head attention projects queries,
keys and values once, then runs scaled dot-product attention per
contiguous column block (one per head, with the per-head width), each
head writing its own column block of the output. There is no output
projection. Both blocks are single fused tape ops (``autodiff.attention``
and ``autodiff.aoa``). A memory attended by many queries (the decoder's
steps) can have its keys and values projected once, by ``project_memory``.

Masked keys receive an additive -1e9 on their logits; after the softmax
max-subtraction the exponential underflows to exactly 0.0 in float64, so
a masked row cannot influence the output bit-wise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .autodiff import MASK_LOGIT, DimensionError, Tensor, aoa, attention, linear, parameter
from .nn import init_weight

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
class MultiHeadParams:
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

    def named_params(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}.w_q", self.w_q
        yield f"{prefix}.w_k", self.w_k
        yield f"{prefix}.w_v", self.w_v


def multi_head_attention(
    params: MultiHeadParams, q_in: Tensor, k_in: Tensor, v_in: Tensor, key_mask=None, projected=False
) -> Tensor:
    """Project, then attend per contiguous head column block (one tape op).

    With ``projected``, keys and values arrive already projected (by
    ``MultiHeadParams.project_memory``); only the query is projected here.
    """
    d = params.d_model
    for name, t in (("query", q_in), ("key", k_in), ("value", v_in)):
        if t.data.ndim != 2 or t.data.shape[1] != d:
            raise DimensionError(f"{name} must be (n, {d}), got {tuple(t.data.shape)}")
    q = linear(q_in, params.w_q)
    if projected:
        k, v = k_in, v_in
    else:
        k, v = linear(k_in, params.w_k), linear(v_in, params.w_v)
    return attention(q, k, v, params.heads, key_mask)


@dataclass
class AoAParams:
    """Information and gate projections of the gated refinement block."""

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

    @property
    def d_model(self) -> int:
        return self.w_q_info.shape[0]

    def named_params(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        for name in ("w_q_info", "w_v_info", "b_info", "w_q_gate", "w_v_gate", "b_gate"):
            yield f"{prefix}.{name}", getattr(self, name)


def aoa_block(params: AoAParams, q: Tensor, v_hat: Tensor) -> Tensor:
    """Gate an information vector with a sigmoid of the same inputs.

    info = q W_qi^T + v_hat W_vi^T + b_i
    gate = sigmoid(q W_qg^T + v_hat W_vg^T + b_g)
    out  = gate * info        (elementwise, row by row)
    """
    p = params
    return aoa(q, v_hat, p.w_q_info, p.w_v_info, p.b_info, p.w_q_gate, p.w_v_gate, p.b_gate)
