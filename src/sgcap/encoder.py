"""Two-path feature encoder: spatial grid features and relationship rows.

Each path projects its input rows to the model width, then applies one
refining layer: self-attention over the rows, gated refinement of the
attended result against the original rows, a residual add, and row-wise
layer normalization. The relationship path masks invalid rows out of the
attention keys and out of the aggregate mean. The global summary vector
is the concatenation of the spatial mean and the masked relationship
mean, so it has twice the model width.

The two paths share no parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .attention import AoAParams, MultiHeadParams, aoa_block, multi_head_attention
from .autodiff import (
    DimensionError,
    Tensor,
    add,
    concat,
    constant,
    layer_norm,
    mean_rows,
    mul,
    parameter,
    scale,
)
from .features import MAX_TRIPLETS, FeatureBundle
from .nn import LinearLayer, ParamArrays

__all__ = [
    "RefinePathParams",
    "EncoderParams",
    "EncoderOutput",
    "refine",
    "masked_mean_rows",
    "encode",
]


@dataclass
class RefinePathParams(ParamArrays):
    """One refining layer: self-attention, gated refinement, layer norm."""

    att: MultiHeadParams
    aoa: AoAParams
    ln_gain: Tensor
    ln_bias: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, d_model: int, heads: int):
        return cls(
            MultiHeadParams.init(rng, d_model, heads),
            AoAParams.init(rng, d_model),
            parameter(np.ones(d_model)),
            parameter(np.zeros(d_model)),
        )


@dataclass
class EncoderParams(ParamArrays):
    prefix = "encoder"

    spatial_proj: LinearLayer
    rel_proj: LinearLayer
    spatial_path: RefinePathParams
    rel_path: RefinePathParams

    @classmethod
    def init(cls, rng: np.random.Generator, spatial_dim: int, rel_dim: int, d_model: int, heads: int):
        return cls(
            LinearLayer.init(rng, spatial_dim, d_model),
            LinearLayer.init(rng, rel_dim, d_model),
            RefinePathParams.init(rng, d_model, heads),
            RefinePathParams.init(rng, d_model, heads),
        )

    @property
    def d_model(self) -> int:
        return self.spatial_proj.d_out


@dataclass
class EncoderOutput:
    """Refined feature rows per path, the key mask, and the summary vector."""

    refined_spatial: Tensor   # (N_s, d_model)
    refined_rel: Tensor       # (MAX_TRIPLETS, d_model)
    rel_mask: np.ndarray      # (MAX_TRIPLETS,) bool; all-False means "no relationships"
    a_bar: Tensor             # (2 * d_model,)


def refine(path: RefinePathParams, a: Tensor, key_mask=None) -> Tensor:
    """LayerNorm(A + gated_refinement(A, self_attention(A)))."""
    attended = multi_head_attention(path.att, a, a, a, key_mask)
    refined = aoa_block(path.aoa, a, attended)
    return layer_norm(add(a, refined), path.ln_gain, path.ln_bias)


def masked_mean_rows(a: Tensor, mask: Optional[np.ndarray]) -> Tensor:
    """Mean of the rows where mask is True; zero vector when none are."""
    if mask is None:
        return mean_rows(a)
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    n, d = a.data.shape
    if mask.shape != (n,):
        raise DimensionError(f"mask length {mask.shape[0]} != rows {n}")
    count = int(mask.sum())
    if count == 0:
        return constant(np.zeros(d))
    keep = constant(np.tile(mask.astype(np.float64)[:, None], (1, d)))
    return scale(mean_rows(mul(a, keep)), n / count)


def encode(params: EncoderParams, bundle: FeatureBundle) -> EncoderOutput:
    """Run both paths over one image's features.

    Relationship rows whose mask is False are zeroed before projection,
    excluded from the attention keys, and excluded from the aggregate, so
    their content cannot influence any output. With no valid rows at all
    the relationship branch yields zeros and the summary's second half is
    the zero vector.
    """
    if bundle.spatial.shape[1] != params.spatial_proj.d_in:
        raise DimensionError(
            f"spatial width {bundle.spatial.shape[1]} != encoder input {params.spatial_proj.d_in}"
        )
    d = params.d_model
    spatial = params.spatial_proj.apply_rows(constant(bundle.spatial))
    refined_spatial = refine(params.spatial_path, spatial)
    spatial_mean = mean_rows(refined_spatial)

    mask = bundle.rel_mask
    if mask.any():
        rel_rows = bundle.relationships.copy()
        rel_rows[~mask] = 0.0
        rel = params.rel_proj.apply_rows(constant(rel_rows))
        refined_rel = refine(params.rel_path, rel, key_mask=mask)
        rel_mean = masked_mean_rows(refined_rel, mask)
    else:
        refined_rel = constant(np.zeros((MAX_TRIPLETS, d)))
        rel_mean = constant(np.zeros(d))

    a_bar = concat([spatial_mean, rel_mean], axis=0)
    return EncoderOutput(refined_spatial, refined_rel, mask, a_bar)
