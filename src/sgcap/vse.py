"""Joint image-caption embedding space and the vision half of the reward.

A small two-branch network maps mean-pooled spatial features and
LSTM-encoded captions into one vector space. It trains with a bidirectional
hinge ranking loss over in-batch negatives, then stays frozen: the cosine
between the two embeddings of a generated caption and its image is the
vision reward. Its parameters are deliberately disjoint from the
captioner's so the reward cannot drift with the policy being scored.

A training batch is embedded in a fixed number of tape ops, whatever its
size and caption lengths: one projection of all its pooled images, one
LSTM op over all its captions (``autodiff.lstm_sequences``) and one
projection of their final states, with values and gradients bit for bit
those of embedding each pair on its own. The network reads spatial
features and token ids only, so training it needs no word vectors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .autodiff import (
    Tensor,
    add,
    concat,
    constant,
    linear,
    lstm_sequences,
    mean_rows,
    mul,
    relu,
    reshape,
    row_sums,
    sub,
    sum_all,
)
from .ioutil import run_log
from .nn import (
    EmbeddingTable, LinearLayer, LstmParams, ParamArrays, check_int_fields, check_positive_fields, descend,
    epoch_batches,
)

__all__ = [
    "VseConfig",
    "VseParams",
    "EmbeddingPair",
    "embed_image",
    "embed_caption",
    "hinge_loss",
    "vision_reward",
    "train_vse",
]

DEFAULT_MARGIN = 0.2


@dataclass
class VseConfig:
    vocab_size: int
    spatial_dim: int = 2048
    embed_dim: int = 512
    hidden_dim: int = 512
    space_dim: int = 512
    margin: float = DEFAULT_MARGIN

    def __post_init__(self):
        check_int_fields(self)
        check_positive_fields(self, ("spatial_dim", "embed_dim", "hidden_dim", "space_dim"))
        if self.vocab_size < 5:
            raise ValueError("vocabulary must contain the specials plus at least one word")
        if not (math.isfinite(self.margin) and self.margin >= 0):
            raise ValueError(f"margin must be non-negative and finite, got {self.margin}")


@dataclass
class VseParams(ParamArrays):
    config: VseConfig
    image_proj: LinearLayer
    embedding: EmbeddingTable
    lstm: LstmParams
    caption_proj: LinearLayer

    @classmethod
    def init(cls, config: VseConfig, rng: np.random.Generator) -> "VseParams":
        return cls(
            config=config,
            image_proj=LinearLayer.init(rng, config.spatial_dim, config.space_dim),
            embedding=EmbeddingTable.init(rng, config.vocab_size, config.embed_dim),
            lstm=LstmParams.init(rng, config.embed_dim, config.hidden_dim),
            caption_proj=LinearLayer.init(rng, config.hidden_dim, config.space_dim),
        )


@dataclass
class EmbeddingPair:
    """One image-caption pair mapped into the shared space, or a batch of
    them as the rows of two (B, d) matrices."""

    i_e: Tensor
    w_e: Tensor


def embed_image(params: VseParams, spatial: Tensor) -> Tensor:
    """Mean-pool the spatial rows, then project into the shared space."""
    if spatial.data.ndim != 2 or spatial.data.shape[0] < 1:
        raise ValueError(
            f"embed_image needs a non-empty (n, {params.config.spatial_dim}) feature map, "
            f"got shape {tuple(spatial.data.shape)}"
        )
    return params.image_proj.apply_vec(mean_rows(spatial))


def _embed_captions(params: VseParams, captions: Sequence[Sequence[int]]) -> Tensor:
    """Each caption's final LSTM state, projected: (len(captions), space_dim)."""
    rows = lstm_sequences(params.embedding.weight, captions, params.lstm.weights())
    return params.caption_proj.apply_each(rows)


def embed_caption(params: VseParams, token_ids: Sequence[int]) -> Tensor:
    """Run the caption LSTM over the tokens; project the final hidden state."""
    if len(token_ids) == 0:
        raise ValueError("embed_caption needs at least one token")
    return reshape(_embed_captions(params, [token_ids]), (params.caption_proj.d_out,))


def hinge_loss(pairs: Union[EmbeddingPair, Sequence[EmbeddingPair]], margin: float = DEFAULT_MARGIN) -> Tensor:
    """Bidirectional ranking loss over a batch, negatives = all other members.

    ``pairs`` is a list of pairs, or one pair whose embeddings are the
    batch's rows. With S[i, j] = i_e[i] . w_e[j] and d = diag(S):
        sum_{i != j} max(0, margin - d[i] + S[i, j])    wrong caption for image i
      + sum_{i != j} max(0, margin - d[j] + S[i, j])    wrong image for caption j
    """
    rows = pairs if isinstance(pairs, EmbeddingPair) else None
    b = len(pairs) if rows is None else rows.i_e.data.shape[0]
    if b < 2:
        raise ValueError(f"hinge loss needs a batch of >= 2 pairs, got {b}")
    if rows is None:
        d = pairs[0].i_e.data.shape[0]
        rows = EmbeddingPair(concat([reshape(p.i_e, (1, d)) for p in pairs], axis=0),
                             concat([reshape(p.w_e, (1, d)) for p in pairs], axis=0))
    sim = linear(rows.i_e, rows.w_e)
    eye = constant(np.eye(b))
    column = reshape(row_sums(mul(sim, eye)), (b, 1))
    ones = constant(np.ones((b, 1)))
    by_row = linear(column, ones)   # [i, j] = d[i]
    by_col = linear(ones, column)   # [i, j] = d[j]
    margin_mat = constant(np.full((b, b), float(margin)))
    off_diag = constant(np.ones((b, b)) - np.eye(b))
    image_anchor = mul(off_diag, relu(add(sub(margin_mat, by_row), sim)))
    caption_anchor = mul(off_diag, relu(add(sub(margin_mat, by_col), sim)))
    return add(sum_all(image_anchor), sum_all(caption_anchor))


def vision_reward(w_e, i_e) -> float:
    """Cosine similarity in the shared space; zero-norm inputs score 0."""
    w = w_e.data if isinstance(w_e, Tensor) else np.asarray(w_e, dtype=np.float64)
    i = i_e.data if isinstance(i_e, Tensor) else np.asarray(i_e, dtype=np.float64)
    wn = math.sqrt(float(w @ w))
    in_ = math.sqrt(float(i @ i))
    if wn == 0.0 or in_ == 0.0:
        warnings.warn("zero-norm embedding: vision reward defined as 0")
        return 0.0
    return float(w @ i) / (wn * in_)


def _batch_loss(params: VseParams, pooled: np.ndarray, captions: Sequence[Sequence[int]], margin: float) -> Tensor:
    """The hinge loss of a batch, given its images' pooled rows (B, spatial_dim)
    and its captions' token ids, every branch run on all B rows at once."""
    embedded = EmbeddingPair(i_e=params.image_proj.apply_each(constant(pooled)),
                             w_e=_embed_captions(params, captions))
    return hinge_loss(embedded, margin=margin)


def train_vse(
    pairs: Sequence[tuple[np.ndarray, Sequence[int]]],
    config: VseConfig,
    rng: np.random.Generator,
    epochs: int = 200,
    lr: float = 0.01,
    batch_size: int = 8,
    params: Optional[VseParams] = None,
    log_path=None,
) -> tuple[VseParams, list[float]]:
    """Gradient descent on the hinge loss over (spatial features, token ids) pairs.

    Returns the trained parameters and the per-epoch mean loss per pair, also
    logged to ``log_path``. Batches are reshuffled every epoch with ``rng``; a
    trailing batch of size 1 joins its predecessor, since ranking needs negatives.
    """
    if len(pairs) < 2:
        raise ValueError("training needs at least two image-caption pairs")
    if epochs < 1 or batch_size < 2 or not (math.isfinite(lr) and lr > 0):
        raise ValueError(
            f"VSE training needs epochs >= 1, batch_size >= 2 (ranking needs negatives) "
            f"and a finite lr > 0, got epochs={epochs}, batch_size={batch_size}, lr={lr}"
        )
    if params is None:
        params = VseParams.init(config, rng)
    pooled = np.stack([mean_rows(constant(spatial)).data for spatial, _ in pairs])  # once, not per epoch
    leaves = params.weights()
    log = run_log(log_path)
    losses: list[float] = []
    for epoch in range(epochs):
        batches = epoch_batches(rng, len(pairs), batch_size)
        if len(batches) > 1 and len(batches[-1]) < 2:
            batches[-2:] = [np.concatenate(batches[-2:])]
        epoch_loss = 0.0
        for batch in batches:
            captions = [pairs[k][1] for k in batch]
            try:
                epoch_loss += descend(leaves, lambda: _batch_loss(params, pooled[batch], captions, config.margin), lr)
            except FloatingPointError as exc:
                raise FloatingPointError(f"hinge loss diverged at epoch {epoch}: {exc}") from None
        losses.append(epoch_loss / len(pairs))
        log({"epoch": epoch, "loss": losses[-1]})
    return params, losses
