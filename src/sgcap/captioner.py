"""The full captioning model: configuration plus both parameter sets."""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .decoder import DecoderParams
from .encoder import EncoderParams
from .features import WORD_VECTOR_DIM, check_triplet_mode
from .nn import ParamArrays

__all__ = ["CaptionerConfig", "CaptionerParams"]


@dataclass
class CaptionerConfig:
    vocab_size: int
    d_model: int = 512
    embed_dim: int = 512
    heads: int = 8
    spatial_dim: int = 2048
    max_len: int = 20
    triplet_mode: str = "mean"  # how relationship rows were aggregated, one of TRIPLET_MODES

    def __post_init__(self):
        if min(self.d_model, self.embed_dim, self.heads, self.spatial_dim, self.max_len) < 1:
            raise ValueError("model widths, head count and max_len must be positive")
        if self.d_model % self.heads != 0:
            raise ValueError(f"heads {self.heads} must divide d_model {self.d_model}")
        if self.vocab_size < 5:
            raise ValueError("vocabulary must contain the specials plus at least one word")
        check_triplet_mode(self.triplet_mode)


@dataclass
class CaptionerParams(ParamArrays):
    config: CaptionerConfig
    encoder: EncoderParams
    decoder: DecoderParams

    @classmethod
    def init(cls, config: CaptionerConfig, rng: np.random.Generator) -> "CaptionerParams":
        encoder = EncoderParams.init(
            rng, config.spatial_dim, WORD_VECTOR_DIM, config.d_model, config.heads
        )
        decoder = DecoderParams.init(
            rng, config.vocab_size, config.d_model, config.embed_dim, config.heads, config.max_len
        )
        return cls(config, encoder, decoder)
