"""Stepwise caption decoder.

One LSTM conditioned on the encoder summary, plus per-path attention at
every step. The visual input of step t is the summary vector plus the
previous step's context vector (zero at the first step); the LSTM input
concatenates the previous token's embedding with that visual vector. The
new hidden state queries each refined feature path through multi-head
attention, each attended result is gated against the hidden state, and
the two gated vectors concatenate into the step's context vector, which
a bias-free linear layer maps to vocabulary logits. The keys and values
of both paths are projected, checked and split by head once per caption,
in ``init_state``, and carried in the decoder state. A recorded step is
thus 4 tape ops: its whole recurrence (1, ``decoder_cell``: the visual
sum, the token's embedding row, the LSTM input, the LSTM cell and the
context vector of both paths) and the output head (3); teacher forcing
runs the head once per caption.

Sequence conventions: rollouts start from BOS (never returned); emitted
tokens include the terminating EOS when one is produced within the
length budget. Scoring accepts rollouts truncated at the budget (no
terminal EOS) and, as a degenerate ending, a final sampled PAD; PAD and
EOS are rejected anywhere else, and PAD is never fed back in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

# The step runs as one decoder_cell op. aoa_block, multi_head_attention
# and lstm_step stay importable here because perfbench/tracing.py times
# them at these names, and fails to install without them.
from .attention import AoAParams, MultiHeadParams, aoa_block, multi_head_attention  # noqa: F401
from .autodiff import (
    KeyValues,
    Tensor,
    add,
    concat,
    constant,
    decoder_cell,
    key_values,
    log_prob,
    no_grad,
    reshape,
    softmax,
    sum_all,
    tanh,
)
from .encoder import EncoderOutput
from .features import BOS, EOS, PAD
from .nn import EmbeddingTable, LinearLayer, LstmParams, LstmState, lstm_step  # noqa: F401

__all__ = [
    "DecoderParams",
    "DecoderState",
    "StepScore",
    "init_state",
    "decode_step",
    "teacher_forced_logprobs",
    "generate_greedy",
    "sample_sequence",
]


@dataclass
class DecoderParams:
    embedding: EmbeddingTable
    lstm: LstmParams
    init_h: LinearLayer
    init_m: LinearLayer
    spatial_att: MultiHeadParams
    spatial_aoa: AoAParams
    rel_att: MultiHeadParams
    rel_aoa: AoAParams
    out_proj: LinearLayer  # (vocab, 2 * d_model), bias-free
    max_len: int = 20

    @classmethod
    def init(
        cls,
        rng: np.random.Generator,
        vocab_size: int,
        d_model: int,
        embed_dim: int,
        heads: int,
        max_len: int = 20,
    ):
        return cls(
            EmbeddingTable.init(rng, vocab_size, embed_dim),
            LstmParams.init(rng, embed_dim + 2 * d_model, d_model),
            LinearLayer.init(rng, 2 * d_model, d_model),
            LinearLayer.init(rng, 2 * d_model, d_model),
            MultiHeadParams.init(rng, d_model, heads),
            AoAParams.init(rng, d_model),
            MultiHeadParams.init(rng, d_model, heads),
            AoAParams.init(rng, d_model),
            LinearLayer.init(rng, 2 * d_model, vocab_size, bias=False),
            max_len,
        )

    @property
    def d_model(self) -> int:
        return self.lstm.d_hidden

    @property
    def vocab_size(self) -> int:
        return self.embedding.vocab_size

    def named_params(self, prefix: str = "decoder") -> Iterator[tuple[str, Tensor]]:
        yield from self.embedding.named_params(f"{prefix}.embedding")
        yield from self.lstm.named_params(f"{prefix}.lstm")
        yield from self.init_h.named_params(f"{prefix}.init_h")
        yield from self.init_m.named_params(f"{prefix}.init_m")
        yield from self.spatial_att.named_params(f"{prefix}.spatial_att")
        yield from self.spatial_aoa.named_params(f"{prefix}.spatial_aoa")
        yield from self.rel_att.named_params(f"{prefix}.rel_att")
        yield from self.rel_aoa.named_params(f"{prefix}.rel_aoa")
        yield from self.out_proj.named_params(f"{prefix}.out_proj")


@dataclass
class DecoderState:
    """Carried between steps; decode_step returns a fresh one."""

    lstm: LstmState
    c_prev: Tensor  # previous context vector, (2 * d_model,)
    t: int
    kv_spatial: KeyValues  # projected keys and values of refined_spatial, split by head
    kv_rel: Optional[KeyValues]  # of refined_rel, key-masked; None without relationships


@dataclass
class StepScore:
    """Per-step artifacts kept for loss construction and audits.

    A sampled step's ``logits`` and ``log_prob`` are the tape outputs the
    loss is built from. Teacher-forced steps carry untracked rows of one
    logits matrix, computed once per caption, and their log-probs as
    untracked scalars; only the caption total is on the tape.
    """

    logits: Tensor
    probs: Tensor
    log_prob: Tensor  # scalar: log prob of the realized target
    target: int


def init_state(params: DecoderParams, enc: EncoderOutput) -> DecoderState:
    """h0 and m0 are tanh images of the summary; context starts at zero.

    Each path's keys and values are projected and split by head here,
    once per caption.
    """
    h0 = tanh(params.init_h.apply_vec(enc.a_bar))
    m0 = tanh(params.init_m.apply_vec(enc.a_bar))
    spatial, rel = params.spatial_att, params.rel_att
    kv_spatial = key_values(*spatial.project_memory(enc.refined_spatial), spatial.heads)
    kv_rel = (key_values(*rel.project_memory(enc.refined_rel), rel.heads, enc.rel_mask)
              if enc.rel_mask.any() else None)
    c0 = constant(np.zeros(2 * params.d_model))
    return DecoderState(LstmState(h0, m0), c0, 0, kv_spatial, kv_rel)


def decode_step(
    params: DecoderParams, enc: EncoderOutput, state: DecoderState, token_id: int
) -> tuple[Tensor, Tensor, DecoderState]:
    """One step: feed a token, get (logits, probs, new state).

    ``probs`` is never recorded on a tape; losses take ``log_prob`` of the logits.
    """
    state = _recur(params, enc, state, token_id)
    logits = params.out_proj.apply_vec(state.c_prev)
    with no_grad():
        probs = softmax(logits, axis=-1)
    return logits, probs, state


def _recur(
    params: DecoderParams, enc: EncoderOutput, state: DecoderState, token_id: int
) -> DecoderState:
    """The recurrence of one step, without the output head: the new state,
    whose ``c_prev`` is this step's context vector."""
    token_id = int(token_id)
    if token_id == PAD:
        raise ValueError("decode_step fed PAD")
    if not 0 <= token_id < params.vocab_size:
        raise IndexError(f"token id {token_id} outside vocabulary of {params.vocab_size}")
    h, m, c_t = decoder_cell(
        enc.a_bar, state.c_prev, params.embedding.weight, token_id, state.lstm.h, state.lstm.m,
        params.lstm.weights(), (
            (params.spatial_att.w_q, state.kv_spatial, params.spatial_aoa.weights()),
            (params.rel_att.w_q, state.kv_rel, params.rel_aoa.weights()),
        ))
    return DecoderState(LstmState(h, m), c_t, state.t + 1, state.kv_spatial, state.kv_rel)


def _validate_sequence(tokens, vocab_size: int) -> list[int]:
    tokens = [int(t) for t in tokens]
    if len(tokens) < 2:
        raise ValueError(f"sequence too short to score: {tokens}")
    if tokens[0] != BOS:
        raise ValueError("sequence must start with BOS")
    for pos, t in enumerate(tokens):
        if not 0 <= t < vocab_size:
            raise IndexError(f"token id {t} outside vocabulary of {vocab_size}")
        if t in (EOS, PAD) and pos != len(tokens) - 1:
            raise ValueError(f"terminator token {t} at interior position {pos}")
    return tokens


def teacher_forced_logprobs(
    params: DecoderParams, enc: EncoderOutput, gt_tokens
) -> tuple[Tensor, list[StepScore]]:
    """Sum of log-probs of each next token under forced decoding.

    gt_tokens is BOS, words..., EOS for ground truth; a rollout truncated
    at the length budget (no terminal EOS) is also accepted. The logits
    never feed back into the recurrence here, so the output head runs
    once, over the (T, 2 * d_model) stack of the steps' context vectors.
    """
    logits, lps, targets = _forced_log_probs(params, enc, gt_tokens)
    with no_grad():
        probs = softmax(logits, axis=-1)
    steps = [
        StepScore(constant(logits.data[t]), constant(probs.data[t]), constant(lps.data[t]), target)
        for t, target in enumerate(targets)
    ]
    return sum_all(lps), steps


def _forced_log_probs(params: DecoderParams, enc: EncoderOutput, gt_tokens) -> tuple[Tensor, Tensor, list[int]]:
    """The (T, vocab) logits of forced decoding, each step's log-prob of its
    target, and the targets: the part of teacher_forced_logprobs a loss needs."""
    tokens = _validate_sequence(gt_tokens, params.vocab_size)
    state = init_state(params, enc)
    contexts = []
    for prev in tokens[:-1]:
        state = _recur(params, enc, state, prev)
        contexts.append(state.c_prev)
    targets = tokens[1:]
    stack = reshape(concat(contexts, axis=0), (len(contexts), 2 * params.d_model))
    logits = params.out_proj.apply_rows(stack)
    return logits, log_prob(logits, targets), targets


def generate_greedy(params: DecoderParams, enc: EncoderOutput, max_len: Optional[int] = None) -> list[int]:
    """Argmax rollout; ties resolve to the lowest index.

    Returns emitted tokens (EOS included when emitted), at most max_len.
    """
    budget = params.max_len if max_len is None else int(max_len)
    state = init_state(params, enc)
    out: list[int] = []
    token = BOS
    for _ in range(budget):
        _, probs, state = decode_step(params, enc, state, token)
        token = int(np.argmax(probs.data))
        out.append(token)
        if token in (EOS, PAD):
            break
    return out


def sample_sequence(
    params: DecoderParams,
    enc: EncoderOutput,
    rng: np.random.Generator,
    max_len: Optional[int] = None,
) -> tuple[list[int], Optional[Tensor], list[StepScore]]:
    """Multinomial rollout from each step's distribution.

    Returns (tokens, total log-prob tensor, per-step scores). Re-scoring
    the returned tokens with teacher_forced_logprobs reproduces the total
    within 1e-12: its batched output head rounds differently.
    """
    budget = params.max_len if max_len is None else int(max_len)
    state = init_state(params, enc)
    out: list[int] = []
    steps: list[StepScore] = []
    total: Optional[Tensor] = None
    token = BOS
    for _ in range(budget):
        logits, probs, state = decode_step(params, enc, state, token)
        choice = int(rng.choice(params.vocab_size, p=probs.data))
        lp = log_prob(logits, choice)
        steps.append(StepScore(logits, probs, lp, choice))
        total = lp if total is None else add(total, lp)
        out.append(choice)
        token = choice
        if choice in (EOS, PAD):
            break
    return out, total, steps
