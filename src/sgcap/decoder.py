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
thus 2 tape ops: its whole recurrence (1, ``decoder_cell``: the visual
sum, the token's embedding row, the LSTM input, the LSTM cell and the
context vector of both paths) and the output head (1, ``linear_each``).
At toy scale the encoder records 21 ops, ``init_state`` 10, and a whole
7-step cross-entropy pair 44. Greedy and sampled captions run
through one rollout loop, ``_rollout``, and differ only in how a step
picks its token. Teacher forcing keeps its own loop, which runs the
output head once, over the stacked context vectors. Forced and sampled
captions are scored alike: one ``log_prob`` over the stacked (T, vocab)
logits, then one ``sum_all``, the only score taped. At paper scale a
free-running step reads about 137 MB of weights through one-row
products (the 10k x 1,024 head, the LSTM's four gate weights, both
paths' query and AoA weights); with BLAS on one thread and a second CPU,
``autodiff`` runs half of them on a worker thread, with values bitwise
those of one thread.

Sequence conventions: rollouts start from BOS (never returned); emitted
tokens include the terminating EOS when one is produced within the
length budget. Scoring accepts rollouts truncated at the budget (no
terminal EOS) and, as a degenerate ending, a final sampled PAD; PAD and
EOS are rejected anywhere else, and PAD is never fed back in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# The step runs as one decoder_cell op. aoa_block, multi_head_attention
# and lstm_step stay importable here because perfbench/tracing.py times
# them at these names, and fails to install without them.
from .attention import AoAParams, MultiHeadParams, aoa_block, multi_head_attention  # noqa: F401
from .autodiff import (
    KeyValues,
    Tensor,
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
from .nn import EmbeddingTable, LinearLayer, LstmParams, LstmState, ParamArrays, lstm_step  # noqa: F401

__all__ = [
    "DecoderParams",
    "DecoderState",
    "StepScore",
    "init_state",
    "decode_step",
    "generate_greedy",
    "sample_sequence",
]


@dataclass
class DecoderParams(ParamArrays):
    prefix = "decoder"

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


@dataclass
class DecoderState:
    """Carried between steps; decode_step returns a fresh one."""

    lstm: LstmState
    c_prev: Tensor  # previous context vector, (2 * d_model,)
    t: int
    kv_spatial: KeyValues  # projected keys and values of refined_spatial, split by head
    kv_rel: Optional[KeyValues]  # of refined_rel, key-masked; None without relationships
    cell: tuple  # decoder_cell's LSTM weights and paths, gathered once per caption


@dataclass
class StepScore:
    """Per-step artifacts kept for loss construction and audits.

    A step's ``log_prob`` is an untracked scalar: only the caption total is
    on the tape. A sampled step's ``logits`` are its decode step's tape output;
    a teacher-forced step's, an untracked row of the caption's logits matrix.
    """

    logits: Tensor
    probs: Tensor
    log_prob: Tensor  # scalar: log prob of the realized target
    target: int


def init_state(params: DecoderParams, enc: EncoderOutput) -> DecoderState:
    """h0 and m0 are tanh images of the summary; context starts at zero.

    Once per caption, here, each path's keys and values are projected and
    split by head, and the weights of every step's ``decoder_cell`` are
    gathered.
    """
    h0 = tanh(params.init_h.apply_vec(enc.a_bar))
    m0 = tanh(params.init_m.apply_vec(enc.a_bar))
    spatial, rel = params.spatial_att, params.rel_att
    kv_spatial = key_values(*spatial.project_memory(enc.refined_spatial), spatial.heads)
    kv_rel = (key_values(*rel.project_memory(enc.refined_rel), rel.heads, enc.rel_mask)
              if enc.rel_mask.any() else None)
    c0 = constant(np.zeros(2 * params.d_model))
    cell = (params.lstm.weights(), ((spatial.w_q, kv_spatial, params.spatial_aoa.weights()),
                                    (rel.w_q, kv_rel, params.rel_aoa.weights())))
    return DecoderState(LstmState(h0, m0), c0, 0, kv_spatial, kv_rel, cell)


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
    h, m, c_t = decoder_cell(enc.a_bar, state.c_prev, params.embedding.weight, token_id,
                             state.lstm.h, state.lstm.m, *state.cell)
    return DecoderState(LstmState(h, m), c_t, state.t + 1, state.kv_spatial, state.kv_rel, state.cell)


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


def _forced_log_probs(params: DecoderParams, enc: EncoderOutput, gt_tokens) -> tuple[Tensor, Tensor, list[int]]:
    """The (T, vocab) logits of forced decoding, each step's log-prob of its
    target, and the targets.

    gt_tokens is BOS, words..., EOS for ground truth; a rollout truncated
    at the length budget (no terminal EOS) is also accepted. The logits
    never feed back into the recurrence here, so the output head runs
    once, over the (T, 2 * d_model) stack of the steps' context vectors.
    """
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


def _rollout(params: DecoderParams, enc: EncoderOutput, max_len: Optional[int],
             pick: Callable[[Tensor, Tensor], int]) -> list[int]:
    """Free-running decode from BOS, feeding back the token ``pick(logits, probs)`` chooses
    at each step; stops after an emitted EOS or PAD, or at max_len (``params.max_len`` if None)."""
    state = init_state(params, enc)
    out: list[int] = []
    token = BOS
    for _ in range(params.max_len if max_len is None else int(max_len)):
        logits, probs, state = decode_step(params, enc, state, token)
        token = pick(logits, probs)
        out.append(token)
        if token in (EOS, PAD):
            break
    return out


def generate_greedy(params: DecoderParams, enc: EncoderOutput, max_len: Optional[int] = None) -> list[int]:
    """Argmax rollout; ties resolve to the lowest index.

    Returns emitted tokens (EOS included when emitted), at most max_len.
    """
    return _rollout(params, enc, max_len, lambda logits, probs: int(np.argmax(probs.data)))


def sample_sequence(params: DecoderParams, enc: EncoderOutput, rng: np.random.Generator,
                    max_len: Optional[int] = None) -> tuple[list[int], Optional[Tensor], list[StepScore]]:
    """Multinomial rollout from each step's distribution.

    Returns (tokens, total log-prob tensor, per-step scores); the total is
    None for a zero budget. Re-scoring the returned tokens with
    ``_forced_log_probs`` reproduces the total within 1e-12: its batched
    output head rounds differently.
    """
    rows: list[tuple[Tensor, Tensor]] = []

    def pick(logits: Tensor, probs: Tensor) -> int:
        rows.append((logits, probs))
        return int(rng.choice(params.vocab_size, p=probs.data))

    out = _rollout(params, enc, max_len, pick)
    if not out:
        return out, None, []
    logits = reshape(concat([lg for lg, _ in rows], axis=0), (len(out), params.vocab_size))
    lps = log_prob(logits, out)
    return out, sum_all(lps), [StepScore(lg, pr, constant(lp), t) for (lg, pr), lp, t in zip(rows, lps.data, out)]
