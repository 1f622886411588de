"""Decoder: step math vs oracle, rollouts, forced scoring, gradients."""

import numpy as np
import pytest

from oracles import brute_decode_step, brute_encode, brute_teacher_forced_logits, teacher_forced_logprobs
from sgcap.autodiff import Tape, constant, grad_check, mul, scale, sum_all
from sgcap.captioner import CaptionerConfig, CaptionerParams
from sgcap.decoder import (
    decode_step,
    generate_greedy,
    init_state,
    sample_sequence,
)
from sgcap.encoder import encode
from sgcap.features import BOS, EOS, MAX_TRIPLETS, PAD, FeatureBundle
from sgcap.trainer import xe_loss


def tiny_setup(seed=0, vocab_size=9, d_model=6, heads=2, spatial_dim=5, n_rel=3):
    rng = np.random.default_rng(seed)
    config = CaptionerConfig(
        vocab_size=vocab_size, d_model=d_model, embed_dim=4, heads=heads,
        spatial_dim=spatial_dim, max_len=8,
    )
    params = CaptionerParams.init(config, rng)
    rel = np.zeros((MAX_TRIPLETS, 300))
    mask = np.zeros(MAX_TRIPLETS, dtype=bool)
    if n_rel:
        rel[:n_rel] = rng.normal(size=(n_rel, 300))
        mask[:n_rel] = True
    bundle = FeatureBundle("img", rng.normal(size=(4, spatial_dim)), rel, mask)
    return rng, params, bundle


class TestDecodeStep:
    def test_probs_sum_to_one_each_step(self):
        _, params, bundle = tiny_setup()
        enc = encode(params.encoder, bundle)
        state = init_state(params.decoder, enc)
        token = BOS
        for _ in range(5):
            _, probs, state = decode_step(params.decoder, enc, state, token)
            np.testing.assert_allclose(probs.data.sum(), 1.0, atol=1e-12)
            token = int(np.argmax(probs.data))
            if token == EOS:
                break

    def test_rejects_pad_input(self):
        _, params, bundle = tiny_setup()
        enc = encode(params.encoder, bundle)
        state = init_state(params.decoder, enc)
        with pytest.raises(ValueError):
            decode_step(params.decoder, enc, state, PAD)

    def test_rejects_out_of_range(self):
        _, params, bundle = tiny_setup(vocab_size=9)
        enc = encode(params.encoder, bundle)
        state = init_state(params.decoder, enc)
        with pytest.raises(IndexError):
            decode_step(params.decoder, enc, state, 9)

    def test_rejects_negative_token(self):
        # the decoder cell is the one range check: -1 must not wrap to the last row
        _, params, bundle = tiny_setup(vocab_size=9)
        enc = encode(params.encoder, bundle)
        state = init_state(params.decoder, enc)
        with pytest.raises(IndexError):
            decode_step(params.decoder, enc, state, -1)

    def test_does_not_mutate_input_state(self):
        _, params, bundle = tiny_setup()
        enc = encode(params.encoder, bundle)
        state = init_state(params.decoder, enc)
        h0 = state.lstm.h.data.copy()
        c0 = state.c_prev.data.copy()
        decode_step(params.decoder, enc, state, BOS)
        np.testing.assert_array_equal(state.lstm.h.data, h0)
        np.testing.assert_array_equal(state.c_prev.data, c0)
        assert state.t == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_two_steps_match_straight_line_oracle(self, seed):
        _, params, bundle = tiny_setup(seed=seed)
        enc = encode(params.encoder, bundle)
        es, er, a_bar = brute_encode(params.encoder, bundle)

        state = init_state(params.decoder, enc)
        h = np.tanh(params.decoder.init_h.weight.data @ a_bar + params.decoder.init_h.bias.data)
        m = np.tanh(params.decoder.init_m.weight.data @ a_bar + params.decoder.init_m.bias.data)
        np.testing.assert_allclose(state.lstm.h.data, h, atol=1e-12)
        np.testing.assert_allclose(state.lstm.m.data, m, atol=1e-12)

        c_prev = np.zeros(2 * params.config.d_model)
        token = BOS
        total_lp_oracle = 0.0
        lp_lib = None
        targets = [4, 5]
        for target in targets:
            logits_o, probs_o, h, m, c_prev = brute_decode_step(
                params.decoder, es, er, bundle.rel_mask, a_bar, h, m, c_prev, token
            )
            logits, probs, state = decode_step(params.decoder, enc, state, token)
            np.testing.assert_allclose(logits.data, logits_o, atol=1e-9)
            np.testing.assert_allclose(probs.data, probs_o, atol=1e-9)
            total_lp_oracle += np.log(probs_o[target])
            token = target

        total, steps = teacher_forced_logprobs(params.decoder, enc, [BOS] + targets)
        np.testing.assert_allclose(total.item(), total_lp_oracle, atol=1e-12)

    def test_all_masked_relationships_still_decode(self):
        _, params, bundle = tiny_setup(n_rel=0)
        enc = encode(params.encoder, bundle)
        tokens = generate_greedy(params.decoder, enc)
        assert 1 <= len(tokens) <= params.decoder.max_len


class TestTeacherForced:
    def test_rejects_missing_bos(self):
        _, params, bundle = tiny_setup()
        enc = encode(params.encoder, bundle)
        with pytest.raises(ValueError):
            teacher_forced_logprobs(params.decoder, enc, [4, 5, EOS])

    def test_rejects_interior_eos(self):
        _, params, bundle = tiny_setup()
        enc = encode(params.encoder, bundle)
        with pytest.raises(ValueError):
            teacher_forced_logprobs(params.decoder, enc, [BOS, EOS, 4, EOS])

    def test_rejects_interior_pad(self):
        _, params, bundle = tiny_setup()
        enc = encode(params.encoder, bundle)
        with pytest.raises(ValueError):
            teacher_forced_logprobs(params.decoder, enc, [BOS, PAD, 4, EOS])

    def test_rejects_too_short(self):
        _, params, bundle = tiny_setup()
        enc = encode(params.encoder, bundle)
        with pytest.raises(ValueError):
            teacher_forced_logprobs(params.decoder, enc, [BOS])

    def test_accepts_truncated_rollout(self):
        _, params, bundle = tiny_setup()
        enc = encode(params.encoder, bundle)
        total, steps = teacher_forced_logprobs(params.decoder, enc, [BOS, 4, 5, 6])
        assert len(steps) == 3
        assert total.item() < 0.0

    def test_log_prob_is_sum_of_steps(self):
        _, params, bundle = tiny_setup()
        enc = encode(params.encoder, bundle)
        total, steps = teacher_forced_logprobs(params.decoder, enc, [BOS, 4, 5, EOS])
        np.testing.assert_allclose(total.item(), sum(s.log_prob.item() for s in steps), atol=1e-12)


class TestGreedy:
    def test_deterministic(self):
        _, params, bundle = tiny_setup()
        enc = encode(params.encoder, bundle)
        assert generate_greedy(params.decoder, enc) == generate_greedy(params.decoder, enc)

    def test_respects_max_len(self):
        _, params, bundle = tiny_setup()
        enc = encode(params.encoder, bundle)
        tokens = generate_greedy(params.decoder, enc, max_len=3)
        assert len(tokens) <= 3

    def test_tie_breaks_to_lowest_index(self):
        _, params, bundle = tiny_setup()
        # identical output rows make every logit equal: argmax must pick id 0
        params.decoder.out_proj.weight.data[:] = 1.0
        enc = encode(params.encoder, bundle)
        tokens = generate_greedy(params.decoder, enc, max_len=4)
        assert tokens[0] == PAD  # index 0 wins the tie
        assert len(tokens) == 1  # PAD is a terminator

    def test_stops_at_eos(self):
        _, params, bundle = tiny_setup()
        enc = encode(params.encoder, bundle)
        # measure the step-1 context, then aim the EOS row at it so its
        # logit is exactly 100 while every other row stays at 0
        state = init_state(params.decoder, enc)
        _, _, after = decode_step(params.decoder, enc, state, BOS)
        c_t = after.c_prev.data
        params.decoder.out_proj.weight.data[:] = 0.0
        params.decoder.out_proj.weight.data[EOS] = 100.0 * c_t / (c_t @ c_t)
        tokens = generate_greedy(params.decoder, enc)
        assert tokens == [EOS]


class TestProjectedMemory:
    @pytest.mark.parametrize("n_rel", [0, 3])
    def test_cached_keys_values_match_per_step_oracle_at_toy_scale(self, n_rel):
        _, params, bundle = tiny_setup(
            seed=n_rel, vocab_size=30, d_model=32, heads=2, spatial_dim=64, n_rel=n_rel
        )
        tokens = [BOS] + list(np.random.default_rng(5).integers(4, 30, size=8)) + [EOS]
        enc = encode(params.encoder, bundle)
        _, steps = teacher_forced_logprobs(params.decoder, enc, tokens)
        want = brute_teacher_forced_logits(params, bundle, tokens)
        assert len(steps) == len(want) == 9
        for step, logits in zip(steps, want):
            np.testing.assert_allclose(step.logits.data, logits, rtol=0, atol=1e-12)

    def test_no_relationship_keys_without_relationships(self):
        _, params, bundle = tiny_setup(n_rel=0)
        state = init_state(params.decoder, encode(params.encoder, bundle))
        assert state.kv_rel is None
        assert state.kv_spatial[0].shape == (4, params.config.d_model)


class TestSampling:
    def test_seeded_reproducible(self):
        _, params, bundle = tiny_setup()
        enc = encode(params.encoder, bundle)
        t1, lp1, _ = sample_sequence(params.decoder, enc, np.random.default_rng(123))
        t2, lp2, _ = sample_sequence(params.decoder, enc, np.random.default_rng(123))
        assert t1 == t2
        assert lp1.item() == lp2.item()

    @pytest.mark.parametrize("seed", range(5))
    def test_logprobs_match_teacher_forced_recompute(self, seed):
        _, params, bundle = tiny_setup(seed=seed)
        enc = encode(params.encoder, bundle)
        tokens, lp, _ = sample_sequence(params.decoder, enc, np.random.default_rng(seed + 40))
        total, _ = teacher_forced_logprobs(params.decoder, enc, [BOS] + tokens)
        np.testing.assert_allclose(lp.item(), total.item(), atol=1e-12)

    def test_respects_budget(self):
        _, params, bundle = tiny_setup()
        enc = encode(params.encoder, bundle)
        tokens, _, steps = sample_sequence(params.decoder, enc, np.random.default_rng(7), max_len=4)
        assert len(tokens) <= 4
        assert len(steps) == len(tokens)


class TestStackedSampleScoring:
    @pytest.mark.parametrize("seed", range(8))
    def test_records_its_decode_steps_plus_four(self, seed):
        _, params, bundle = tiny_setup(seed=seed)
        enc = encode(params.encoder, bundle)
        with Tape() as sampled:
            tokens, _, _ = sample_sequence(params.decoder, enc, np.random.default_rng(seed + 70))
        with Tape() as decoded:
            state = init_state(params.decoder, enc)
            for token in [BOS] + tokens[:-1]:
                _, _, state = decode_step(params.decoder, enc, state, token)
        # concat, reshape, log_prob and sum_all, whatever the caption's length
        assert len(sampled) == len(decoded) + 4

    @pytest.mark.parametrize("seed", range(4))
    def test_step_log_probs_are_untracked_teacher_forced_values(self, seed):
        _, params, bundle = tiny_setup(seed=seed)
        with Tape():
            enc = encode(params.encoder, bundle)
            tokens, total, steps = sample_sequence(params.decoder, enc, np.random.default_rng(seed + 80))
            _, forced = teacher_forced_logprobs(params.decoder, enc, [BOS] + tokens)
        assert total.requires_grad
        assert len(steps) == len(forced) == len(tokens)
        for step, want in zip(steps, forced):
            assert step.logits.requires_grad and not step.log_prob.requires_grad
            np.testing.assert_allclose(step.log_prob.item(), want.log_prob.item(), atol=1e-12)


class TestRolloutLoop:
    def test_zero_budget_emits_nothing_and_draws_nothing(self):
        _, params, bundle = tiny_setup()
        enc = encode(params.encoder, bundle)
        rng = np.random.default_rng(11)
        before = rng.bit_generator.state
        assert generate_greedy(params.decoder, enc, max_len=0) == []
        assert sample_sequence(params.decoder, enc, rng, max_len=0) == ([], None, [])
        assert rng.bit_generator.state == before


class TestDecoderGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_decode_step_grad_check(self, seed):
        rng, params, bundle = tiny_setup(seed=seed, vocab_size=7, d_model=4, heads=2, spatial_dim=4)
        enc = encode(params.encoder, bundle)
        leaves = [t for _, t in params.decoder.named_params()]
        weights = np.random.default_rng(99).normal(size=7)

        def f(*leaf_values):
            state = init_state(params.decoder, enc)
            logits, probs, _ = decode_step(params.decoder, enc, state, BOS)
            return sum_all(mul(logits, constant(weights)))

        # deeper composites need a larger step: central-difference roundoff
        # noise scales as 1/step and swamps coordinates with tiny gradients
        assert grad_check(f, leaves, step=1e-5) <= 1e-5

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sequence_logprob_grad_check_with_encoder(self, seed):
        rng, params, bundle = tiny_setup(seed=seed, vocab_size=7, d_model=4, heads=2, spatial_dim=4)
        leaves = [t for _, t in params.named_params()]

        def f(*leaf_values):
            enc = encode(params.encoder, bundle)
            total, _ = teacher_forced_logprobs(params.decoder, enc, [BOS, 4, 5, EOS])
            return scale(total, -1.0)

        assert grad_check(f, leaves, step=1e-5) <= 1e-5

    def test_backward_reaches_encoder_and_embedding(self):
        _, params, bundle = tiny_setup()
        with Tape() as tape:
            enc = encode(params.encoder, bundle)
            total, _ = teacher_forced_logprobs(params.decoder, enc, [BOS, 4, 5, EOS])
            loss = scale(total, -1.0)
        tape.backward(loss)
        assert params.encoder.spatial_proj.weight.grad is not None
        assert params.decoder.embedding.weight.grad is not None
        assert np.abs(params.decoder.out_proj.weight.grad).sum() > 0

    def test_underflowed_target_stays_finite(self):
        _, params, bundle = tiny_setup()
        enc = encode(params.encoder, bundle)
        # aim word 4's row against the step-1 context so that its logit is
        # -1000: its softmax probability underflows to exactly 0.0
        _, _, after = decode_step(params.decoder, enc, init_state(params.decoder, enc), BOS)
        c_t = after.c_prev.data
        params.decoder.out_proj.weight.data[4] = -1000.0 * c_t / (c_t @ c_t)
        tokens = [BOS, 4, EOS]
        with Tape() as tape:
            enc = encode(params.encoder, bundle)
            total, steps = teacher_forced_logprobs(params.decoder, enc, tokens)
            loss = xe_loss(params, enc, tokens)
        logits = steps[0].logits.data
        assert logits.max() - logits[4] > 800 and steps[0].probs.data[4] == 0.0
        assert np.isfinite(total.item()) and np.isfinite(loss.item())
        tape.backward(loss)
        assert np.isfinite(params.decoder.out_proj.weight.grad).all()
