"""Trainer: losses, reward blending, policy-gradient identity, loops."""

import functools
import json
import math

import numpy as np
import pytest

from oracles import brute_decode_step, brute_encode, ref_sample_sequence
from sgcap import trainer
from sgcap.autodiff import Tape, add, scale
from sgcap.captioner import CaptionerConfig, CaptionerParams
from sgcap.decoder import decode_step, generate_greedy, init_state
from sgcap.encoder import encode
from sgcap.features import BOS, EOS, MAX_TRIPLETS, PAD, FeatureBundle, build_vocabulary
from sgcap.metrics import cider_d, compute_idf
from sgcap.trainer import (
    Phase1Config,
    Phase2Config,
    TrainConfig,
    combined_reward,
    scst_rollout,
    scst_step,
    train_scst,
    train_xe,
    validation_cider,
    xe_loss,
)
from sgcap.vse import VseConfig, VseParams, embed_caption, embed_image, vision_reward

SPATIAL_DIM = 6
CAPTIONS = ["a red cube on a table", "a blue ball near a box"]


def tiny_world(seed=0):
    """Two-image corpus with a shared vocabulary and miniature models."""
    vocab = build_vocabulary(CAPTIONS, min_count=1)
    rng = np.random.default_rng(seed)
    bundles = []
    for name in ("img0", "img1"):
        rel = np.zeros((MAX_TRIPLETS, 300))
        mask = np.zeros(MAX_TRIPLETS, dtype=bool)
        rel[0] = rng.normal(size=300)
        mask[0] = True
        bundles.append(
            FeatureBundle(name, rng.normal(size=(3, SPATIAL_DIM)), rel, mask)
        )
    config = CaptionerConfig(
        vocab_size=len(vocab), d_model=4, embed_dim=4, heads=2,
        spatial_dim=SPATIAL_DIM, max_len=8,
    )
    params = CaptionerParams.init(config, rng)
    refs = [[c.split()] for c in CAPTIONS]
    idf = compute_idf(refs)
    vse = VseParams.init(
        VseConfig(vocab_size=len(vocab), spatial_dim=SPATIAL_DIM,
                  embed_dim=5, hidden_dim=5, space_dim=4),
        rng,
    )
    train_pairs = [
        (bundles[i], vocab.encode_caption(CAPTIONS[i])) for i in range(2)
    ]
    items = [(bundles[i], refs[i]) for i in range(2)]
    return vocab, params, bundles, refs, idf, vse, train_pairs, items


class TestConfigs:
    def test_defaults_valid(self):
        config = TrainConfig()
        assert config.phase1.lr0 == 5e-4
        assert config.phase2.alpha == 0.7
        assert config.clip_norm == 5.0

    @pytest.mark.parametrize("kw", [dict(max_epochs=0), dict(patience=0), dict(lr0=0.0),
                                    dict(decay_factor=0.0), dict(batch=0)])
    def test_phase1_rejects_nonpositive(self, kw):
        with pytest.raises(ValueError):
            Phase1Config(**kw)

    @pytest.mark.parametrize("kw", [dict(epochs=0), dict(lr=-1.0), dict(alpha=1.5),
                                    dict(alpha=-0.1), dict(batch=0), dict(max_steps=0)])
    def test_phase2_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            Phase2Config(**kw)

    def test_clip_norm_positive(self):
        with pytest.raises(ValueError):
            TrainConfig(clip_norm=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make", [
        lambda x: Phase1Config(lr0=x), lambda x: Phase1Config(decay_factor=x),
        lambda x: Phase1Config(stop_loss=x), lambda x: Phase2Config(lr=x), lambda x: TrainConfig(clip_norm=x),
    ], ids=["phase1.lr0", "phase1.decay_factor", "phase1.stop_loss", "phase2.lr", "clip_norm"])
    def test_non_finite_settings_rejected(self, make, bad):
        with pytest.raises(ValueError):
            make(bad)


class TestXeLoss:
    def test_uniform_model_gives_t_log_v(self):
        vocab, params, bundles, *_ = tiny_world()
        params.decoder.out_proj.weight.data[:] = 0.0
        enc = encode(params.encoder, bundles[0])
        tokens = vocab.encode_caption("a red cube")
        loss = xe_loss(params, enc, tokens)
        t = len(tokens) - 1
        np.testing.assert_allclose(loss.item(), t * math.log(len(vocab)), atol=1e-12)

    def test_nearly_certain_model_gives_nearly_zero(self):
        vocab, params, bundles, *_ = tiny_world()
        enc = encode(params.encoder, bundles[0])
        state = init_state(params.decoder, enc)
        _, _, after = decode_step(params.decoder, enc, state, BOS)
        c_t = after.c_prev.data
        target = vocab.token_to_id("red")
        params.decoder.out_proj.weight.data[:] = 0.0
        params.decoder.out_proj.weight.data[target] = 100.0 * c_t / (c_t @ c_t)
        loss = xe_loss(params, enc, [BOS, target])
        assert 0.0 <= loss.item() < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_step_composition_oracle(self, seed):
        vocab, params, bundles, *_ = tiny_world(seed)
        enc = encode(params.encoder, bundles[0])
        tokens = vocab.encode_caption(CAPTIONS[0])
        loss = xe_loss(params, enc, tokens)
        sp, rl, a_bar = brute_encode(params.encoder, bundles[0])
        d = params.config.d_model
        h = np.tanh(params.decoder.init_h.weight.data @ a_bar)
        m = np.tanh(params.decoder.init_m.weight.data @ a_bar)
        c_prev = np.zeros(2 * d)
        want = 0.0
        for prev, target in zip(tokens[:-1], tokens[1:]):
            _, probs, h, m, c_prev = brute_decode_step(
                params.decoder, sp, rl, bundles[0].rel_mask, a_bar, h, m, c_prev, prev
            )
            want -= np.log(probs[target])
        np.testing.assert_allclose(loss.item(), want, atol=1e-9)

    def test_rejects_malformed_sequence(self):
        vocab, params, bundles, *_ = tiny_world()
        enc = encode(params.encoder, bundles[0])
        with pytest.raises(ValueError):
            xe_loss(params, enc, [4, 5, EOS])  # missing leading BOS

    def test_loss_is_positive(self):
        vocab, params, bundles, *_ = tiny_world()
        enc = encode(params.encoder, bundles[0])
        assert xe_loss(params, enc, vocab.encode_caption("a red cube")).item() > 0.0


class TestCombinedReward:
    def setup_args(self):
        vocab, params, bundles, refs, idf, vse, *_ = tiny_world()
        caption = vocab.encode_caption("a red cube on a table")[1:]  # drop BOS
        return vocab, bundles[0], refs[0], idf, vse, caption

    def test_components_match_direct_computation(self):
        vocab, bundle, refs, idf, vse, caption = self.setup_args()
        out = combined_reward(caption, bundle, refs, idf, vse, vocab, alpha=0.7)
        words = vocab.decode_tokens(caption).split()
        assert out.r_l == cider_d(words, refs, idf)
        content = [t for t in caption if t not in (PAD, BOS, EOS)]
        from sgcap.autodiff import constant

        want_rv = vision_reward(
            embed_caption(vse, content), embed_image(vse, constant(bundle.spatial))
        )
        assert out.r_v == want_rv

    def test_exact_match_earns_positive_language_reward(self):
        # guards the token-list contract: scoring the joined string as a
        # character sequence would zero this out
        vocab, bundle, refs, idf, vse, caption = self.setup_args()
        out = combined_reward(caption, bundle, refs, idf, vse, vocab, alpha=1.0)
        assert out.r_l > 1.0

    def test_alpha_one_is_language_reward_bitwise(self):
        vocab, bundle, refs, idf, vse, caption = self.setup_args()
        out = combined_reward(caption, bundle, refs, idf, vse, vocab, alpha=1.0)
        assert out.r == out.r_l

    def test_alpha_zero_is_vision_reward_bitwise(self):
        vocab, bundle, refs, idf, vse, caption = self.setup_args()
        out = combined_reward(caption, bundle, refs, idf, vse, vocab, alpha=0.0)
        assert out.r == out.r_v

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_blend_identity_exact(self, alpha):
        vocab, bundle, refs, idf, vse, caption = self.setup_args()
        out = combined_reward(caption, bundle, refs, idf, vse, vocab, alpha=alpha)
        assert out.r == alpha * out.r_l + (1.0 - alpha) * out.r_v

    def test_rejects_alpha_out_of_range(self):
        vocab, bundle, refs, idf, vse, caption = self.setup_args()
        with pytest.raises(ValueError):
            combined_reward(caption, bundle, refs, idf, vse, vocab, alpha=1.2)

    def test_empty_caption_scores_zero_vision_with_warning(self):
        vocab, bundle, refs, idf, vse, _ = self.setup_args()
        with pytest.warns(UserWarning):
            out = combined_reward([EOS], bundle, refs, idf, vse, vocab, alpha=0.5)
        assert out.r_v == 0.0
        assert out.r_l == 0.0
        assert out.r == 0.0


def token_sum_reward(tokens, bundle, refs):
    """Deterministic stand-in reward that varies with the rollout."""
    return (sum(tokens) % 7) / 7.0


class TestScstRollout:
    @pytest.mark.parametrize("seed", range(5))
    def test_logit_gradient_identity(self, seed):
        vocab, params, bundles, refs, *_ = tiny_world(seed)
        rng = np.random.default_rng(900 + seed)
        with Tape() as tape:
            rollout = scst_rollout(params, bundles[0], refs[0], token_sum_reward, rng)
        tape.backward(rollout.loss)
        for step in rollout.steps:
            onehot = np.zeros(len(vocab))
            onehot[step.target] = 1.0
            want = rollout.advantage * (step.probs.data - onehot)
            np.testing.assert_allclose(step.logits.grad, want, atol=1e-8)

    def test_zero_advantage_zeroes_all_gradients(self):
        vocab, params, bundles, refs, *_ = tiny_world()
        rng = np.random.default_rng(1)
        with Tape() as tape:
            rollout = scst_rollout(
                params, bundles[0], refs[0], lambda t, b, r: 0.5, rng
            )
        assert rollout.advantage == 0.0
        tape.backward(rollout.loss)
        total = 0.0
        for _, t in params.named_params():
            if t.grad is not None:
                total += float(np.abs(t.grad).sum())
        assert total < 1e-10

    def test_positive_advantage_pushes_sampled_tokens_up(self):
        vocab, params, bundles, refs, *_ = tiny_world(2)
        probe = scst_rollout(
            params, bundles[0], refs[0], lambda t, b, r: 0.0,
            np.random.default_rng(7),
        )
        assert probe.sampled != probe.greedy

        def favor_sampled(tokens, bundle, r):
            return 1.0 if tokens == probe.sampled else 0.0

        with Tape() as tape:
            rollout = scst_rollout(
                params, bundles[0], refs[0], favor_sampled, np.random.default_rng(7)
            )
        assert rollout.advantage == 1.0
        tape.backward(rollout.loss)
        for step in rollout.steps:
            # gradient descent then raises the sampled token's logit
            assert step.logits.grad[step.target] < 0.0

    def test_sampling_reproducible_with_same_rng_seed(self):
        vocab, params, bundles, refs, *_ = tiny_world()
        a = scst_rollout(params, bundles[0], refs[0], token_sum_reward,
                         np.random.default_rng(3))
        b = scst_rollout(params, bundles[0], refs[0], token_sum_reward,
                         np.random.default_rng(3))
        assert a.sampled == b.sampled
        assert a.greedy == b.greedy
        assert a.advantage == b.advantage


def counting_reward(calls):
    """token_sum_reward that records each caption it scores."""
    def reward(tokens, bundle, refs):
        calls.append(list(tokens))
        return token_sum_reward(tokens, bundle, refs)
    return reward


class TestScstRewardCalls:
    def test_caption_equal_to_greedy_is_scored_once(self):
        vocab, params, bundles, refs, *_ = tiny_world()
        enc = encode(params.encoder, bundles[0])
        # aim the EOS row at the first step's context: EOS gets logit 100 and
        # every other token 0, so both rollouts emit [EOS]
        _, _, after = decode_step(params.decoder, enc, init_state(params.decoder, enc), BOS)
        c_t = after.c_prev.data
        params.decoder.out_proj.weight.data[:] = 0.0
        params.decoder.out_proj.weight.data[EOS] = 100.0 * c_t / (c_t @ c_t)
        calls = []
        with Tape():
            rollout = scst_rollout(params, bundles[0], refs[0], counting_reward(calls),
                                   np.random.default_rng(0))
        assert rollout.sampled == rollout.greedy == [EOS]
        assert calls == [[EOS]]
        assert rollout.advantage == 0.0
        assert rollout.sampled_reward == token_sum_reward([EOS], bundles[0], refs[0])

    def test_distinct_captions_are_each_scored_once(self):
        vocab, params, bundles, refs, *_ = tiny_world(2)
        calls = []
        with Tape():
            rollout = scst_rollout(params, bundles[0], refs[0], counting_reward(calls),
                                   np.random.default_rng(7))
        assert rollout.sampled != rollout.greedy
        assert calls == [rollout.sampled, rollout.greedy]


class TestStackedSampleScoring:
    @pytest.mark.parametrize("reward", ["token_sum", "cider", "mmr"])
    def test_scst_steps_match_per_step_scoring(self, monkeypatch, reward):
        vocab, params, bundles, refs, idf, vse, _, items = tiny_world()
        reward_fn = {
            "token_sum": token_sum_reward,
            "cider": lambda t, b, r: combined_reward(t, b, r, idf, vse, vocab, alpha=1.0).r,
            "mmr": lambda t, b, r: combined_reward(t, b, r, idf, vse, vocab, alpha=0.7).r,
        }[reward]
        start = params.param_arrays()

        def three_steps():
            rng = np.random.default_rng(4)
            advantages = [scst_step(params, items * 2, reward_fn, lr=0.1, rng=rng)[0] for _ in range(3)]
            return params.param_arrays(), advantages

        got, advantages = three_steps()
        assert any(advantages)
        params.load_arrays(start)
        monkeypatch.setattr(trainer, "sample_sequence", ref_sample_sequence)
        want, _ = three_steps()
        for name, arr in got.items():
            assert np.array_equal(arr, want[name]), name


def full_loss_scst_step(params, batch, reward_fn, lr, rng, clip_norm=5.0):
    """scst_step with every rollout in the loss, zero advantages included."""
    leaves = [t for _, t in params.named_params()]
    for t in leaves:
        t.zero_grad()
    with Tape() as tape:
        rollouts = [scst_rollout(params, b, r, reward_fn, rng) for b, r in batch]
        loss = scale(functools.reduce(add, [r.loss for r in rollouts]), 1.0 / len(batch))
    tape.backward(loss)
    trainer._clip_gradients(leaves, clip_norm)
    trainer._sgd_step(leaves, lr)
    return [r.advantage for r in rollouts]


class TestScstStep:
    @pytest.mark.parametrize("seed, reward_fn", [
        (12, token_sum_reward),      # advantages 0, +, 0, +
        (19, token_sum_reward),      # advantages +, +, 0, 0
        (0, lambda t, b, r: 0.25),   # every advantage 0
    ])
    def test_skipping_zero_advantages_matches_full_loss(self, seed, reward_fn):
        vocab, params, bundles, refs, idf, vse, _, items = tiny_world()
        batch = items * 2
        start = params.param_arrays()
        advantages = full_loss_scst_step(params, batch, reward_fn, 0.1, np.random.default_rng(seed))
        assert 0.0 in advantages
        want = params.param_arrays()
        params.load_arrays(start)
        scst_step(params, batch, reward_fn, lr=0.1, rng=np.random.default_rng(seed))
        for name, arr in params.param_arrays().items():
            assert np.array_equal(arr, want[name]), name
        if not any(advantages):
            for name, arr in want.items():
                assert np.array_equal(arr, start[name]), name

    def test_constant_reward_leaves_params_untouched(self):
        vocab, params, bundles, refs, idf, vse, _, items = tiny_world()
        before = params.param_arrays()
        scst_step(params, items, lambda t, b, r: 0.25, lr=0.1,
                  rng=np.random.default_rng(0))
        for name, arr in params.param_arrays().items():
            assert np.array_equal(arr, before[name]), name

    def test_step_changes_params_with_varying_reward(self):
        vocab, params, bundles, refs, idf, vse, _, items = tiny_world()
        before = params.param_arrays()
        scst_step(params, items, token_sum_reward, lr=0.1, rng=np.random.default_rng(5))
        changed = any(
            not np.array_equal(arr, before[name])
            for name, arr in params.param_arrays().items()
        )
        assert changed

    def test_rejects_empty_batch(self):
        vocab, params, *_ = tiny_world()
        with pytest.raises(ValueError):
            scst_step(params, [], token_sum_reward, 0.1, np.random.default_rng(0))

    def test_nan_reward_aborts(self):
        vocab, params, bundles, refs, idf, vse, _, items = tiny_world()
        with pytest.raises(FloatingPointError):
            scst_step(params, items[:1], lambda t, b, r: float("nan"), 0.1,
                      np.random.default_rng(0))

    def test_gradient_clipping_bounds_update(self):
        vocab, params, bundles, refs, idf, vse, _, items = tiny_world()
        before = params.param_arrays()
        big_reward = lambda t, b, r: 1000.0 * token_sum_reward(t, b, r)
        scst_step(params, items, big_reward, lr=1.0, rng=np.random.default_rng(5),
                  clip_norm=0.01)
        sq = 0.0
        for name, arr in params.param_arrays().items():
            d = arr - before[name]
            sq += float((d * d).sum())
        assert math.sqrt(sq) <= 0.01 + 1e-9


def test_greedy_decodes_add_no_tape_records(monkeypatch):
    vocab, params, bundles, refs, idf, vse, _, items = tiny_world()
    added = []

    def counting_greedy(*args, **kwargs):
        before = len(tape)
        out = generate_greedy(*args, **kwargs)
        added.append(len(tape) - before)
        return out

    monkeypatch.setattr(trainer, "generate_greedy", counting_greedy)
    with Tape() as tape:
        scst_rollout(params, bundles[0], refs[0], token_sum_reward, np.random.default_rng(0))
        validation_cider(params, items, vocab, idf)
    assert added == [0, 0, 0]


def test_mmr_rewards_add_no_tape_records():
    vocab, params, bundles, refs, idf, vse, _, _ = tiny_world()
    vse_params = {id(t) for _, t in vse.named_params()}

    def reward(tokens, bundle, r):
        return combined_reward(tokens, bundle, r, idf, vse, vocab, 0.7).r

    with Tape() as tape:
        rollout = scst_rollout(params, bundles[0], refs[0], reward, np.random.default_rng(0))
    assert any(t not in (PAD, BOS, EOS) for t in rollout.sampled)  # the VSE caption LSTM ran
    assert not [inputs for _, inputs, _ in tape._records if any(id(t) in vse_params for t in inputs)]


class TestValidationCider:
    def test_matches_manual_computation(self):
        vocab, params, bundles, refs, idf, vse, _, items = tiny_world()
        got = validation_cider(params, items, vocab, idf)
        from sgcap.metrics import cider

        want = 0.0
        for bundle, rf in items:
            enc = encode(params.encoder, bundle)
            words = vocab.decode_tokens(generate_greedy(params.decoder, enc)).split()
            want += cider(words, rf, idf)
        assert got == want / len(items)

    def test_rejects_empty(self):
        vocab, params, _, _, idf, *_ = tiny_world()
        with pytest.raises(ValueError):
            validation_cider(params, [], vocab, idf)


def short_config(**phase1):
    defaults = dict(max_epochs=3, patience=5, lr0=0.05, decay_every=2,
                    decay_factor=0.5, batch=2)
    defaults.update(phase1)
    return TrainConfig(phase1=Phase1Config(**defaults), seed=11)


class TestTrainXe:
    def test_rejects_empty_splits(self):
        vocab, params, bundles, refs, idf, vse, pairs, items = tiny_world()
        with pytest.raises(ValueError):
            train_xe(params, [], items, vocab, short_config(), idf)
        with pytest.raises(ValueError):
            train_xe(params, pairs, [], vocab, short_config(), idf)

    def test_history_records_and_lr_schedule(self):
        vocab, params, bundles, refs, idf, vse, pairs, items = tiny_world()
        result = train_xe(params, pairs, items, vocab, short_config(), idf)
        assert len(result.history) == 3
        assert [r["epoch"] for r in result.history] == [0, 1, 2]
        assert set(result.history[0]) == {"epoch", "loss", "val_cider", "lr"}
        # decay_every=2, factor=0.5: epochs 0,1 at lr0 and epoch 2 halved
        assert result.history[0]["lr"] == 0.05
        assert result.history[1]["lr"] == 0.05
        assert result.history[2]["lr"] == 0.025

    def test_patience_stops_after_flat_validation(self):
        vocab, params, bundles, refs, idf, vse, pairs, items = tiny_world()
        # vanishing lr freezes the model, so validation never improves
        config = short_config(max_epochs=20, patience=5, lr0=1e-30)
        result = train_xe(params, pairs, items, vocab, config, idf)
        assert result.stop_reason == "patience"
        assert len(result.history) == 6  # best at epoch 0 plus 5 flat epochs
        assert result.best_epoch == 0

    def test_stop_loss_short_circuits(self):
        vocab, params, bundles, refs, idf, vse, pairs, items = tiny_world()
        config = short_config(max_epochs=20, stop_loss=1e9)
        result = train_xe(params, pairs, items, vocab, config, idf)
        assert result.stop_reason == "stop_loss"
        assert len(result.history) == 1

    def test_best_epoch_params_restored_bitwise(self):
        # vanishing lr keeps validation flat, so the best epoch is 0 in both
        # runs; the long run must restore exactly what the short run ends with
        vocab, params_a, bundles, refs, idf, vse, pairs, items = tiny_world()
        train_xe(params_a, pairs, items, vocab,
                 short_config(max_epochs=1, lr0=1e-30), idf)
        vocab, params_b, bundles, refs, idf, vse, pairs, items = tiny_world()
        result = train_xe(params_b, pairs, items, vocab,
                          short_config(max_epochs=8, patience=3, lr0=1e-30), idf)
        assert result.best_epoch == 0
        want = params_a.param_arrays()
        for name, arr in params_b.param_arrays().items():
            assert np.array_equal(arr, want[name]), name

    def test_deterministic_given_seed(self, tmp_path):
        runs = []
        for _ in range(2):
            vocab, params, bundles, refs, idf, vse, pairs, items = tiny_world()
            log = tmp_path / f"log{len(runs)}.jsonl"
            result = train_xe(params, pairs, items, vocab, short_config(), idf,
                              log_path=log)
            runs.append((result, params.param_arrays(), log.read_bytes()))
        assert runs[0][0].history == runs[1][0].history
        assert runs[0][2] == runs[1][2]
        for name in runs[0][1]:
            assert np.array_equal(runs[0][1][name], runs[1][1][name])

    def test_log_file_is_jsonl(self, tmp_path):
        vocab, params, bundles, refs, idf, vse, pairs, items = tiny_world()
        log = tmp_path / "train.jsonl"
        result = train_xe(params, pairs, items, vocab, short_config(), idf,
                          log_path=log)
        lines = log.read_text().splitlines()
        assert len(lines) == len(result.history)
        assert [json.loads(s) for s in lines] == result.history

    def test_rerun_into_same_log_replaces_it(self, tmp_path):
        log = tmp_path / "train.jsonl"
        for _ in range(2):
            vocab, params, bundles, refs, idf, vse, pairs, items = tiny_world()
            result = train_xe(params, pairs, items, vocab, short_config(), idf,
                              log_path=log)
        assert [json.loads(s) for s in log.read_text().splitlines()] == result.history

    def test_loss_decreases_on_tiny_set(self):
        vocab, params, bundles, refs, idf, vse, pairs, items = tiny_world()
        config = short_config(max_epochs=10, patience=10, lr0=0.1)
        result = train_xe(params, pairs, items, vocab, config, idf)
        assert result.history[-1]["loss"] < result.history[0]["loss"]

    @pytest.mark.parametrize("diverge_at, restored_to", [
        (0, "their starting values"),
        (1, "epoch 0"),
    ])
    def test_divergence_restores_best_params(self, monkeypatch, diverge_at, restored_to):
        # the loss turns NaN from epoch ``diverge_at`` on; the best snapshot
        # then is the start, or the parameters epoch 0 was validated with
        vocab, params, bundles, refs, idf, vse, pairs, items = tiny_world()
        validated = [params.param_arrays()]
        real_loss, real_validation = trainer.xe_loss, trainer.validation_cider

        def xe_loss(*args):
            loss = real_loss(*args)
            return scale(loss, math.nan) if len(validated) > diverge_at else loss

        def validation_cider(p, *args):
            validated.append(p.param_arrays())
            return real_validation(p, *args)

        monkeypatch.setattr(trainer, "xe_loss", xe_loss)
        monkeypatch.setattr(trainer, "validation_cider", validation_cider)
        with pytest.raises(FloatingPointError,
                           match=f"diverged at epoch {diverge_at}; parameters restored to {restored_to}"):
            train_xe(params, pairs, items, vocab, short_config(max_epochs=3), idf)
        assert len(validated) == diverge_at + 1
        for name, arr in params.param_arrays().items():
            assert np.array_equal(arr, validated[diverge_at][name]), name


def scst_config(**phase2):
    defaults = dict(epochs=2, patience=5, lr=1e-3, batch=2, alpha=0.7)
    defaults.update(phase2)
    return TrainConfig(phase2=Phase2Config(**defaults), seed=13)


class TestTrainScst:
    def test_rejects_bad_reward_name(self):
        vocab, params, bundles, refs, idf, vse, pairs, items = tiny_world()
        with pytest.raises(ValueError):
            train_scst(params, items, items, vocab, scst_config(), idf, vse,
                       reward="bleu")

    def test_rejects_empty_splits(self):
        vocab, params, bundles, refs, idf, vse, pairs, items = tiny_world()
        with pytest.raises(ValueError):
            train_scst(params, [], items, vocab, scst_config(), idf, vse)
        with pytest.raises(ValueError):
            train_scst(params, items, [], vocab, scst_config(), idf, vse)

    def test_history_and_determinism(self):
        runs = []
        for _ in range(2):
            vocab, params, bundles, refs, idf, vse, pairs, items = tiny_world()
            result = train_scst(params, items, items, vocab, scst_config(), idf, vse)
            runs.append((result.history, params.param_arrays()))
        assert runs[0][0] == runs[1][0]
        assert set(runs[0][0][0]) == {"epoch", "mean_reward", "val_cider", "lr"}
        for name in runs[0][1]:
            assert np.array_equal(runs[0][1][name], runs[1][1][name])

    def test_rerun_into_same_log_replaces_it(self, tmp_path):
        log = tmp_path / "scst.jsonl"
        log.write_text("stale\n")
        texts = []
        for _ in range(2):
            vocab, params, bundles, refs, idf, vse, pairs, items = tiny_world()
            result = train_scst(params, items, items, vocab, scst_config(), idf, vse,
                                log_path=log)
            texts.append(log.read_text())
        assert texts[0] == texts[1]
        assert [json.loads(s) for s in texts[1].splitlines()] == result.history

    def test_max_steps_caps_iterations(self):
        vocab, params, bundles, refs, idf, vse, pairs, items = tiny_world()
        config = scst_config(epochs=10, batch=1, max_steps=1)
        result = train_scst(params, items, items, vocab, config, idf, vse)
        assert result.stop_reason == "max_steps"
        assert len(result.history) == 1

    def test_reward_components_stay_frozen(self):
        vocab, params, bundles, refs, idf, vse, pairs, items = tiny_world()
        vse_before = {n: a.tobytes() for n, a in vse.param_arrays().items()}
        idf_before = (dict(idf.weights), idf.image_count)
        train_scst(params, items, items, vocab, scst_config(), idf, vse)
        assert {n: a.tobytes() for n, a in vse.param_arrays().items()} == vse_before
        assert (dict(idf.weights), idf.image_count) == idf_before

    def test_pure_language_reward_mode_needs_no_reward_net(self):
        vocab, params, bundles, refs, idf, vse, pairs, items = tiny_world()
        result = train_scst(params, items, items, vocab, scst_config(), idf,
                            vse=None, reward="cider")
        assert len(result.history) == 2

    def test_mmr_requires_reward_net(self):
        vocab, params, bundles, refs, idf, vse, pairs, items = tiny_world()
        with pytest.raises(ValueError, match="reward network"):
            train_scst(params, items, items, vocab, scst_config(), idf, vse=None)

    def test_divergence_restores_best_params(self):
        vocab, params, bundles, refs, idf, vse, pairs, items = tiny_world()
        vse.image_proj.weight.data[:] = np.nan
        before = params.param_arrays()
        with np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError, match="restored"):
                train_scst(params, items, items, vocab, scst_config(), idf, vse)
        for name, arr in params.param_arrays().items():
            assert np.array_equal(arr, before[name]), name
