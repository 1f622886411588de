"""Shared embedding space: branch math, ranking loss, reward, training."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

import sgcap.nn as nn
import sgcap.vse as vse
from oracles import brute_hinge, brute_lstm_step, ref_embed_caption, ref_train_vse, ref_vse_batch_loss
from sgcap.autodiff import (
    Tape, Tensor, _active_tape, constant, gather_rows, grad_check, mean_rows, mul, parameter, reshape, scale,
    sum_all,
)
from sgcap.vse import (
    EmbeddingPair,
    VseConfig,
    VseParams,
    embed_caption,
    embed_image,
    hinge_loss,
    train_vse,
    vision_reward,
)

TINY = dict(vocab_size=9, spatial_dim=6, embed_dim=5, hidden_dim=5, space_dim=4)


def tiny_params(seed=0, **overrides):
    config = VseConfig(**{**TINY, **overrides})
    return VseParams.init(config, np.random.default_rng(seed)), config


def leaf_grads(params, build):
    """The loss ``build()`` records and the gradient of every leaf, in manifest order."""
    return leaf_grads_of(params.weights(), build)


def leaf_grads_of(leaves, build):
    """The loss ``build()`` records and the gradients of ``leaves``."""
    for t in leaves:
        t.zero_grad()
    with Tape() as tape:
        loss = build()
    tape.backward(loss)
    grads = [None if t.grad is None else t.grad.copy() for t in leaves]
    for t in leaves:
        t.zero_grad()
    return loss.item(), grads


class TestConfig:
    def test_rejects_tiny_vocab(self):
        with pytest.raises(ValueError):
            VseConfig(vocab_size=4)

    def test_rejects_negative_margin(self):
        for margin in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="margin"):
                VseConfig(vocab_size=9, margin=margin)

    def test_dict_round_trip(self):
        config = VseConfig(**TINY)
        assert VseConfig(**asdict(config)) == config


class TestEmbedImage:
    def test_identical_rows_equal_projection_of_row(self):
        params, config = tiny_params()
        v = np.arange(config.spatial_dim, dtype=np.float64)
        stacked = constant(np.tile(v, (4, 1)))
        got = embed_image(params, stacked)
        want = params.image_proj.weight.data @ v + params.image_proj.bias.data
        np.testing.assert_allclose(got.data, want, atol=1e-12)

    def test_zero_features_zero_bias_give_zero_vector(self):
        params, config = tiny_params()
        params.image_proj.bias.data[:] = 0.0
        got = embed_image(params, constant(np.zeros((3, config.spatial_dim))))
        assert np.all(got.data == 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_mean_then_matmul(self, seed):
        params, config = tiny_params(seed)
        rng = np.random.default_rng(100 + seed)
        spatial = rng.normal(size=(7, config.spatial_dim))
        got = embed_image(params, constant(spatial))
        want = params.image_proj.weight.data @ spatial.mean(axis=0) + params.image_proj.bias.data
        np.testing.assert_allclose(got.data, want, atol=1e-12)

    def test_rejects_empty_feature_map(self):
        params, config = tiny_params()
        with pytest.raises(ValueError):
            embed_image(params, constant(np.zeros((0, config.spatial_dim))))


class TestEmbedCaption:
    def test_deterministic(self):
        params, _ = tiny_params()
        a = embed_caption(params, [1, 4, 5])
        b = embed_caption(params, [1, 4, 5])
        assert np.array_equal(a.data, b.data)

    def test_single_token_is_one_step_plus_projection(self):
        params, config = tiny_params()
        got = embed_caption(params, [4])
        x = params.embedding.weight.data[4]
        h, _ = brute_lstm_step(
            params.lstm, np.zeros(config.hidden_dim), np.zeros(config.hidden_dim), x
        )
        want = params.caption_proj.weight.data @ h + params.caption_proj.bias.data
        np.testing.assert_allclose(got.data, want, atol=1e-12)

    def test_three_tokens_match_unrolled_steps(self):
        params, config = tiny_params(3)
        tokens = [4, 7, 5]
        h = np.zeros(config.hidden_dim)
        m = np.zeros(config.hidden_dim)
        for t in tokens:
            h, m = brute_lstm_step(params.lstm, h, m, params.embedding.weight.data[t])
        want = params.caption_proj.weight.data @ h + params.caption_proj.bias.data
        got = embed_caption(params, tokens)
        np.testing.assert_allclose(got.data, want, atol=1e-12)

    def test_rejects_empty_sequence(self):
        params, _ = tiny_params()
        with pytest.raises(ValueError):
            embed_caption(params, [])

    def test_rejects_out_of_range_token(self):
        params, _ = tiny_params()
        with pytest.raises(IndexError):
            embed_caption(params, [99])


def random_pairs(rng, b, d):
    i_embs = [rng.normal(size=d) for _ in range(b)]
    w_embs = [rng.normal(size=d) for _ in range(b)]
    pairs = [EmbeddingPair(Tensor(i), Tensor(w)) for i, w in zip(i_embs, w_embs)]
    return pairs, i_embs, w_embs


class TestHingeLoss:
    def test_rejects_batch_of_one(self):
        pairs, _, _ = random_pairs(np.random.default_rng(0), 1, 4)
        with pytest.raises(ValueError):
            hinge_loss(pairs)

    def test_satisfied_margins_give_zero(self):
        # orthonormal matched pairs: diagonal similarity 1, off-diagonal 0
        eye = np.eye(4)
        pairs = [EmbeddingPair(Tensor(eye[i]), Tensor(eye[i])) for i in range(4)]
        assert hinge_loss(pairs, margin=0.1).item() == 0.0

    @pytest.mark.parametrize("b", [2, 3, 5])
    def test_identical_embeddings_forced_value(self, b):
        v = np.array([0.3, -0.2, 0.8])
        pairs = [EmbeddingPair(Tensor(v), Tensor(v)) for _ in range(b)]
        beta = 0.25
        got = hinge_loss(pairs, margin=beta).item()
        np.testing.assert_allclose(got, 2 * b * (b - 1) * beta, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_double_sum_oracle(self, seed):
        rng = np.random.default_rng(seed)
        b = int(rng.integers(2, 6))
        pairs, i_embs, w_embs = random_pairs(rng, b, 4)
        got = hinge_loss(pairs, margin=0.2).item()
        np.testing.assert_allclose(got, brute_hinge(i_embs, w_embs, 0.2), atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_never_negative(self, seed):
        rng = np.random.default_rng(50 + seed)
        pairs, _, _ = random_pairs(rng, 3, 4)
        assert hinge_loss(pairs, margin=float(rng.uniform(0, 1))).item() >= 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(10 + seed)
        b, d = 3, 4
        leaves = [parameter(rng.normal(size=d)) for _ in range(2 * b)]

        def f(*xs):
            pairs = [EmbeddingPair(leaves[k], leaves[b + k]) for k in range(b)]
            return hinge_loss(pairs, margin=0.2)

        assert grad_check(f, leaves) <= 1e-5

    @pytest.mark.parametrize("b", [2, 5])
    def test_batch_as_rows_equals_list_of_pairs(self, b):
        rng = np.random.default_rng(b)
        images, captions = parameter(rng.normal(size=(b, 4))), parameter(rng.normal(size=(b, 4)))
        got = leaf_grads_of([images, captions], lambda: hinge_loss(EmbeddingPair(images, captions)))
        want = leaf_grads_of([images, captions], lambda: hinge_loss(
            [EmbeddingPair(reshape(gather_rows(images, [k]), (4,)), reshape(gather_rows(captions, [k]), (4,)))
             for k in range(b)]))
        assert got[0] == want[0]
        assert all(np.array_equal(g, w) for g, w in zip(got[1], want[1]))

    def test_batch_as_rows_of_one_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            hinge_loss(EmbeddingPair(Tensor(np.ones((1, 3))), Tensor(np.ones((1, 3)))))

    def test_zero_loss_means_zero_gradients(self):
        eye = np.eye(3)
        leaves = [parameter(eye[i % 3]) for i in range(6)]
        with Tape() as tape:
            pairs = [EmbeddingPair(leaves[k], leaves[3 + k]) for k in range(3)]
            loss = hinge_loss(pairs, margin=0.0)
        assert loss.item() == 0.0
        tape.backward(loss)
        for t in leaves:
            assert np.all(t.grad == 0.0)

    # seeds with an asymmetric set of active hinge terms: a symmetric set
    # makes shared-bias gradients cancel to exactly 0, where one ulp of
    # finite-difference noise against the 1e-8 denominator floor dominates
    @pytest.mark.parametrize("seed", [0, 4])
    def test_end_to_end_gradient_through_both_branches(self, seed):
        params, config = tiny_params(seed)
        rng = np.random.default_rng(20 + seed)
        feats = [rng.normal(size=(3, config.spatial_dim)) for _ in range(2)]
        caps = [[4, 5], [6, 7, 8]]
        leaves = [t for _, t in params.named_params()]

        def f(*xs):
            pairs = [
                EmbeddingPair(
                    embed_image(params, constant(feats[k])),
                    embed_caption(params, caps[k]),
                )
                for k in range(2)
            ]
            return hinge_loss(pairs, margin=0.2)

        assert grad_check(f, leaves, step=1e-5) <= 1e-5


class TestVisionReward:
    def test_identical_is_one(self):
        v = np.array([0.4, -1.2, 3.0])
        np.testing.assert_allclose(vision_reward(v, v), 1.0, atol=1e-12)

    def test_orthogonal_is_zero(self):
        assert vision_reward(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0

    def test_opposite_is_minus_one(self):
        v = np.array([0.5, -2.0, 1.0])
        np.testing.assert_allclose(vision_reward(v, -v), -1.0, atol=1e-12)

    def test_zero_norm_warns_and_returns_zero(self):
        with pytest.warns(UserWarning):
            assert vision_reward(np.zeros(3), np.ones(3)) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_scale_invariant(self, seed):
        rng = np.random.default_rng(seed)
        w, i = rng.normal(size=4), rng.normal(size=4)
        a, b = float(rng.uniform(0.1, 10)), float(rng.uniform(0.1, 10))
        np.testing.assert_allclose(
            vision_reward(a * w, b * i), vision_reward(w, i), atol=1e-12
        )

    def test_accepts_tensors(self):
        v = Tensor(np.array([1.0, 2.0]))
        np.testing.assert_allclose(vision_reward(v, v), 1.0, atol=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            r = vision_reward(rng.normal(size=5), rng.normal(size=5))
            assert -1.0 <= r <= 1.0


def toy_training_pairs(rng, config, n_pairs):
    """Images whose features echo their caption's token pattern."""
    pairs = []
    for _ in range(n_pairs):
        tokens = list(rng.integers(4, config.vocab_size, size=3))
        base = np.zeros(config.spatial_dim)
        for t in tokens:
            base[t % config.spatial_dim] += 1.0
        feats = np.tile(base, (3, 1)) + 0.05 * rng.normal(size=(3, config.spatial_dim))
        pairs.append((feats, tokens))
    return pairs


class TestTrainVse:
    def test_loss_decreases_on_toy_set(self):
        config = VseConfig(**TINY)
        rng = np.random.default_rng(0)
        pairs = toy_training_pairs(rng, config, 8)
        _, losses = train_vse(pairs, config, rng, epochs=25, lr=0.02, batch_size=4)
        assert losses[-1] < losses[0]

    def test_matched_beats_mismatched_on_most_pairs(self):
        config = VseConfig(**TINY)
        rng = np.random.default_rng(1)
        pairs = toy_training_pairs(rng, config, 8)
        params, _ = train_vse(pairs, config, rng, epochs=60, lr=0.02, batch_size=4)
        wins = 0
        for k, (feats, tokens) in enumerate(pairs):
            i_e = embed_image(params, constant(feats))
            matched = vision_reward(embed_caption(params, tokens), i_e)
            other = pairs[(k + 1) % len(pairs)][1]
            mismatched = vision_reward(embed_caption(params, other), i_e)
            wins += matched > mismatched
        assert wins >= int(0.75 * len(pairs))

    def test_rejects_single_pair(self):
        config = VseConfig(**TINY)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            train_vse(toy_training_pairs(rng, config, 1), config, rng)

    @pytest.mark.parametrize("kw", [dict(epochs=0), dict(batch_size=0), dict(batch_size=1),
                                    dict(lr=0.0), dict(lr=-1.0), dict(lr=float("nan")),
                                    dict(lr=float("inf"))])
    def test_rejects_bad_loop_arguments(self, kw):
        config = VseConfig(**TINY)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=next(iter(kw))):
            train_vse(toy_training_pairs(rng, config, 4), config, rng, **kw)

    def test_divergence_aborts_with_diagnostics(self):
        config = VseConfig(**TINY)
        rng = np.random.default_rng(0)
        pairs = toy_training_pairs(rng, config, 4)
        # all-positive huge weights times all-positive huge features push
        # one image embedding to +inf with no sign mixing, so the hinge
        # terms anchored on other captions are cleanly +inf, not nan
        pairs[0] = (np.full_like(pairs[0][0], 1e160), pairs[0][1])
        params = VseParams.init(config, np.random.default_rng(5))
        params.image_proj.weight.data[:] = np.abs(params.image_proj.weight.data) + 1e160
        params.caption_proj.bias.data[:] = 10.0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="epoch 0"):
                train_vse(pairs, config, rng, epochs=1, batch_size=4, params=params)

    def test_odd_trailing_pair_is_folded_in(self):
        config = VseConfig(**TINY)
        rng = np.random.default_rng(2)
        pairs = toy_training_pairs(rng, config, 5)
        _, losses = train_vse(pairs, config, rng, epochs=2, lr=0.01, batch_size=4)
        assert len(losses) == 2

    def test_epoch_log_length_and_determinism(self):
        config = VseConfig(**TINY)
        pairs = toy_training_pairs(np.random.default_rng(3), config, 6)
        p1, l1 = train_vse(pairs, config, np.random.default_rng(42), epochs=3, batch_size=3)
        p2, l2 = train_vse(pairs, config, np.random.default_rng(42), epochs=3, batch_size=3)
        assert l1 == l2
        for (_, a), (_, b) in zip(p1.named_params(), p2.named_params()):
            assert np.array_equal(a.data, b.data)

    def test_log_holds_one_line_per_epoch_of_this_run(self, tmp_path):
        config = VseConfig(**TINY)
        pairs = toy_training_pairs(np.random.default_rng(3), config, 6)
        log = tmp_path / "vse.jsonl"
        log.write_text("stale\n")
        for _ in range(2):  # a rerun into the same path replaces, not appends
            _, losses = train_vse(pairs, config, np.random.default_rng(42), epochs=3,
                                  batch_size=3, log_path=log)
        want = "".join(json.dumps({"epoch": i, "loss": x}) + "\n" for i, x in enumerate(losses))
        assert log.read_text() == want

    def test_divergence_keeps_logged_epochs(self, tmp_path, monkeypatch):
        # 6 pairs in batches of 3 is two steps an epoch; the loss turns NaN
        # at the fifth step, inside epoch 2
        config = VseConfig(**TINY)
        pairs = toy_training_pairs(np.random.default_rng(3), config, 6)
        calls = []

        def nan_from_fifth(embedded, margin):
            calls.append(None)
            loss = hinge_loss(embedded, margin)
            return scale(loss, math.nan) if len(calls) >= 5 else loss

        monkeypatch.setattr(vse, "hinge_loss", nan_from_fifth)
        log = tmp_path / "vse.jsonl"
        with pytest.raises(FloatingPointError, match="epoch 2"):
            train_vse(pairs, config, np.random.default_rng(42), epochs=4, batch_size=3,
                      log_path=log)
        assert [json.loads(s)["epoch"] for s in log.read_text().splitlines()] == [0, 1]


def varied_pairs(rng, config, lengths, vocab=None):
    """(spatial map, token ids) pairs with the given caption lengths, maps of 1-4
    rows; ``vocab`` narrows the tokens so that they repeat within a batch."""
    high = config.vocab_size if vocab is None else 4 + vocab
    return [(rng.normal(size=(int(rng.integers(1, 5)), config.spatial_dim)),
             [int(t) for t in rng.integers(4, high, size=n)]) for n in lengths]


# caption lengths of a batch: 1-9 with ties, all equal, one token each,
# and B = 9, which a trailing pair merges into from a batch of 8
BATCH_LENGTHS = {
    "b2": [3, 1],
    "b3 ties": [5, 2, 5],
    "b8 1-9": [1, 9, 4, 4, 7, 2, 9, 6],
    "b8 equal": [6] * 8,
    "b9 merged": [2, 8, 3, 3, 9, 1, 5, 7, 4],
    "b3 one token": [1, 1, 1],
}


class TestRowBatchedEqualsPerPair:
    """train_vse embeds a batch in row-batched ops; the per-pair path in
    oracles.py is its reference form, which it must equal bit for bit."""

    @pytest.mark.parametrize("repeats", [False, True])
    @pytest.mark.parametrize("case", sorted(BATCH_LENGTHS))
    def test_loss_and_every_gradient(self, case, repeats):
        params, config = tiny_params(len(case), hidden_dim=7)
        rng = np.random.default_rng([len(case), int(repeats)])
        pairs = varied_pairs(rng, config, BATCH_LENGTHS[case], vocab=2 if repeats else None)
        pooled = np.stack([mean_rows(constant(s)).data for s, _ in pairs])
        got = leaf_grads(params, lambda: vse._batch_loss(params, pooled, [t for _, t in pairs], 0.2))
        want = leaf_grads(params, lambda: ref_vse_batch_loss(params, pairs, 0.2))
        assert got[0] == want[0]
        for g, w in zip(got[1], want[1]):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("tokens", [[4], [4, 7, 5], [6, 6, 6, 6, 6, 6, 6, 6, 6]])
    def test_one_caption_equals_reference(self, tokens):
        params, config = tiny_params(5)
        readout = constant(np.random.default_rng(0).normal(size=config.space_dim))
        got = leaf_grads(params, lambda: sum_all(mul(embed_caption(params, tokens), readout)))
        want = leaf_grads(params, lambda: sum_all(mul(ref_embed_caption(params, tokens), readout)))
        assert np.array_equal(embed_caption(params, tokens).data, ref_embed_caption(params, tokens).data)
        assert got[0] == want[0]
        for g, w in zip(got[1], want[1]):
            assert (g is None) == (w is None) and (g is None or np.array_equal(g, w))

    @pytest.mark.parametrize("n_pairs, batch_size", [(9, 8), (7, 3), (6, 2)])
    def test_trained_parameters_equal_reference_loop(self, n_pairs, batch_size):
        config = VseConfig(**{**TINY, "hidden_dim": 6})
        rng = np.random.default_rng(n_pairs)
        pairs = varied_pairs(rng, config, rng.integers(1, 10, size=n_pairs), vocab=3)
        params, losses = train_vse(pairs, config, np.random.default_rng(4), epochs=3, lr=0.05,
                                   batch_size=batch_size)
        ref_params, ref_losses = ref_train_vse(pairs, config, np.random.default_rng(4), epochs=3, lr=0.05,
                                               batch_size=batch_size)
        assert losses == ref_losses
        for (name, a), (_, b) in zip(params.named_params(), ref_params.named_params()):
            assert np.array_equal(a.data, b.data), name

    @pytest.mark.parametrize("case", sorted(BATCH_LENGTHS))
    def test_a_batch_records_20_tape_ops(self, case, monkeypatch):
        # fixed whatever the batch size and caption lengths: 1 op for the
        # images, 2 for the captions, 17 for the hinge loss
        config = VseConfig(**TINY)
        lengths = BATCH_LENGTHS[case]
        pairs = varied_pairs(np.random.default_rng(0), config, lengths)
        sizes = []

        def counting_descend(leaves, build_loss, lr):
            def build():
                loss = build_loss()
                sizes.append(len(_active_tape()))
                return loss
            return nn.descend(leaves, build, lr)

        monkeypatch.setattr(vse, "descend", counting_descend)
        train_vse(pairs, config, np.random.default_rng(1), epochs=2, batch_size=min(8, len(lengths)))
        assert sizes == [20, 20]


class TestParamPlumbing:
    def test_named_params_unique_and_complete(self):
        params, _ = tiny_params()
        names = [n for n, _ in params.named_params()]
        assert len(names) == len(set(names))
        assert "image_proj.weight" in names
        assert "lstm.w_f" in names
        assert "caption_proj.bias" in names

    def test_array_round_trip(self):
        src, _ = tiny_params(0)
        dst, _ = tiny_params(1)
        dst.load_arrays(src.param_arrays())
        for (_, a), (_, b) in zip(src.named_params(), dst.named_params()):
            assert np.array_equal(a.data, b.data)

    def test_manifest_mismatch_rejected(self):
        params, _ = tiny_params()
        arrays = params.param_arrays()
        arrays.pop("lstm.w_i")
        with pytest.raises(ValueError, match="manifest"):
            params.load_arrays(arrays)
