"""Acceptance gate: ten pinned criteria, one test per criterion.

``pytest tests/test_acceptance.py -v`` prints one pass/fail line per
criterion; add ``-s`` to see the measured numbers behind each verdict.
The training criteria share one deterministic toy corpus, so the whole
gate is reproducible bit for bit.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from oracles import brute_aoa, brute_refine, brute_scaled_dot, cider_hand
from sgcap.attention import AoAParams, MultiHeadParams, aoa_block, scaled_dot_attention
from sgcap.autodiff import Tape, constant
from sgcap.captioner import CaptionerConfig, CaptionerParams
from sgcap.cli import main as cli_main
from sgcap.decoder import generate_greedy
from sgcap.encoder import RefinePathParams, encode, refine
from sgcap.features import (
    UNK,
    build_vocabulary,
    load_bundle,
    load_dataset,
    load_word_vectors,
    tokenize,
)
from sgcap.gradaudit import TOLERANCE, run_audit
from sgcap.metrics import bleu, cider, compute_idf, rouge_l
from sgcap.toydata import make_toy_data
from sgcap.trainer import (
    Phase1Config,
    Phase2Config,
    TrainConfig,
    combined_reward,
    scst_rollout,
    train_scst,
    train_xe,
)
from sgcap.vse import (
    VseConfig,
    VseParams,
    embed_caption,
    embed_image,
    train_vse,
    vision_reward,
)

DATA_SEED = 7
MODEL_SEED = 0


def _report(criterion, detail):
    print(f"{criterion}: PASS ({detail})")


@pytest.fixture(scope="session")
def toy20(tmp_path_factory):
    """20-image toy corpus: 16 train / 2 val / 2 test, vocab ~= 30."""
    root = tmp_path_factory.mktemp("accept20")
    info = make_toy_data(20, 27, DATA_SEED, root)
    ds = load_dataset(info["dataset"])
    table = load_word_vectors(info["wordvecs"])
    train_recs, val_recs = ds.split("train"), ds.split("val")
    vocab = build_vocabulary((c for r in train_recs for c in r.captions), min_count=1)
    bundles = {r.image_id: load_bundle(r, table) for r in ds.records}
    refs = {r.image_id: [tokenize(c) for c in r.captions] for r in ds.records}
    return {
        "info": info,
        "train_recs": train_recs,
        "val_recs": val_recs,
        "vocab": vocab,
        "bundles": bundles,
        "refs": refs,
        "idf": compute_idf([refs[r.image_id] for r in train_recs]),
    }


@pytest.fixture(scope="session")
def a5_run(toy20):
    """XE overfit of 8 pairs at the pinned dimensions; shared with A6."""
    w = toy20
    pairs8 = [
        (w["bundles"][r.image_id], w["vocab"].encode_caption(r.captions[0]))
        for r in w["train_recs"][:8]
    ]
    val_items = [(w["bundles"][r.image_id], w["refs"][r.image_id])
                 for r in w["val_recs"]]
    config = CaptionerConfig(
        vocab_size=len(w["vocab"]), d_model=32, embed_dim=32, heads=2,
        spatial_dim=w["info"]["spatial_dim"], max_len=10,
    )
    params = CaptionerParams.init(config, np.random.default_rng(MODEL_SEED))
    train_config = TrainConfig(
        phase1=Phase1Config(max_epochs=500, patience=500, lr0=0.2,
                            decay_every=100, decay_factor=1.0, batch=4,
                            stop_loss=0.05),
        seed=MODEL_SEED,
    )
    start = time.monotonic()
    result = train_xe(params, pairs8, val_items, w["vocab"], train_config, w["idf"])
    elapsed = time.monotonic() - start
    return {
        "params": params,
        "arrays": params.param_arrays(),
        "config": config,
        "result": result,
        "elapsed": elapsed,
        "pairs8": pairs8,
    }


@pytest.fixture(scope="session")
def reward_net(toy20):
    """Ranking network on the toy vocab; the A6 vision-reward source."""
    w = toy20
    pairs = []
    for r in w["train_recs"]:
        spatial = w["bundles"][r.image_id].spatial
        for c in r.captions:
            pairs.append((spatial, [w["vocab"].token_to_id(t) for t in tokenize(c)]))
    config = VseConfig(
        vocab_size=len(w["vocab"]), spatial_dim=w["info"]["spatial_dim"],
        embed_dim=16, hidden_dim=16, space_dim=16,
    )
    params, losses = train_vse(
        pairs, config, np.random.default_rng(1), epochs=60, lr=0.02, batch_size=8
    )
    return params, losses


def test_a01_gradient_audit():
    start = time.monotonic()
    reports = run_audit(seeds=(0, 1, 2))
    elapsed = time.monotonic() - start
    assert len(reports) == 10
    for r in reports:
        assert r.max_rel_err <= TOLERANCE, f"{r.block}: {r.max_rel_err:.3e}"
    assert elapsed < 120.0
    worst = max(reports, key=lambda r: r.max_rel_err)
    _report("A1 gradient audit",
            f"10 blocks, 3 seeds, worst {worst.block} {worst.max_rel_err:.2e}, "
            f"{elapsed:.1f}s")


def test_a02_formula_exactness_oracles():
    cases = 0
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(3, 4))
        k = rng.normal(size=(5, 4))
        v = rng.normal(size=(5, 4))
        mask = None if seed % 2 else np.array([True, True, False, True, True])
        got = scaled_dot_attention(constant(q), constant(k), constant(v), mask).data
        worst = max(worst, float(np.abs(got - brute_scaled_dot(q, k, v, mask)).max()))
        cases += 1

        aoa = AoAParams.init(rng, 4)
        x = rng.normal(size=(3, 4))
        y = rng.normal(size=(3, 4))
        got = aoa_block(aoa, constant(x), constant(y)).data
        worst = max(worst, float(np.abs(got - brute_aoa(aoa, x, y)).max()))
        cases += 1

        path = RefinePathParams.init(rng, 4, 2)
        a = rng.normal(size=(5, 4))
        got = refine(path, constant(a), mask).data
        worst = max(worst, float(np.abs(got - brute_refine(path, a, mask)).max()))
        cases += 1

        words = list("abcdef")
        def sentence():
            return " ".join(rng.choice(words, size=rng.integers(2, 7)))
        corpus = [[sentence() for _ in range(2)] for _ in range(3)]
        cand = sentence()
        idf = compute_idf([[r.split() for r in refs] for refs in corpus])
        for variant in ("plain", "d"):
            got = cider(cand.split(), [r.split() for r in corpus[0]], idf,
                        variant=variant)
            want = cider_hand(cand, corpus[0], corpus,
                              variant="cider" if variant == "plain" else "d")
            worst = max(worst, abs(got - want))
            cases += 1
    assert cases >= 20 * 4
    assert worst <= 1e-9
    _report("A2 formula exactness", f"{cases} cases, worst |diff| {worst:.2e}")


def test_a03_policy_gradient_identity(toy20):
    w = toy20
    config = CaptionerConfig(
        vocab_size=len(w["vocab"]), d_model=8, embed_dim=8, heads=2,
        spatial_dim=w["info"]["spatial_dim"], max_len=8,
    )
    bundle = w["bundles"][w["train_recs"][0].image_id]
    refs = w["refs"][w["train_recs"][0].image_id]
    worst = 0.0
    for seed in range(3):
        params = CaptionerParams.init(config, np.random.default_rng(seed))
        with Tape() as tape:
            rollout = scst_rollout(
                params, bundle, refs,
                lambda toks, b, r: (sum(toks) % 7) / 7.0,
                np.random.default_rng(100 + seed),
            )
        tape.backward(rollout.loss)
        assert rollout.advantage != 0.0
        for step in rollout.steps:
            onehot = np.zeros(len(w["vocab"]))
            onehot[step.target] = 1.0
            want = rollout.advantage * (step.probs.data - onehot)
            worst = max(worst, float(np.abs(step.logits.grad - want).max()))
    assert worst <= 1e-8

    params = CaptionerParams.init(config, np.random.default_rng(0))
    with Tape() as tape:
        rollout = scst_rollout(params, bundle, refs, lambda t, b, r: 0.5,
                               np.random.default_rng(5))
    assert rollout.advantage == 0.0
    tape.backward(rollout.loss)
    sq = 0.0
    for _, t in params.named_params():
        if t.grad is not None:
            sq += float((t.grad * t.grad).sum())
    norm = math.sqrt(sq)
    assert norm < 1e-10
    _report("A3 policy-gradient identity",
            f"logit identity worst {worst:.2e} <= 1e-8, "
            f"zero-advantage grad norm {norm:.2e} < 1e-10")


def test_a04_reward_endpoints(toy20, reward_net):
    w = toy20
    vse, _ = reward_net
    rec = w["train_recs"][0]
    bundle = w["bundles"][rec.image_id]
    refs = w["refs"][rec.image_id]
    caption_ids = w["vocab"].encode_caption(rec.captions[1])[1:]  # tokens + EOS

    from sgcap.metrics import cider_d

    direct_language = cider_d(
        w["vocab"].decode_tokens(caption_ids).split(), refs, w["idf"]
    )
    content = [t for t in caption_ids if t not in (0, 1, 2)]  # PAD/BOS/EOS
    direct_vision = vision_reward(
        embed_caption(vse, content), embed_image(vse, constant(bundle.spatial))
    )

    at_one = combined_reward(caption_ids, bundle, refs, w["idf"], vse, w["vocab"], 1.0)
    at_zero = combined_reward(caption_ids, bundle, refs, w["idf"], vse, w["vocab"], 0.0)
    blend = combined_reward(caption_ids, bundle, refs, w["idf"], vse, w["vocab"], 0.7)
    assert at_one.r == direct_language       # bit-equal, not approx
    assert at_zero.r == direct_vision        # bit-equal, not approx
    assert blend.r == 0.7 * blend.r_l + (1.0 - 0.7) * blend.r_v
    assert Phase2Config().alpha == 0.7       # the default blend weight
    _report("A4 reward endpoints",
            f"alpha=1 == CIDEr-D ({at_one.r:.6f}), alpha=0 == cosine "
            f"({at_zero.r:.6f}), alpha=0.7 blend exact")


def test_a05_xe_overfit(toy20, a5_run):
    w = toy20
    run = a5_run
    assert run["result"].stop_reason == "stop_loss", run["result"].history[-1]
    final_loss = run["result"].history[-1]["loss"]
    epochs = len(run["result"].history)
    assert final_loss < 0.05
    assert epochs <= 500
    assert run["elapsed"] < 300.0
    reproduced = 0
    for bundle, tokens in run["pairs8"]:
        decoded = generate_greedy(run["params"].decoder,
                                  encode(run["params"].encoder, bundle))
        if decoded == tokens[1:]:
            reproduced += 1
    assert reproduced == 8
    _report("A5 XE overfit",
            f"loss {final_loss:.4f} < 0.05 after {epochs} epochs, "
            f"8/8 captions reproduced, {run['elapsed']:.1f}s")


def test_a06_scst_improvement(toy20, a5_run, reward_net):
    w = toy20
    vse, _ = reward_net
    train_items = [(w["bundles"][r.image_id], w["refs"][r.image_id])
                   for r in w["train_recs"]]
    assert len(train_items) == 16
    # SCST promises its gain on the images it trains on, so they are both
    # the validation set and the scored set. At this scale the greedy
    # captions of the two held-out images almost never change: their score
    # ends bit for bit where it started at 7 of the SCST seeds 0-7.

    def mean_train_reward(params):
        total = 0.0
        for bundle, refs in train_items:
            cap = generate_greedy(params.decoder, encode(params.encoder, bundle))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                total += combined_reward(cap, bundle, refs, w["idf"], vse,
                                         w["vocab"], 0.7).r
        return total / len(train_items)

    params = CaptionerParams.init(a5_run["config"], np.random.default_rng(0))
    params.load_arrays(a5_run["arrays"])
    before = mean_train_reward(params)

    config = TrainConfig(
        phase2=Phase2Config(epochs=1000, patience=1000, lr=3e-3, batch=4,
                            alpha=0.7, max_steps=200),
        seed=5,
    )
    start = time.monotonic()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # empty samples happen
        result = train_scst(params, train_items, train_items, w["vocab"], config,
                            w["idf"], vse=vse, reward="mmr")
    elapsed = time.monotonic() - start
    for record in result.history:
        assert all(math.isfinite(v) for v in record.values()), record
    after = mean_train_reward(params)
    assert math.isfinite(before) and math.isfinite(after)
    assert after - before >= 0.05
    assert elapsed < 600.0
    _report("A6 SCST improvement",
            f"mean combined reward on the 16 training images "
            f"{before:.4f} -> {after:.4f} "
            f"(+{after - before:.4f} >= 0.05) in 200 iterations, "
            f"NaN-free, {elapsed:.1f}s")


def test_a07_vse_ranking(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept40")
    info = make_toy_data(40, 27, 11, root)
    ds = load_dataset(info["dataset"])
    table = load_word_vectors(info["wordvecs"])
    train_recs = ds.split("train")
    assert len(train_recs) == 32
    vocab = build_vocabulary((c for r in train_recs for c in r.captions), min_count=1)
    pairs = []
    for r in train_recs:
        bundle = load_bundle(r, table)
        pairs.append((bundle.spatial,
                      [vocab.token_to_id(t) for t in tokenize(r.captions[0])]))
    config = VseConfig(vocab_size=len(vocab), spatial_dim=info["spatial_dim"],
                       embed_dim=16, hidden_dim=16, space_dim=16)
    params, losses = train_vse(pairs, config, np.random.default_rng(1),
                               epochs=60, lr=0.02, batch_size=8)
    assert losses[-1] < losses[0]  # strictly decreased from epoch 0

    i_embs = [embed_image(params, constant(s)).data for s, _ in pairs]
    w_embs = [embed_caption(params, t).data for _, t in pairs]

    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    wins = 0
    for k in range(len(pairs)):
        matched = cos(i_embs[k], w_embs[k])
        if all(matched > cos(i_embs[k], w_embs[j])
               for j in range(len(pairs)) if j != k):
            wins += 1
    assert wins >= math.ceil(0.9 * len(pairs))
    _report("A7 ranking network",
            f"{wins}/32 pairs beat every mismatch (need >= 29), "
            f"hinge {losses[0]:.3f} -> {losses[-1]:.3f}")


def test_a08_metric_sanity():
    tokens = "a red cube on a table".split()
    assert bleu([tokens], [[tokens]]) == [1.0, 1.0, 1.0, 1.0]
    assert rouge_l(tokens, [tokens]) == 1.0

    solo_idf = compute_idf([[tokens]])
    assert all(v == 0.0 for v in solo_idf.weights.values())
    assert cider(tokens, [tokens], solo_idf) == 0.0

    scores = bleu(["the cat sat".split()], [["the cat sat on the mat".split()]])
    hand = math.exp(1.0 - 6.0 / 3.0)  # p1 = 1, brevity penalty for 3 vs 6
    assert abs(scores[0] - hand) < 1e-6
    _report("A8 metric sanity",
            f"identity -> 1.0, single-image consensus -> 0.0, "
            f"hand BLEU |diff| {abs(scores[0] - hand):.2e}")


def test_a09_vocabulary_threshold():
    captions = ["common rare"] * 4 + ["common"]
    vocab = build_vocabulary(captions, min_count=5)
    assert vocab.token_to_id("rare") == UNK       # 4 occurrences: dropped
    assert vocab.token_to_id("common") != UNK     # 5 occurrences: kept
    assert "rare" not in vocab
    _report("A9 vocabulary threshold", "4 occurrences -> UNK, 5 kept")


def test_a10_determinism(tmp_path_factory):
    cfg_text = (
        "model.d_model = 8\nmodel.embed_dim = 8\nmodel.heads = 2\n"
        "model.max_len = 10\nvocab.min_count = 1\n"
        "vse.embed_dim = 8\nvse.hidden_dim = 8\nvse.space_dim = 6\n"
        "vse.epochs = 5\nvse.lr = 0.05\n"
        "phase1.max_epochs = 3\nphase1.lr0 = 0.05\nphase1.batch = 4\n"
        "phase2.epochs = 1\nphase2.lr = 0.0005\nphase2.batch = 8\n"
        "seed = 3\n"
    )

    def full_run(root):
        toy = root / "toy"
        cfg = root / "run.cfg"
        cfg.write_text(cfg_text)
        base = ["--config", str(cfg), "--dataset", str(toy / "dataset.jsonl"),
                "--wordvecs", str(toy / "wordvecs.txt")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert cli_main(["make-toy-data", "--out-dir", str(toy),
                             "--n-images", "10", "--seed", "4"]) == 0
            assert cli_main(["train-vse", *base[:4], "--out", str(root / "vse.sgck"),
                             "--log", str(root / "vse.jsonl")]) == 0
            assert cli_main(["train-xe", *base, "--out", str(root / "xe.sgck"),
                             "--log", str(root / "xe.jsonl")]) == 0
            assert cli_main(["train-scst", *base,
                             "--checkpoint", str(root / "xe.sgck"),
                             "--vse", str(root / "vse.sgck"),
                             "--out", str(root / "scst.sgck"),
                             "--log", str(root / "scst.jsonl")]) == 0
            assert cli_main(["caption", "--checkpoint", str(root / "scst.sgck"),
                             *base[2:], "--split", "test",
                             "--out", str(root / "caps.jsonl")]) == 0
        return {
            name: (root / name).read_bytes()
            for name in ("toy/dataset.jsonl", "toy/wordvecs.txt",
                         "vse.sgck", "xe.sgck", "scst.sgck",
                         "vse.jsonl", "xe.jsonl", "scst.jsonl", "caps.jsonl")
        }

    first = full_run(tmp_path_factory.mktemp("run_one"))
    second = full_run(tmp_path_factory.mktemp("run_two"))
    assert list(first) == list(second)
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    _report("A10 determinism",
            f"{len(first)} artifacts bit-identical across two full runs")
