"""The three benchmark workloads: input generators, set-up and timed items.

Every workload goes through sgcap's public functions and its normal
loaders. Inputs are written by ``generate`` from the seed alone, in a
child process, so the workload process's peak RSS covers only set-up and
the timed items. Run ``python3 perfbench/workloads.py generate <workload>
<seed> <dir>`` from the repository root to write one workload's inputs.

Why these three:

* toy-train: acceptance dimensions, where Python dispatch dominates
  (~1k tape ops per XE pair); op-count cuts and no-grad decodes show here.
* paper-caption: the encoder and decoder at paper dimensions, forward
  only, no tape; backward-side changes must not move it, decoding changes
  (K/V caching, batching) must.
* evaluate-5k: the metrics layer alone, no numpy model code; every
  model-side change must leave it flat.

Every timed item is short (0.1 to 0.5 s) and item ``k`` repeats the work
of item ``k + cycle`` exactly, so a run holds many comparable items and
the median over them is steady; a repeat must give the same outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

# paper dimensions
PAPER_VOCAB = 10_000
PAPER_D_MODEL = 512
PAPER_HEADS = 8
PAPER_REGIONS = 49
PAPER_SPATIAL_DIM = 2048
PAPER_CAPTION_WORDS = 15  # plus EOS: 16 predicted tokens per caption
PAPER_TRIPLETS = 15
CAPTION_BUDGET = 16
CAPTION_IMAGES = 24

# acceptance (toy) dimensions
TOY_IMAGES = 20
TOY_VOCAB = 27
TOY_D_MODEL = 32
TOY_HEADS = 2
TOY_XE_EPOCHS = 3
TOY_MAX_LEN = 10
TOY_XE_BATCH = 1
TOY_SCST_STEPS = 4
TOY_SCST_BATCH = 4
TOY_SLICES = 4  # items cycle over this many slices of the training split

EVAL_IMAGES = 5000
EVAL_REFS = 5
EVAL_PROBE_IMAGES = 20
EVAL_CHUNK = 100  # candidates scored by one evaluate call


class CheckFailed(Exception):
    """An output check did not hold."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# synthetic corpora


def _word(i: int) -> str:
    """Distinct lowercase pseudo-word for index i (survives tokenize)."""
    letters = []
    i += 26 * 26  # at least three letters
    while i:
        i, r = divmod(i, 26)
        letters.append(chr(ord("a") + r))
    return "".join(reversed(letters))


def _zipf_words(n_words: int) -> tuple[list[str], np.ndarray]:
    words = [_word(i) for i in range(n_words)]
    p = 1.0 / np.arange(1, n_words + 1)
    return words, p / p.sum()


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(s + "\n" for s in lines), encoding="utf-8")


def _write_word_vectors(path: Path, words: list[str], rng: np.random.Generator) -> None:
    from sgcap.features import WORD_VECTOR_DIM

    vecs = rng.normal(0.0, 0.3, size=(len(words), WORD_VECTOR_DIM))
    with path.open("w", encoding="utf-8") as fh:
        for w, v in zip(words, vecs):
            fh.write(w + " " + " ".join(f"{x:.6f}" for x in v) + "\n")


def _paper_corpus(work: Path, seed: int, splits: dict[str, int]) -> None:
    """Paper-scale vocabulary, word vectors, features and dataset."""
    from sgcap.features import SPECIALS, Vocabulary, write_sgaf

    rng = np.random.default_rng([seed, 1])
    words, p = _zipf_words(PAPER_VOCAB - len(SPECIALS))
    Vocabulary(list(SPECIALS) + words, min_count=1).save(work / "vocab.json")
    _write_word_vectors(work / "wordvecs.txt", words, rng)
    (work / "features").mkdir()
    lines = []
    k = 0
    for split, count in splits.items():
        for _ in range(count):
            image_id = f"img_{k:05d}"
            k += 1
            write_sgaf(work / "features" / f"{image_id}.sgaf",
                       rng.normal(0.0, 1.0, size=(PAPER_REGIONS, PAPER_SPATIAL_DIM)))
            picks = rng.choice(len(words), size=(5, PAPER_CAPTION_WORDS), p=p)
            triplets = [
                {"s": words[a], "p": words[b], "o": words[c], "score": float(s)}
                for (a, b, c), s in zip(rng.choice(len(words), size=(PAPER_TRIPLETS, 3), p=p),
                                        rng.random(PAPER_TRIPLETS))
            ]
            lines.append(json.dumps({
                "id": image_id,
                "split": split,
                "captions": [" ".join(words[j] for j in row) for row in picks],
                "triplets": triplets,
                "feature_file": f"features/{image_id}.sgaf",
            }))
    _write_lines(work / "dataset.jsonl", lines)


def _paper_config(vocab_size: int):
    from sgcap.captioner import CaptionerConfig

    return CaptionerConfig(
        vocab_size=vocab_size, d_model=PAPER_D_MODEL, embed_dim=PAPER_D_MODEL,
        heads=PAPER_HEADS, spatial_dim=PAPER_SPATIAL_DIM, max_len=CAPTION_BUDGET,
        triplet_mode="mean",
    )


def generate(name: str, seed: int, work: Path) -> None:
    """Write the inputs of one workload into ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    if name == "toy-train":
        from sgcap.toydata import make_toy_data

        make_toy_data(TOY_IMAGES, TOY_VOCAB, seed, work)
    elif name == "paper-caption":
        from sgcap.captioner import CaptionerParams
        from sgcap.checkpoint import save_captioner
        from sgcap.features import Vocabulary

        _paper_corpus(work, seed, {"test": CAPTION_IMAGES})
        vocab = Vocabulary.load(work / "vocab.json")
        params = CaptionerParams.init(_paper_config(len(vocab)), np.random.default_rng([seed, 2]))
        save_captioner(work / "captioner.sgck", params, vocab, seed)
    elif name == "evaluate-5k":
        rng = np.random.default_rng([seed, 3])
        words, p = _zipf_words(PAPER_VOCAB)

        def caption():
            return " ".join(words[j] for j in rng.choice(len(words), size=rng.integers(8, 17), p=p))

        records, candidates = [], []
        for k in range(EVAL_IMAGES + EVAL_PROBE_IMAGES):
            image_id = f"img_{k:05d}"
            probe = k >= EVAL_IMAGES
            records.append(json.dumps({
                "id": image_id,
                "split": "val" if probe else "test",
                "captions": [caption() for _ in range(EVAL_REFS)],
                "triplets": [],
                "feature_file": f"features/{image_id}.sgaf",  # never read by evaluate
            }))
            # the probe split holds one empty candidate, as `caption` writes
            # when greedy decoding emits EOS first
            text = "" if k == EVAL_IMAGES else caption()
            candidates.append(json.dumps({"id": image_id, "caption": text}))
        _write_lines(work / "dataset.jsonl", records)
        _write_lines(work / "candidates.jsonl", candidates)
    else:
        raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# workloads


class Item(NamedTuple):
    """One timed item: its seconds, the tokens it processed (counted by
    ``tokens_per_s``), the operations it attempted, and its outputs, which
    a repeat of the item must reproduce exactly."""

    seconds: float
    tokens: int
    ops: int
    output: object


class Workload:
    """Set-up, preparation and one timed item; subclasses fill these in.

    The benchmark repeats ``setup`` during the run and carries on with the
    fresh state, so what items accumulate lives in ``acc``, a dict that
    lasts the whole run. Item ``k`` does the same work as item
    ``k + cycle``.
    """

    name = ""
    cycle = 1
    setups = 7
    interpreter_bound = True  # see run.HostSpeed

    def setup(self, work: Path, seed: int):
        raise NotImplementedError

    def prepare(self, state, acc: dict) -> None:
        """Untimed work before the warm-up item."""

    def item(self, state, acc: dict, k: int) -> Item:
        raise NotImplementedError

    def finish(self, state, acc: dict) -> dict:
        """Workload-specific figures for the report and the info line."""
        return {}


class TrainingMeter:
    """Counts decoded tokens and validation time inside the trainers.

    Throughput counts training work only. The per-epoch greedy validation
    is timed here and taken out; SCST rollouts are counted by the tokens
    they sample and decode greedily, so a caption's length, which the
    policy chooses, does not read as a change of speed.
    """

    def __init__(self):
        self.validation_s = 0.0
        self.tokens = 0
        self._validating = False

    def __enter__(self):
        import sgcap.trainer as trainer

        self._trainer = trainer
        self._saved = {a: getattr(trainer, a)
                       for a in ("validation_cider", "sample_sequence", "generate_greedy")}
        validate = self._saved["validation_cider"]
        sample = self._saved["sample_sequence"]
        greedy = self._saved["generate_greedy"]

        def validation_cider(*args, **kwargs):
            t = time.perf_counter()
            self._validating = True
            try:
                return validate(*args, **kwargs)
            finally:
                self._validating = False
                self.validation_s += time.perf_counter() - t

        def sample_sequence(*args, **kwargs):
            out = sample(*args, **kwargs)
            self.tokens += len(out[0])
            return out

        def generate_greedy(*args, **kwargs):
            out = greedy(*args, **kwargs)
            if not self._validating:
                self.tokens += len(out)
            return out

        trainer.validation_cider = validation_cider
        trainer.sample_sequence = sample_sequence
        trainer.generate_greedy = generate_greedy
        return self

    def __exit__(self, *exc):
        for attr, fn in self._saved.items():
            setattr(self._trainer, attr, fn)
        return False

    def take(self) -> tuple[float, int]:
        """Validation seconds and rollout tokens since the last call."""
        out = (self.validation_s, self.tokens)
        self.validation_s, self.tokens = 0.0, 0
        return out


def _check_history(result, key: str) -> None:
    for record in result.history:
        check(math.isfinite(record[key]), f"non-finite {key} in {record}")
    check(math.isfinite(result.best_val_cider), "non-finite validation CIDEr")


def _train(s, pairs, items, xe_config, scst_config):
    """``train_xe`` then ``train_scst`` (mmr reward), each timed without validation.

    Returns (XE seconds, SCST seconds, SCST rollout tokens, SCST result,
    per-epoch XE losses).
    """
    from sgcap import trainer

    with TrainingMeter() as meter, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # empty sampled captions
        t0 = time.perf_counter()
        xe = trainer.train_xe(s["params"], pairs, s["val"], s["vocab"], xe_config, s["idf"])
        xe_s = time.perf_counter() - t0 - meter.take()[0]
        t0 = time.perf_counter()
        scst = trainer.train_scst(s["params"], items, s["val"], s["vocab"], scst_config,
                                  s["idf"], vse=s["vse"], reward="mmr")
        val_s, scst_tokens = meter.take()
        scst_s = time.perf_counter() - t0 - val_s
    _check_history(xe, "loss")
    _check_history(scst, "mean_reward")
    return xe_s, scst_s, scst_tokens, scst, [r["loss"] for r in xe.history]


class ToyTrain(Workload):
    """XE then SCST (mmr reward) at acceptance scale.

    ``prepare`` runs a fixed training run from the initial parameters (XE
    epochs, then SCST steps); its validation CIDEr is the quality figure,
    and the same run repeated on the last set-up must reproduce it bit for
    bit. Its final parameters start every timed item: item k trains one XE
    epoch on slice k mod 4 of the caption pairs, then one SCST step on
    slice k mod 4 of the images.
    """

    name = "toy-train"
    cycle = TOY_SLICES
    setups = 15  # 0.3-0.6 s each, and mostly Python, so noisier than the others

    def setup(self, work, seed):
        from sgcap import captioner, features, metrics, trainer, vse

        ds = features.load_dataset(work / "dataset.jsonl")
        table = features.load_word_vectors(work / "wordvecs.txt")
        bundles = {r.image_id: features.load_bundle(r, table) for r in ds.records}
        train_recs, val_recs = ds.split("train"), ds.split("val") + ds.split("test")
        vocab = features.build_vocabulary((c for r in train_recs for c in r.captions), min_count=1)
        refs = {r.image_id: [features.tokenize(c) for c in r.captions] for r in ds.records}
        idf = metrics.compute_idf([refs[r.image_id] for r in train_recs])
        spatial_dim = bundles[train_recs[0].image_id].spatial.shape[1]
        config = captioner.CaptionerConfig(
            vocab_size=len(vocab), d_model=TOY_D_MODEL, embed_dim=TOY_D_MODEL,
            heads=TOY_HEADS, spatial_dim=spatial_dim, max_len=TOY_MAX_LEN,
        )
        params = captioner.CaptionerParams.init(config, np.random.default_rng([seed, 4]))
        vse_pairs = [
            (bundles[r.image_id].spatial, [vocab.token_to_id(t) for t in refs[r.image_id][0]])
            for r in train_recs
        ]
        vse_config = vse.VseConfig(vocab_size=len(vocab), spatial_dim=spatial_dim,
                                   embed_dim=16, hidden_dim=16, space_dim=16)
        reward_net, _ = vse.train_vse(vse_pairs, vse_config, np.random.default_rng([seed, 5]),
                                      epochs=10, lr=0.02, batch_size=8)

        def configs(epochs, steps):
            return (
                trainer.TrainConfig(phase1=trainer.Phase1Config(
                    max_epochs=epochs, patience=epochs, lr0=0.1, decay_every=100,
                    decay_factor=1.0, batch=TOY_XE_BATCH), seed=seed),
                trainer.TrainConfig(phase2=trainer.Phase2Config(
                    epochs=1, patience=1, lr=3e-3, batch=TOY_SCST_BATCH, alpha=0.7,
                    max_steps=steps), seed=seed),
            )

        return {
            "params": params,
            "start": params.param_arrays(),
            "pairs": [(bundles[r.image_id], vocab.encode_caption(c))
                      for r in train_recs for c in r.captions],
            "items": [(bundles[r.image_id], refs[r.image_id]) for r in train_recs],
            "val": [(bundles[r.image_id], refs[r.image_id]) for r in val_recs],
            "vocab": vocab,
            "idf": idf,
            "vse": reward_net,
            "trial": configs(TOY_XE_EPOCHS, TOY_SCST_STEPS),
            "step": configs(1, 1),
        }

    def _trial(self, s):
        """The fixed training run; returns (XE losses, validation CIDEr)."""
        s["params"].load_arrays(s["start"])
        _, _, _, scst, losses = _train(s, s["pairs"], s["items"], *s["trial"])
        check(losses[-1] < 0.9 * losses[0], f"XE did not learn: epoch losses {losses}")
        return losses, scst.best_val_cider

    def prepare(self, s, acc):
        acc["quality"] = self._trial(s)
        acc["trained"] = s["params"].param_arrays()
        acc["xe_rate"], acc["scst_rate"] = [], []

    def item(self, s, acc, k):
        j = k % TOY_SLICES
        pairs, items = s["pairs"][j::TOY_SLICES], s["items"][j::TOY_SLICES]
        s["params"].load_arrays(acc["trained"])
        xe_s, scst_s, scst_tokens, scst, losses = _train(s, pairs, items, *s["step"])
        images = min(len(items), TOY_SCST_BATCH)
        acc["xe_rate"].append(len(pairs) / xe_s)
        acc["scst_rate"].append(images / scst_s)
        xe_tokens = sum(len(tokens) - 1 for _, tokens in pairs)
        return Item(xe_s + scst_s, xe_tokens + scst_tokens, len(pairs) // TOY_XE_BATCH + 1,
                    (losses[0], scst.history[0]["mean_reward"]))

    def finish(self, s, acc):
        again = self._trial(s)
        check(again == acc["quality"], f"training run not reproducible: {acc['quality']} vs {again}")
        return {
            "xe_pairs_per_s": [float(np.median(acc["xe_rate"])), "pairs/s"],
            "scst_images_per_s": [float(np.median(acc["scst_rate"])), "images/s"],
            "val_cider": [acc["quality"][1], "score"],
        }


def check_caption(tokens, vocab_size: int) -> None:
    from sgcap.features import EOS, PAD

    check(1 <= len(tokens) <= CAPTION_BUDGET, f"caption length {len(tokens)} outside 1..16")
    check(all(0 <= t < vocab_size for t in tokens), f"token id outside vocabulary: {tokens}")
    check(all(t not in (EOS, PAD) for t in tokens[:-1]), f"terminator inside caption: {tokens}")


class PaperCaption(Workload):
    """Greedy captions at paper dimensions from a checkpoint on disk.

    Item k encodes and decodes test image k mod 24.
    """

    name = "paper-caption"
    cycle = CAPTION_IMAGES
    interpreter_bound = False  # BLAS and memory traffic set its speed

    def setup(self, work, seed):
        from sgcap import checkpoint, features

        params, vocab, _ = checkpoint.load_captioner(work / "captioner.sgck")
        ds = features.load_dataset(work / "dataset.jsonl")
        table = features.load_word_vectors(work / "wordvecs.txt")
        mode = params.config.triplet_mode
        lstm = features.make_triplet_lstm() if mode == "lstm" else None
        # the checkpoint decides how relationship rows are built
        bundles = [features.load_bundle(r, table, mode, lstm) for r in ds.split("test")]
        check(len(bundles) == CAPTION_IMAGES, f"{len(bundles)} test images")
        for b in bundles:
            check(b.spatial.shape[1] == params.config.spatial_dim, "feature width mismatch")
        return {"params": params, "vocab": vocab, "bundles": bundles}

    def item(self, s, acc, k):
        from sgcap import decoder, encoder

        params = s["params"]
        t0 = time.perf_counter()
        enc = encoder.encode(params.encoder, s["bundles"][k % CAPTION_IMAGES])
        tokens = decoder.generate_greedy(params.decoder, enc, max_len=CAPTION_BUDGET)
        elapsed = time.perf_counter() - t0
        check_caption(tokens, len(s["vocab"]))
        acc.setdefault("rates", []).append(1.0 / elapsed)
        return Item(elapsed, len(tokens), 1, list(tokens))

    def finish(self, s, acc):
        return {"caption_images_per_s": [float(np.median(acc["rates"])), "images/s"]}


def check_report(report: dict) -> None:
    keys = ["bleu1", "bleu2", "bleu3", "bleu4", "rougeL", "cider", "ciderD"]
    check(sorted(report) == sorted(keys), f"report keys {sorted(report)}")
    for k in keys:
        hi = 10.0 if k.startswith("cider") else 1.0
        check(math.isfinite(report[k]) and 0.0 <= report[k] <= hi, f"{k}={report[k]} out of range")
    check(report["bleu1"] > 0.0 and report["cider"] > 0.0, f"degenerate scores {report}")


class Evaluate5k(Workload):
    """BLEU-1..4, ROUGE-L, CIDEr and CIDEr-D over 5,000 synthetic candidates.

    Item k scores chunk k mod 50 (100 candidates, 5 references each) in one
    ``evaluate_captions`` call, idf included; 50 items make one pass.
    """

    name = "evaluate-5k"
    cycle = EVAL_IMAGES // EVAL_CHUNK
    setups = 15  # 0.2 s each

    def setup(self, work, seed):
        from sgcap import features

        ds = features.load_dataset(work / "dataset.jsonl")
        by_id = {}
        with (work / "candidates.jsonl").open(encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                by_id[obj["id"]] = obj["caption"]
        records = ds.split("test")
        return {
            "work": work,
            "cands": [features.tokenize(by_id[r.image_id]) for r in records],
            "refs": [[features.tokenize(c) for c in r.captions] for r in records],
        }

    def item(self, s, acc, k):
        from sgcap import metrics

        lo = (k % self.cycle) * EVAL_CHUNK
        cands, refs = s["cands"][lo:lo + EVAL_CHUNK], s["refs"][lo:lo + EVAL_CHUNK]
        t0 = time.perf_counter()
        report = metrics.evaluate_captions(cands, refs)
        elapsed = time.perf_counter() - t0
        check_report(report)
        acc.setdefault("rates", []).append(len(cands) / elapsed)
        return Item(elapsed, sum(len(c) for c in cands), 1, report)

    def finish(self, s, acc):
        return {"evaluate_images_per_s": [float(np.median(acc["rates"])), "images/s"]}

    def probe(self, s) -> dict:
        """`sgcap evaluate` on a split holding one empty candidate.

        Today ROUGE-L raises on the empty candidate and the command exits 1.
        """
        from sgcap import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["evaluate", "--candidates", str(s["work"] / "candidates.jsonl"),
                             "--dataset", str(s["work"] / "dataset.jsonl"), "--split", "val"])
        return {"operation": "evaluate split with an empty candidate", "exit_code": code,
                "ok": code == 0, "stderr": err.getvalue().strip()}


WORKLOADS = {w.name: w for w in (ToyTrain(), PaperCaption(), Evaluate5k())}


if __name__ == "__main__":
    if len(sys.argv) != 5 or sys.argv[1] != "generate":
        sys.exit("usage: workloads.py generate <workload> <seed> <dir>")
    generate(sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))
