"""Command-line surface: data prep, training, decoding, evaluation, audits.

Configuration is a flat ``key=value`` text file ('#' starts a comment).
The commands that read one (build-vocab, featurize, the three trainers
and caption) accept ``--config`` plus repeatable ``--set key=value``
overrides; a handful of common knobs also have dedicated flags which win
over both. Exit codes: 0 success, 2 usage error, 1 runtime error. All
final artifacts are written atomically; training logs stream per epoch.
"""

import argparse
import dataclasses
import json
import sys
import typing
from pathlib import Path

import numpy as np

from .captioner import CaptionerConfig, CaptionerParams
from .checkpoint import load_captioner, load_vse, save_captioner, save_vse
from .decoder import generate_greedy
from .encoder import encode
from .features import (
    FileFormatError,
    build_relationship_matrix,
    build_vocabulary,
    check_triplet_mode,
    coverage_stats,
    load_bundle,
    load_dataset,
    load_sgaf,
    load_word_vectors,
    read_jsonl,
    text_lines,
    tokenize,
    write_sgaf,
)
from .gradaudit import run_audit
from .ioutil import atomic_write_text
from .metrics import compute_idf, evaluate_captions
from .toydata import MIN_IMAGES, MIN_VOCAB, make_toy_data
from .trainer import Phase1Config, Phase2Config, TrainConfig, train_scst, train_xe
from .vse import VseConfig, train_vse


class UsageError(Exception):
    """Bad flag combinations and malformed overrides; exits 2."""


def _opt(conv):
    return lambda s: None if s.strip().lower() in ("", "none") else conv(s)


def int_at_least(low: int, what: str = ""):
    """The parser of an integer from ``low`` up, as a flag's type or a config
    key's parser; a smaller one is refused as not ``what``."""
    what = what or f"an integer >= {low}"

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {what}, got {value}")
        return value
    return integer


# a seed, from a --seed flag or the config: numpy takes integers from 0 up
nonnegative_int = int_at_least(0, "a non-negative integer")


def unit_interval(text: str) -> float:
    """A blend weight such as ``--alpha``: a number in [0, 1], NaN refused."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {value}")
    return value


def _keys(cls, prefix: str) -> dict:
    """Config key ``<prefix><field>`` -> (parser, default) for each field of ``cls``
    except those the commands derive (widths, vocabulary size, nested phases)."""
    hints = typing.get_type_hints(cls)
    schema = {}
    for f in dataclasses.fields(cls):
        if f.name in ("vocab_size", "spatial_dim", "phase1", "phase2"):
            continue
        inner = [t for t in typing.get_args(hints[f.name]) if t is not type(None)]
        schema[prefix + f.name] = (_opt(inner[0]) if inner else hints[f.name], f.default)
    return schema


CONFIG_SCHEMA = {
    **_keys(CaptionerConfig, "model."),
    **_keys(VseConfig, "vse."),
    **_keys(Phase1Config, "phase1."),
    **_keys(Phase2Config, "phase2."),
    **_keys(TrainConfig, ""),
    "seed": (nonnegative_int, 0),  # refused below 0, as --seed is
    # settings of the command rather than of a config dataclass
    "vocab.min_count": (int, 5),
    "vse.epochs": (int, 30),
    "vse.lr": (float, 0.01),
    "vse.batch": (int, 8),
}


def parse_config_file(path) -> dict[str, str]:
    path = Path(path)
    values: dict[str, str] = {}
    for lineno, line in text_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FileFormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


class RunConfig:
    """Schema-checked config values with typed access and defaults."""

    def __init__(self, values: dict[str, str], source: str):
        unknown = sorted(set(values) - set(CONFIG_SCHEMA))
        if unknown:
            raise FileFormatError(f"{source}: unknown config keys: {', '.join(unknown)}")
        self._values = dict(values)
        self._source = source

    def given(self, key) -> bool:
        """Whether the config file or a flag set ``key``."""
        return key in self._values

    def get(self, key):
        conv, default = CONFIG_SCHEMA[key]
        if key not in self._values:
            return default
        raw = self._values[key]
        try:
            return conv(raw)
        except ValueError:
            raise FileFormatError(f"{self._source}: field {key}: cannot parse {raw!r}") from None
        except argparse.ArgumentTypeError as exc:
            raise FileFormatError(f"{self._source}: field {key}: {exc}") from None


def load_run_config(args) -> RunConfig:
    values: dict[str, str] = {}
    source = "command line"
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
        source = str(args.config)
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        values[key.strip()] = value.strip()
    for flag, key in (("seed", "seed"), ("alpha", "phase2.alpha")):
        if getattr(args, flag, None) is not None:
            values[key] = str(getattr(args, flag))
    return RunConfig(values, source)


def _config(cls, cfg: RunConfig, prefix: str, **given):
    """``cls`` with every field not ``given`` read from config key ``<prefix><field>``."""
    names = [f.name for f in dataclasses.fields(cls) if f.name not in given]
    return cls(**given, **{name: cfg.get(prefix + name) for name in names})


def train_config_from(cfg: RunConfig) -> TrainConfig:
    return _config(TrainConfig, cfg, "", phase1=_config(Phase1Config, cfg, "phase1."),
                   phase2=_config(Phase2Config, cfg, "phase2."))


def _report(obj, out=None) -> int:
    """Print ``obj`` as the command's one-line JSON summary and, given ``out``,
    write it there indented; returns the success exit code."""
    if out:
        atomic_write_text(out, json.dumps(obj, sort_keys=True, indent=2) + "\n")
    print(json.dumps(obj, sort_keys=True))
    return 0


def _load_corpus(args, cfg: RunConfig, params: CaptionerParams | None = None):
    """Dataset and the closure that builds an image's features; given checkpoint ``params``,
    in its triplet mode (a config naming another is a usage error) and its spatial width."""
    mode = check_triplet_mode(cfg.get("model.triplet_mode"))  # before the corpus is read
    if params is not None:
        trained = params.config.triplet_mode
        if cfg.given("model.triplet_mode") and mode != trained:
            raise UsageError(f"model.triplet_mode={mode!r} conflicts with {args.checkpoint}, "
                             f"trained with {trained!r}")
        mode = trained
    dataset = load_dataset(args.dataset)
    table = load_word_vectors(args.wordvecs)

    def bundle_of(rec):
        bundle = load_bundle(rec, table, mode, None)
        if params is not None and bundle.spatial.shape[1] != params.config.spatial_dim:
            raise FileFormatError(
                f"{rec.feature_file}: feature width {bundle.spatial.shape[1]} "
                f"does not match checkpoint ({params.config.spatial_dim})"
            )
        return bundle

    return dataset, bundle_of


def _split_records(dataset, name, path):
    records = dataset.split(name)
    if not records:
        raise FileFormatError(f"{path}: split {name!r} has no images")
    return records


def _refs(record) -> list[list[str]]:
    return [tokenize(c) for c in record.captions]


def _scored_refs(records, path) -> list[list[list[str]]]:
    """Reference captions of records whose candidates get scored: every
    image needs one, and every caption a word."""
    for rec in records:
        if not rec.captions:
            raise FileFormatError(f"{path}: image {rec.image_id!r} has no reference captions")
    refs = [_refs(r) for r in records]
    for rec, tokens in zip(records, refs):
        if not all(tokens):
            raise FileFormatError(f"{path}: image {rec.image_id!r} has a caption with no words")
    return refs


def _vocabulary(cfg: RunConfig, records):
    return build_vocabulary((c for r in records for c in r.captions), min_count=cfg.get("vocab.min_count"))


def cmd_make_toy_data(args) -> int:
    return _report(make_toy_data(args.n_images, args.vocab_size, args.seed, args.out_dir))


def cmd_build_vocab(args) -> int:
    cfg = load_run_config(args)
    dataset = load_dataset(args.dataset)
    if args.split == "all":
        records = dataset.records
    else:
        records = _split_records(dataset, args.split, args.dataset)
    vocab = _vocabulary(cfg, records)
    vocab.save(args.out)
    return _report({"out": str(args.out), "tokens": len(vocab), "split": args.split})


def cmd_featurize(args) -> int:
    cfg = load_run_config(args)
    mode = check_triplet_mode(cfg.get("model.triplet_mode"))  # before --out-dir is made
    dataset = load_dataset(args.dataset)
    table = load_word_vectors(args.wordvecs)
    for rec in dataset.records:  # each id names a file directly inside --out-dir
        if rec.image_id in ("", ".", "..") or any(c in rec.image_id for c in "/\\\0"):
            raise FileFormatError(f"{args.dataset}: image id {rec.image_id!r} cannot name a feature file")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = 0
    for rec in dataset.records:  # relationship rows only: the spatial files go unread
        rel, mask = build_relationship_matrix(rec.triplets, table, mode=mode)
        write_sgaf(out_dir / f"{rec.image_id}.rel.sgaf", rel[mask])
        rows += int(mask.sum())
    return _report({"images": len(dataset), "relationship_rows": rows, "out_dir": str(out_dir)})


def cmd_train_vse(args) -> int:
    cfg = load_run_config(args)
    dataset = load_dataset(args.dataset)
    records = _split_records(dataset, "train", args.dataset)
    vocab = _vocabulary(cfg, records)
    pairs = []
    for rec in records:  # the ranking network reads spatial maps and tokens, never a word vector
        spatial = load_sgaf(rec.feature_file)
        for caption in rec.captions:
            tokens = [vocab.token_to_id(w) for w in tokenize(caption)]
            if not tokens:
                raise FileFormatError(f"{args.dataset}: image {rec.image_id!r} has a caption with no words")
            pairs.append((spatial, tokens))
    if not pairs:
        raise FileFormatError(f"{args.dataset}: split 'train' has no captions")
    seed = cfg.get("seed")
    config = _config(VseConfig, cfg, "vse.", vocab_size=len(vocab), spatial_dim=pairs[0][0].shape[1])
    params, losses = train_vse(
        pairs, config, np.random.default_rng(seed),
        epochs=cfg.get("vse.epochs"), lr=cfg.get("vse.lr"),
        batch_size=cfg.get("vse.batch"), log_path=args.log,
    )
    save_vse(args.out, params, vocab, seed)
    return _report({"out": str(args.out), "pairs": len(pairs), "final_loss": losses[-1]})


def _save_trained(args, params, vocab, seed, result, **summary) -> int:
    """Save a trained captioner to ``--out`` and print the run's summary line."""
    save_captioner(args.out, params, vocab, seed)
    return _report({
        "out": str(args.out),
        "best_epoch": result.best_epoch,
        "best_val_cider": result.best_val_cider,
        "stop_reason": result.stop_reason,
        "epochs_run": len(result.history),
        **summary,
    })


def cmd_train_xe(args) -> int:
    cfg = load_run_config(args)
    dataset, bundle_of = _load_corpus(args, cfg)
    train_recs = _split_records(dataset, "train", args.dataset)
    val_recs = _split_records(dataset, "val", args.dataset)
    if not any(r.captions for r in train_recs):
        raise FileFormatError(f"{args.dataset}: split 'train' has no captions")
    train_refs = _scored_refs(train_recs, args.dataset)  # the idf table reads these, as the SCST phase's does
    val_refs = _scored_refs(val_recs, args.dataset)
    vocab = _vocabulary(cfg, train_recs)
    train_pairs = []
    for rec in train_recs:
        bundle = bundle_of(rec)
        for caption in rec.captions:
            train_pairs.append((bundle, vocab.encode_caption(caption)))
    val_items = [(bundle_of(r), refs) for r, refs in zip(val_recs, val_refs)]
    idf = compute_idf(train_refs)
    seed = cfg.get("seed")
    model_config = _config(
        CaptionerConfig, cfg, "model.",
        vocab_size=len(vocab), spatial_dim=train_pairs[0][0].spatial.shape[1],
    )
    params = CaptionerParams.init(model_config, np.random.default_rng(seed))
    result = train_xe(
        params, train_pairs, val_items, vocab, train_config_from(cfg), idf,
        log_path=args.log,
    )
    return _save_trained(args, params, vocab, seed, result)


def cmd_train_scst(args) -> int:
    cfg = load_run_config(args)
    if args.reward == "mmr" and not args.vse:
        raise UsageError("--reward mmr needs --vse <checkpoint>")
    params, vocab, _ = load_captioner(args.checkpoint)
    dataset, bundle_of = _load_corpus(args, cfg, params)
    train_recs = _split_records(dataset, "train", args.dataset)
    val_recs = _split_records(dataset, "val", args.dataset)
    train_refs = _scored_refs(train_recs, args.dataset)
    val_refs = _scored_refs(val_recs, args.dataset)
    vse_params = None
    if args.vse:
        vse_params, vse_vocab, _ = load_vse(args.vse)
        if vse_vocab.tokens != vocab.tokens:
            raise FileFormatError(
                f"{args.vse}: vocabulary differs from {args.checkpoint}; "
                "both checkpoints must share one token list"
            )
        if vse_params.config.spatial_dim != params.config.spatial_dim:
            raise FileFormatError(
                f"{args.vse}: feature width {vse_params.config.spatial_dim} differs from "
                f"{args.checkpoint} ({params.config.spatial_dim}); both checkpoints must read one width"
            )
    train_items = [(bundle_of(r), refs) for r, refs in zip(train_recs, train_refs)]
    val_items = [(bundle_of(r), refs) for r, refs in zip(val_recs, val_refs)]
    idf = compute_idf(train_refs)
    seed = cfg.get("seed")
    result = train_scst(
        params, train_items, val_items, vocab, train_config_from(cfg), idf,
        vse=vse_params, reward=args.reward, log_path=args.log,
    )
    return _save_trained(args, params, vocab, seed, result, reward=args.reward)


def cmd_caption(args) -> int:
    cfg = load_run_config(args)
    params, vocab, _ = load_captioner(args.checkpoint)
    dataset, bundle_of = _load_corpus(args, cfg, params)
    records = _split_records(dataset, args.split, args.dataset)
    lines = []
    for rec in records:
        enc = encode(params.encoder, bundle_of(rec))
        caption = vocab.decode_tokens(generate_greedy(params.decoder, enc))
        lines.append(json.dumps({"id": rec.image_id, "caption": caption}, sort_keys=True))
    atomic_write_text(args.out, "".join(s + "\n" for s in lines))
    return _report({"out": str(args.out), "captions": len(lines), "split": args.split})


def cmd_evaluate(args) -> int:
    dataset = load_dataset(args.dataset)
    records = _split_records(dataset, args.split, args.dataset)
    references = _scored_refs(records, args.dataset)
    path = Path(args.candidates)
    a_string = (lambda x: isinstance(x, str), "a string")
    by_id = {ident: obj["caption"]
             for ident, obj in read_jsonl(path, {"id": a_string, "caption": a_string})}
    candidates = []
    for rec in records:
        if rec.image_id not in by_id:
            raise FileFormatError(f"{path}: field id: no caption for image {rec.image_id!r}")
        candidates.append(tokenize(by_id[rec.image_id]))
    report = evaluate_captions(candidates, references)
    report["images"] = len(records)
    return _report(report, args.out)


def cmd_grad_audit(args) -> int:
    reports = run_audit(seeds=(args.seed, args.seed + 1, args.seed + 2))
    for r in reports:
        print(f"{r.block:24s} max_rel_err={r.max_rel_err:.3e} "
              f"{'PASS' if r.passed else 'FAIL'}")
    _report({r.block: r.max_rel_err for r in reports}, args.out)
    if all(r.passed for r in reports):
        return 0
    print("gradient audit FAILED", file=sys.stderr)
    return 1


def cmd_coverage_stats(args) -> int:
    return _report(coverage_stats(load_dataset(args.dataset)), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgcap",
        description="Scene-graph image captioning: training, decoding, evaluation.",
    )
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", type=Path, help="key=value config file")
    config.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config field (repeatable)")
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--dataset", type=Path, required=True)
    corpus = argparse.ArgumentParser(add_help=False, parents=[config, data])  # builds image features
    corpus.add_argument("--wordvecs", type=Path, required=True)
    trainer = argparse.ArgumentParser(add_help=False)
    trainer.add_argument("--out", type=Path, required=True)
    trainer.add_argument("--seed", type=nonnegative_int)
    trainer.add_argument("--log", type=Path)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, parents=parents, help=summary)
        p.set_defaults(func=func)
        return p

    p = command("make-toy-data", cmd_make_toy_data, "generate a synthetic desk-scale dataset")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--n-images", type=int_at_least(MIN_IMAGES), default=20)
    p.add_argument("--vocab-size", type=int_at_least(MIN_VOCAB), default=27)
    p.add_argument("--seed", type=nonnegative_int, default=0)

    p = command("build-vocab", cmd_build_vocab, "build and save a vocabulary from captions", config, data)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--split", default="train", choices=["train", "val", "test", "all"])

    p = command("featurize", cmd_featurize, "precompute relationship feature matrices", corpus)
    p.add_argument("--out-dir", type=Path, required=True)

    p = command("train-vse", cmd_train_vse, "train the image-caption ranking network", config, data, trainer)
    p.add_argument("--wordvecs", type=Path, help="accepted like the other trainers' flag, never read")
    command("train-xe", cmd_train_xe, "phase 1: cross-entropy training", corpus, trainer)

    p = command("train-scst", cmd_train_scst, "phase 2: self-critical fine-tuning", corpus, trainer)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--vse", type=Path, help="reward network checkpoint")
    p.add_argument("--reward", default="mmr", choices=["cider", "mmr"])
    p.add_argument("--alpha", type=unit_interval)

    p = command("caption", cmd_caption, "greedy-decode captions for a split", corpus)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--out", type=Path, required=True)

    p = command("evaluate", cmd_evaluate, "score candidate captions against references", data)
    p.add_argument("--candidates", type=Path, required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--out", type=Path)

    p = command("grad-audit", cmd_grad_audit, "finite-difference audit of every block")
    p.add_argument("--seed", type=nonnegative_int, default=0)
    p.add_argument("--out", type=Path)

    p = command("coverage-stats", cmd_coverage_stats,
                "triplet-word occurrence in captions, per split", data)
    p.add_argument("--out", type=Path)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
