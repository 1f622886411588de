"""Command-line surface: data prep, training, decoding, evaluation, audits.

Configuration is a flat ``key=value`` text file ('#' starts a comment).
Every command accepts ``--config`` plus repeatable ``--set key=value``
overrides; a handful of common knobs also have dedicated flags which win
over both. Exit codes: 0 success, 2 usage error, 1 runtime error. All
final artifacts are written atomically; training logs stream per epoch.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .captioner import CaptionerConfig, CaptionerParams
from .checkpoint import load_captioner, load_vse, save_captioner, save_vse
from .decoder import generate_greedy
from .encoder import encode
from .features import (
    FileFormatError,
    build_vocabulary,
    coverage_stats,
    load_bundle,
    load_dataset,
    load_word_vectors,
    make_triplet_lstm,
    read_jsonl,
    text_lines,
    tokenize,
    write_sgaf,
)
from .gradaudit import TOLERANCE, run_audit
from .ioutil import atomic_write_text
from .metrics import compute_idf, evaluate_captions
from .toydata import make_toy_data
from .trainer import Phase1Config, Phase2Config, TrainConfig, train_scst, train_xe
from .vse import VseConfig, train_vse


class UsageError(Exception):
    """Bad flag combinations and malformed overrides; exits 2."""


def _default(cls, name):
    for f in dataclasses.fields(cls):
        if f.name == name:
            return f.default
    raise KeyError(name)


def _opt(conv):
    return lambda s: None if s.strip().lower() in ("", "none") else conv(s)


CONFIG_SCHEMA = {
    "model.d_model": (int, _default(CaptionerConfig, "d_model")),
    "model.embed_dim": (int, _default(CaptionerConfig, "embed_dim")),
    "model.heads": (int, _default(CaptionerConfig, "heads")),
    "model.max_len": (int, _default(CaptionerConfig, "max_len")),
    "model.triplet_mode": (str, _default(CaptionerConfig, "triplet_mode")),
    "vocab.min_count": (int, 5),
    "vse.embed_dim": (int, _default(VseConfig, "embed_dim")),
    "vse.hidden_dim": (int, _default(VseConfig, "hidden_dim")),
    "vse.space_dim": (int, _default(VseConfig, "space_dim")),
    "vse.margin": (float, _default(VseConfig, "margin")),
    "vse.epochs": (int, 30),
    "vse.lr": (float, 0.01),
    "vse.batch": (int, 8),
    "phase1.max_epochs": (int, _default(Phase1Config, "max_epochs")),
    "phase1.patience": (int, _default(Phase1Config, "patience")),
    "phase1.lr0": (float, _default(Phase1Config, "lr0")),
    "phase1.decay_every": (int, _default(Phase1Config, "decay_every")),
    "phase1.decay_factor": (float, _default(Phase1Config, "decay_factor")),
    "phase1.batch": (int, _default(Phase1Config, "batch")),
    "phase1.stop_loss": (_opt(float), _default(Phase1Config, "stop_loss")),
    "phase2.epochs": (int, _default(Phase2Config, "epochs")),
    "phase2.patience": (int, _default(Phase2Config, "patience")),
    "phase2.lr": (float, _default(Phase2Config, "lr")),
    "phase2.batch": (int, _default(Phase2Config, "batch")),
    "phase2.alpha": (float, _default(Phase2Config, "alpha")),
    "phase2.max_steps": (_opt(int), _default(Phase2Config, "max_steps")),
    "seed": (int, _default(TrainConfig, "seed")),
    "clip_norm": (float, _default(TrainConfig, "clip_norm")),
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
            raise FileFormatError(
                f"{self._source}: field {key}: cannot parse {raw!r}"
            ) from None


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
    if getattr(args, "seed", None) is not None:
        values["seed"] = str(args.seed)
    if getattr(args, "alpha", None) is not None:
        values["phase2.alpha"] = str(args.alpha)
    return RunConfig(values, source)


def _config(cls, cfg: RunConfig, prefix: str, **given):
    """``cls`` with every field not ``given`` read from config key ``<prefix>.<field>``."""
    names = [f.name for f in dataclasses.fields(cls) if f.name not in given]
    return cls(**given, **{name: cfg.get(f"{prefix}.{name}") for name in names})


def train_config_from(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(
        phase1=_config(Phase1Config, cfg, "phase1"),
        phase2=_config(Phase2Config, cfg, "phase2"),
        seed=cfg.get("seed"),
        clip_norm=cfg.get("clip_norm"),
    )


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _checkpoint_triplet_mode(cfg: RunConfig, params: CaptionerParams, path) -> str:
    """The triplet mode a checkpoint was trained with; a config that names another is a usage error."""
    mode, asked = params.config.triplet_mode, cfg.get("model.triplet_mode")
    if cfg.given("model.triplet_mode") and asked != mode:
        raise UsageError(f"model.triplet_mode={asked!r} conflicts with {path}, trained with {mode!r}")
    return mode


def _load_corpus(args, mode: str):
    """Dataset, word vectors, and the closure that builds an image's features."""
    dataset = load_dataset(args.dataset)
    table = load_word_vectors(args.wordvecs)
    lstm = make_triplet_lstm() if mode == "lstm" else None
    return dataset, lambda rec: load_bundle(rec, table, mode, lstm)


def _split_records(dataset, name, path):
    records = dataset.split(name)
    if not records:
        raise FileFormatError(f"{path}: split {name!r} has no images")
    return records


def _refs(record) -> list[list[str]]:
    return [tokenize(c) for c in record.captions]


def cmd_make_toy_data(args) -> int:
    info = make_toy_data(args.n_images, args.vocab_size, args.seed, args.out_dir)
    _emit(info)
    return 0


def cmd_build_vocab(args) -> int:
    cfg = load_run_config(args)
    dataset = load_dataset(args.dataset)
    if args.split == "all":
        records = dataset.records
    else:
        records = _split_records(dataset, args.split, args.dataset)
    captions = [c for r in records for c in r.captions]
    vocab = build_vocabulary(captions, min_count=cfg.get("vocab.min_count"))
    vocab.save(args.out)
    _emit({"out": str(args.out), "tokens": len(vocab), "split": args.split})
    return 0


def cmd_featurize(args) -> int:
    cfg = load_run_config(args)
    dataset, bundle_of = _load_corpus(args, cfg.get("model.triplet_mode"))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = 0
    for rec in dataset.records:
        bundle = bundle_of(rec)
        active = bundle.relationships[bundle.rel_mask]
        write_sgaf(out_dir / f"{rec.image_id}.rel.sgaf", active)
        rows += int(active.shape[0])
    _emit({"images": len(dataset), "relationship_rows": rows, "out_dir": str(out_dir)})
    return 0


def cmd_train_vse(args) -> int:
    cfg = load_run_config(args)
    dataset, bundle_of = _load_corpus(args, cfg.get("model.triplet_mode"))
    records = _split_records(dataset, "train", args.dataset)
    vocab = build_vocabulary(
        (c for r in records for c in r.captions), min_count=cfg.get("vocab.min_count")
    )
    pairs = []
    for rec in records:
        spatial = bundle_of(rec).spatial
        for caption in rec.captions:
            pairs.append((spatial, [vocab.token_to_id(w) for w in tokenize(caption)]))
    seed = cfg.get("seed")
    config = _config(VseConfig, cfg, "vse", vocab_size=len(vocab), spatial_dim=pairs[0][0].shape[1])
    params, losses = train_vse(
        pairs, config, np.random.default_rng(seed),
        epochs=cfg.get("vse.epochs"), lr=cfg.get("vse.lr"),
        batch_size=cfg.get("vse.batch"),
    )
    if args.log:
        atomic_write_text(args.log, "".join(
            json.dumps({"epoch": i, "loss": x}) + "\n" for i, x in enumerate(losses)
        ))
    save_vse(args.out, params, vocab, seed)
    _emit({"out": str(args.out), "pairs": len(pairs), "final_loss": losses[-1]})
    return 0


def cmd_train_xe(args) -> int:
    cfg = load_run_config(args)
    dataset, bundle_of = _load_corpus(args, cfg.get("model.triplet_mode"))
    train_recs = _split_records(dataset, "train", args.dataset)
    val_recs = _split_records(dataset, "val", args.dataset)
    vocab = build_vocabulary(
        (c for r in train_recs for c in r.captions), min_count=cfg.get("vocab.min_count")
    )
    train_pairs = []
    for rec in train_recs:
        bundle = bundle_of(rec)
        for caption in rec.captions:
            train_pairs.append((bundle, vocab.encode_caption(caption)))
    val_items = [(bundle_of(r), _refs(r)) for r in val_recs]
    idf = compute_idf([_refs(r) for r in train_recs])
    seed = cfg.get("seed")
    model_config = _config(
        CaptionerConfig, cfg, "model",
        vocab_size=len(vocab), spatial_dim=train_pairs[0][0].spatial.shape[1],
    )
    params = CaptionerParams.init(model_config, np.random.default_rng(seed))
    result = train_xe(
        params, train_pairs, val_items, vocab, train_config_from(cfg), idf,
        log_path=args.log,
    )
    save_captioner(args.out, params, vocab, seed)
    _emit({
        "out": str(args.out),
        "best_epoch": result.best_epoch,
        "best_val_cider": result.best_val_cider,
        "stop_reason": result.stop_reason,
        "epochs_run": len(result.history),
    })
    return 0


def cmd_train_scst(args) -> int:
    cfg = load_run_config(args)
    if args.reward == "mmr" and not args.vse:
        raise UsageError("--reward mmr needs --vse <checkpoint>")
    params, vocab, _ = load_captioner(args.checkpoint)
    mode = _checkpoint_triplet_mode(cfg, params, args.checkpoint)
    dataset, bundle_of = _load_corpus(args, mode)
    train_recs = _split_records(dataset, "train", args.dataset)
    val_recs = _split_records(dataset, "val", args.dataset)
    vse_params = None
    if args.vse:
        vse_params, vse_vocab, _ = load_vse(args.vse)
        if vse_vocab.tokens != vocab.tokens:
            raise FileFormatError(
                f"{args.vse}: vocabulary differs from {args.checkpoint}; "
                "both checkpoints must share one token list"
            )
    train_items = [(bundle_of(r), _refs(r)) for r in train_recs]
    val_items = [(bundle_of(r), _refs(r)) for r in val_recs]
    idf = compute_idf([_refs(r) for r in train_recs])
    seed = cfg.get("seed")
    result = train_scst(
        params, train_items, val_items, vocab, train_config_from(cfg), idf,
        vse=vse_params, reward=args.reward, log_path=args.log,
    )
    save_captioner(args.out, params, vocab, seed)
    _emit({
        "out": str(args.out),
        "reward": args.reward,
        "best_epoch": result.best_epoch,
        "best_val_cider": result.best_val_cider,
        "stop_reason": result.stop_reason,
        "epochs_run": len(result.history),
    })
    return 0


def cmd_caption(args) -> int:
    cfg = load_run_config(args)
    params, vocab, _ = load_captioner(args.checkpoint)
    mode = _checkpoint_triplet_mode(cfg, params, args.checkpoint)
    dataset, bundle_of = _load_corpus(args, mode)
    records = _split_records(dataset, args.split, args.dataset)
    lines = []
    for rec in records:
        bundle = bundle_of(rec)
        if bundle.spatial.shape[1] != params.config.spatial_dim:
            raise FileFormatError(
                f"{rec.feature_file}: feature width {bundle.spatial.shape[1]} "
                f"does not match checkpoint ({params.config.spatial_dim})"
            )
        caption = vocab.decode_tokens(generate_greedy(params.decoder, encode(params.encoder, bundle)))
        lines.append(json.dumps({"id": rec.image_id, "caption": caption}, sort_keys=True))
    atomic_write_text(args.out, "".join(s + "\n" for s in lines))
    _emit({"out": str(args.out), "captions": len(lines), "split": args.split})
    return 0


def cmd_evaluate(args) -> int:
    dataset = load_dataset(args.dataset)
    records = _split_records(dataset, args.split, args.dataset)
    path = Path(args.candidates)
    a_string = (lambda x: isinstance(x, str), "a string")
    by_id = {obj["id"]: obj["caption"]
             for obj in read_jsonl(path, {"id": a_string, "caption": a_string})}
    candidates, references = [], []
    for rec in records:
        if rec.image_id not in by_id:
            raise FileFormatError(f"{path}: field id: no caption for image {rec.image_id!r}")
        candidates.append(tokenize(by_id[rec.image_id]))
        references.append(_refs(rec))
    report = evaluate_captions(candidates, references)
    report["images"] = len(records)
    if args.out:
        atomic_write_text(args.out, json.dumps(report, sort_keys=True, indent=2) + "\n")
    _emit(report)
    return 0


def cmd_grad_audit(args) -> int:
    seeds = (args.seed, args.seed + 1, args.seed + 2)
    reports = run_audit(seeds=seeds)
    for r in reports:
        print(f"{r.block:24s} max_rel_err={r.max_rel_err:.3e} "
              f"{'PASS' if r.passed else 'FAIL'}")
    if args.out:
        atomic_write_text(args.out, json.dumps(
            {r.block: r.max_rel_err for r in reports}, sort_keys=True, indent=2
        ) + "\n")
    if all(r.passed for r in reports):
        print(f"all blocks within {TOLERANCE:g} over seeds {seeds}")
        return 0
    print("gradient audit FAILED", file=sys.stderr)
    return 1


def cmd_coverage_stats(args) -> int:
    stats = coverage_stats(load_dataset(args.dataset))
    if args.out:
        atomic_write_text(args.out, json.dumps(stats, sort_keys=True, indent=2) + "\n")
    _emit(stats)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgcap",
        description="Scene-graph image captioning: training, decoding, evaluation.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="key=value config file")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config field (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-toy-data", parents=[common],
                       help="generate a synthetic desk-scale dataset")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--n-images", type=int, default=20)
    p.add_argument("--vocab-size", type=int, default=27)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_make_toy_data)

    p = sub.add_parser("build-vocab", parents=[common],
                       help="build and save a vocabulary from captions")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--split", default="train", choices=["train", "val", "test", "all"])
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("featurize", parents=[common],
                       help="precompute relationship feature matrices")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--wordvecs", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train-vse", parents=[common],
                       help="train the image-caption ranking network")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--wordvecs", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--log", type=Path)
    p.set_defaults(func=cmd_train_vse)

    p = sub.add_parser("train-xe", parents=[common],
                       help="phase 1: cross-entropy training")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--wordvecs", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--log", type=Path)
    p.set_defaults(func=cmd_train_xe)

    p = sub.add_parser("train-scst", parents=[common],
                       help="phase 2: self-critical fine-tuning")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--wordvecs", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--vse", type=Path, help="reward network checkpoint")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--reward", default="mmr", choices=["cider", "mmr"])
    p.add_argument("--alpha", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--log", type=Path)
    p.set_defaults(func=cmd_train_scst)

    p = sub.add_parser("caption", parents=[common],
                       help="greedy-decode captions for a split")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--wordvecs", type=Path, required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_caption)

    p = sub.add_parser("evaluate", parents=[common],
                       help="score candidate captions against references")
    p.add_argument("--candidates", type=Path, required=True)
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("grad-audit", parents=[common],
                       help="finite-difference audit of every block")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_grad_audit)

    p = sub.add_parser("coverage-stats", parents=[common],
                       help="triplet-word occurrence in captions, per split")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_coverage_stats)

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
