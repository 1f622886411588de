"""Command-line interface: artifacts, exit codes, determinism."""

import argparse
import collections
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgcap
import sgcap.cli as cli
import sgcap.features as features
from sgcap.captioner import MAX_LEN_LIMIT, CaptionerConfig
from oracles import load_checkpoint
from sgcap.checkpoint import MAGIC, load_captioner, load_vse, save_captioner, save_vse
from sgcap.cli import main, parse_config_file
from sgcap.features import FileFormatError, load_dataset, write_sgaf
from sgcap.gradaudit import BlockReport
from sgcap.toydata import MIN_IMAGES, make_toy_data
from sgcap.trainer import Phase1Config, Phase2Config, TrainConfig
from sgcap.vse import VseConfig, VseParams
from test_checkpoint import poke
from test_features import JSON

TINY_CFG = """\
# desk-scale settings for the test suite
model.d_model = 8
model.embed_dim = 8
model.heads = 2
model.max_len = 10
vocab.min_count = 1
vse.embed_dim = 8
vse.hidden_dim = 8
vse.space_dim = 6
vse.epochs = 10
vse.lr = 0.05
vse.batch = 8
phase1.max_epochs = 3
phase1.patience = 5
phase1.lr0 = 0.05
phase1.batch = 4
phase2.epochs = 1
phase2.lr = 0.0005
phase2.batch = 8
seed = 3
"""


def run(capsys, *argv):
    rc = main([str(a) for a in argv])
    out = capsys.readouterr().out.strip()
    last = out.splitlines()[-1] if out else ""
    return rc, (json.loads(last) if last.startswith("{") else last)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Toy corpus plus a config file; built once per module."""
    root = tmp_path_factory.mktemp("cliworld")
    rc = main(["make-toy-data", "--out-dir", str(root / "toy"),
               "--n-images", "10", "--vocab-size", "27", "--seed", "0"])
    assert rc == 0
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    return {"root": root, "dataset": root / "toy" / "dataset.jsonl",
            "wordvecs": root / "toy" / "wordvecs.txt", "cfg": cfg}


@pytest.fixture(scope="module")
def trained(world, tmp_path_factory):
    """VSE + XE checkpoints trained once and shared by later tests."""
    root = tmp_path_factory.mktemp("trained")
    base = ["--config", world["cfg"], "--dataset", world["dataset"]]
    rc = main([str(a) for a in
               ["train-vse", *base, "--out", root / "vse.sgck",
                "--log", root / "vse_log.jsonl"]])
    assert rc == 0
    rc = main([str(a) for a in
               ["train-xe", *base, "--wordvecs", world["wordvecs"], "--out", root / "xe.sgck",
                "--log", root / "xe_log.jsonl"]])
    assert rc == 0
    return {"vse": root / "vse.sgck", "xe": root / "xe.sgck",
            "xe_log": root / "xe_log.jsonl", "vse_log": root / "vse_log.jsonl"}


@pytest.fixture(scope="module")
def lstm_xe(trained, tmp_path_factory):
    """The XE checkpoint, labelled as trained on lstm-aggregated relationship rows."""
    params, vocab, seed = load_captioner(trained["xe"])
    params.config.triplet_mode = "lstm"
    path = tmp_path_factory.mktemp("lstm") / "xe_lstm.sgck"
    save_captioner(path, params, vocab, seed)
    return path


@pytest.fixture
def bundle_modes(monkeypatch):
    """The triplet mode of every feature bundle the CLI builds."""
    modes = []
    build = cli.load_bundle

    def load_bundle(record, table, mode, lstm):
        modes.append(mode)
        return build(record, table, mode, lstm)

    monkeypatch.setattr(cli, "load_bundle", load_bundle)
    return modes


def word_vectors(world, command):
    """``--wordvecs`` for a command that builds relationship rows; train-vse builds none."""
    return [] if command == "train-vse" else ["--wordvecs", world["wordvecs"]]


def without_references(world, tmp_path, split, captions=()):
    """The toy dataset with the first ``split`` image's captions replaced by
    ``captions``, by default removed; (path, that image's id)."""
    records = [json.loads(line) for line in world["dataset"].read_text().splitlines()]
    for r in records:  # an absolute feature file keeps the rewritten dataset's features
        r["feature_file"] = str(world["dataset"].parent / r["feature_file"])
    bare = next(r for r in records if r["split"] == split)
    bare["captions"] = list(captions)
    path = tmp_path / "bare.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path, bare["id"]


def with_header(checkpoint, path, edit):
    """A copy of ``checkpoint`` at ``path`` whose header ``edit`` has changed in place."""
    raw = checkpoint.read_bytes()
    head_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + head_len])
    edit(header)
    head = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:8] + len(head).to_bytes(8, "little") + head + raw[16 + head_len:])
    return path


def with_config_field(checkpoint, path, field, value):
    """A copy of ``checkpoint`` at ``path`` whose header sets config ``field`` to ``value``."""
    return with_header(checkpoint, path, lambda header: header["config"].__setitem__(field, value))


def without_triplets(world, tmp_path):
    """The toy dataset with every record's triplets removed."""
    records = [json.loads(line) for line in world["dataset"].read_text().splitlines()]
    for r in records:
        r["feature_file"] = str(world["dataset"].parent / r["feature_file"])
        r["triplets"] = []
    path = tmp_path / "no_triplets.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


class TestTripletModeChecked:
    """An unknown model.triplet_mode exits 1 before a corpus is read or a file written."""

    def test_train_xe_writes_no_checkpoint(self, world, tmp_path, capsys):
        rc = main([str(a) for a in [
            "train-xe", "--config", world["cfg"], "--dataset", without_triplets(world, tmp_path),
            "--wordvecs", world["wordvecs"], "--out", tmp_path / "xe.sgck", "--log", tmp_path / "log.jsonl",
            "--set", "model.triplet_mode=bogus"]])
        assert rc == 1
        assert "expected one of mean, lstm" in capsys.readouterr().err
        assert not (tmp_path / "xe.sgck").exists() and not (tmp_path / "log.jsonl").exists()

    def test_checkpoint_naming_another_mode_is_a_file_format_error(self, world, trained, tmp_path, capsys):
        params, vocab, seed = load_captioner(trained["xe"])
        params.config.triplet_mode = "bogus"
        bogus = tmp_path / "bogus.sgck"
        save_captioner(bogus, params, vocab, seed)
        with pytest.raises(FileFormatError, match="expected one of mean, lstm"):
            load_captioner(bogus)
        rc = main([str(a) for a in ["caption", "--checkpoint", bogus, "--dataset", world["dataset"],
                                    "--wordvecs", world["wordvecs"], "--out", tmp_path / "c.jsonl"]])
        assert rc == 1
        assert "bogus.sgck" in capsys.readouterr().err
        assert not (tmp_path / "c.jsonl").exists()

    @pytest.mark.parametrize("command", ["train-xe", "train-scst", "caption"])
    def test_checked_before_the_corpus_is_read(self, world, trained, tmp_path, capsys, monkeypatch, command):
        def load_dataset(path):
            raise AssertionError(f"{command} read {path}")

        monkeypatch.setattr(cli, "load_dataset", load_dataset)
        out = tmp_path / "out"
        argv = {
            "train-xe": ["--config", world["cfg"], "--out", out, "--log", tmp_path / "log.jsonl"],
            "train-scst": ["--config", world["cfg"], "--checkpoint", trained["xe"], "--reward", "cider",
                           "--out", out, "--log", tmp_path / "log.jsonl"],
            "caption": ["--checkpoint", trained["xe"], "--out", out],
        }[command]
        rc = main([str(a) for a in [command, "--dataset", world["dataset"], "--wordvecs", world["wordvecs"],
                                    *argv, "--set", "model.triplet_mode=bogus"]])
        assert rc == 1
        assert "unknown triplet aggregation mode 'bogus'; expected one of mean, lstm" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestConfigParsing:
    def test_comments_and_spacing(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\n\n seed = 9 # trailing\nphase2.alpha=0.5\n")
        assert parse_config_file(p) == {"seed": "9", "phase2.alpha": "0.5"}

    def test_malformed_line_names_position(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("seed 9\n")
        rc = main(["train-vse", "--config", str(p), "--dataset", "x", "--out", "y"])
        assert rc == 1
        assert "c.cfg:1" in capsys.readouterr().err

    def test_unknown_key_rejected(self, world, capsys):
        rc, _ = run(capsys, "train-vse", "--dataset", world["dataset"],
                    "--out", world["root"] / "v.sgck", "--set", "bogus.key=1")
        assert rc == 1

    def test_unparseable_value_names_field(self, world, capsys):
        rc = main(["train-vse", "--dataset", str(world["dataset"]),
                   "--out", str(world["root"] / "x.sgck"),
                   "--set", "vse.epochs=three"])
        assert rc == 1
        assert "vse.epochs" in capsys.readouterr().err


# every config dataclass field a command reads from a config key, as (key, prefix, field)
DATACLASS_KEYS = [
    (prefix + f.name, prefix, f)
    for prefix, cls in [("model.", CaptionerConfig), ("vse.", VseConfig), ("phase1.", Phase1Config),
                        ("phase2.", Phase2Config), ("", TrainConfig)]
    for f in dataclasses.fields(cls)
    if f.name not in ("vocab_size", "spatial_dim", "phase1", "phase2")
]


def built_configs(*settings):
    """The config objects the commands build under ``--set`` settings, by key prefix."""
    cfg = cli.load_run_config(argparse.Namespace(set=list(settings)))
    train = cli.train_config_from(cfg)
    return {
        "model.": cli._config(CaptionerConfig, cfg, "model.", vocab_size=9, spatial_dim=64),
        "vse.": cli._config(VseConfig, cfg, "vse.", vocab_size=9, spatial_dim=64),
        "phase1.": train.phase1, "phase2.": train.phase2, "": train,
    }


class TestConfigSchema:
    @pytest.mark.parametrize("key,prefix,field", DATACLASS_KEYS, ids=[k for k, _, _ in DATACLASS_KEYS])
    def test_key_follows_its_dataclass_field(self, key, prefix, field):
        assert cli.CONFIG_SCHEMA[key][1] == field.default
        assert getattr(built_configs()[prefix], field.name) == field.default
        if field.default is None or isinstance(field.default, str):
            raw, want = {None: ("7", 7), "mean": ("lstm", "lstm")}[field.default]
        elif isinstance(field.default, int):
            raw, want = str(field.default * 2 or 1), field.default * 2 or 1
        else:
            raw, want = repr(field.default / 2), field.default / 2
        assert getattr(built_configs(f"{key}={raw}")[prefix], field.name) == want
        if field.default is None:  # the Optional fields
            assert getattr(built_configs(f"{key}=none")[prefix], field.name) is None


class TestConfigFuzz:
    @given(raw=st.binary(max_size=80) | st.text(max_size=40).map(str.encode))
    @settings(max_examples=300, deadline=None)
    def test_any_bytes_parse_or_raise_file_format_error(self, tmp_path_factory, raw):
        path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
        path.write_bytes(raw)
        try:
            values = parse_config_file(path)
        except FileFormatError:
            return
        assert all(isinstance(k, str) and isinstance(v, str) for k, v in values.items())


class TestUsageErrors:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["make-toy-data", "--out-dir", "x", "--frobnicate"],
        # commands that read no config take neither --config nor --set
        ["make-toy-data", "--out-dir", "x", "--set", "bogus=1"],
        ["evaluate", "--dataset", "d.jsonl", "--candidates", "c.jsonl", "--set", "bogus=1"],
        ["grad-audit", "--set", "bogus=1"],
        ["coverage-stats", "--dataset", "d.jsonl", "--set", "bogus=1"],
        # commands and a flag sgcap does not have
        ["featurize", "--dataset", "d.jsonl", "--wordvecs", "w.txt", "--out-dir", "x"],
        ["build-vocab", "--dataset", "d.jsonl", "--out", "v.json"],
        ["train-vse", "--dataset", "d.jsonl", "--out", "o.sgck", "--wordvecs", "w"],
    ], ids=["frobnicate", "make-toy-data", "evaluate", "grad-audit", "coverage-stats",
            "featurize", "build-vocab", "train-vse-wordvecs"])
    def test_unknown_flag_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_malformed_set_exits_2(self, world, capsys):
        rc, _ = run(capsys, "train-vse", "--dataset", world["dataset"],
                    "--out", "v.sgck", "--set", "novalue")
        assert rc == 2

    def test_missing_dataset_exits_1(self, capsys):
        rc, _ = run(capsys, "coverage-stats", "--dataset", "absent.jsonl")
        assert rc == 1


class TestSeedChecked:
    """A seed below 0 is refused by name: as a flag, a usage error; in the config, a data error."""

    @pytest.mark.parametrize("argv", [
        ["make-toy-data", "--out-dir", "x"],
        ["train-vse", "--dataset", "d.jsonl", "--out", "o.sgck"],
        ["train-xe", "--dataset", "d.jsonl", "--wordvecs", "w.txt", "--out", "o.sgck"],
        ["train-scst", "--dataset", "d.jsonl", "--wordvecs", "w.txt", "--out", "o.sgck",
         "--checkpoint", "c.sgck"],
        ["grad-audit"],
    ], ids=lambda argv: argv[0])
    def test_negative_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: expected a non-negative integer, got -1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("source", ["set", "config"])
    @pytest.mark.parametrize("command", ["train-vse", "train-xe"])
    def test_negative_config_seed_exits_1(self, world, tmp_path, capsys, command, source):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text(TINY_CFG + "seed = -1\n")
        given = ["--set", "seed=-1"] if source == "set" else ["--config", cfg]
        rc = main([str(a) for a in (command, "--config", world["cfg"], *given, "--dataset", world["dataset"],
                                    *word_vectors(world, command), "--out", tmp_path / "o.sgck")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert "field seed: expected a non-negative integer, got -1" in err
        assert not (tmp_path / "o.sgck").exists()


class TestFlagRanges:
    """A flag value out of its range is a usage error that names the flag."""

    @pytest.mark.parametrize("flag, value, message", [
        ("--n-images", "2", "expected an integer >= 3, got 2"),
        ("--n-images", "1", "expected an integer >= 3, got 1"),
        ("--n-images", "-1", "expected an integer >= 3, got -1"),
        ("--vocab-size", "9", "expected an integer >= 10, got 9"),
        ("--vocab-size", "0", "expected an integer >= 10, got 0"),
    ])
    def test_make_toy_data_exits_2(self, tmp_path, capsys, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            main(["make-toy-data", "--out-dir", str(tmp_path / "toy"), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "toy").exists()

    def test_make_toy_data_takes_the_smallest_values(self, tmp_path, capsys):
        rc, info = run(capsys, "make-toy-data", "--out-dir", tmp_path / "toy", "--n-images", "3",
                       "--vocab-size", "10")
        assert rc == 0 and info["n_images"] == 3

    def test_smallest_corpus_trains(self, world, tmp_path, capsys):
        toy = tmp_path / "toy"
        rc, _ = run(capsys, "make-toy-data", "--out-dir", toy, "--n-images", MIN_IMAGES, "--vocab-size", "10")
        assert rc == 0
        base = ["--config", world["cfg"], "--dataset", toy / "dataset.jsonl"]
        for command, wordvecs in (("train-vse", []), ("train-xe", ["--wordvecs", toy / "wordvecs.txt"])):
            rc, info = run(capsys, command, *base, *wordvecs, "--out", tmp_path / f"{command}.sgck")
            assert rc == 0, info

    @pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
    def test_alpha_flag_exits_2(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["train-scst", "--dataset", "d.jsonl", "--wordvecs", "w.txt", "--checkpoint", "c.sgck",
                  "--out", str(tmp_path / "o.sgck"), "--alpha", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --alpha: expected a number in [0, 1], got {float(value)}" in err
        assert "Traceback" not in err

    def test_alpha_config_field_exits_1(self, world, trained, tmp_path, capsys):
        rc = main([str(a) for a in (
            "train-scst", "--config", world["cfg"], "--dataset", world["dataset"],
            "--wordvecs", world["wordvecs"], "--checkpoint", trained["xe"], "--reward", "cider",
            "--out", tmp_path / "o.sgck", "--set", "phase2.alpha=1.5")])
        assert rc == 1
        assert "alpha must lie in [0, 1], got 1.5" in capsys.readouterr().err
        assert not (tmp_path / "o.sgck").exists()


class TestMakeToyData:
    def test_summary_and_determinism(self, tmp_path, capsys):
        rc1, info1 = run(capsys, "make-toy-data", "--out-dir", tmp_path / "a",
                         "--n-images", "6", "--seed", "5")
        rc2, info2 = run(capsys, "make-toy-data", "--out-dir", tmp_path / "b",
                         "--n-images", "6", "--seed", "5")
        assert rc1 == rc2 == 0
        assert info1["n_images"] == 6
        a = (tmp_path / "a" / "dataset.jsonl").read_bytes()
        b = (tmp_path / "b" / "dataset.jsonl").read_bytes()
        assert a == b


class TestCoverageStats:
    def test_toy_data_fully_covered(self, world, capsys):
        rc, stats = run(capsys, "coverage-stats", "--dataset", world["dataset"])
        assert rc == 0
        for split, st in stats.items():
            assert st["rate"] == 1.0, split

    @pytest.mark.parametrize("field,value", [("triplets", 5), ("captions", "a b")])
    def test_mistyped_field_exits_1(self, world, tmp_path, capsys, field, value):
        record = json.loads(world["dataset"].read_text().splitlines()[0])
        record[field] = value
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(record) + "\n")
        assert main(["coverage-stats", "--dataset", str(bad)]) == 1
        assert f"bad.jsonl:1: {field} must be" in capsys.readouterr().err

    def test_nan_triplet_score_exits_1(self, world, tmp_path, capsys):
        lines = world["dataset"].read_text().splitlines()
        record = json.loads(lines[1])
        record["triplets"][0]["score"] = float("nan")  # written as NaN, which json.loads reads back
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n")
        assert main(["coverage-stats", "--dataset", str(bad)]) == 1
        assert capsys.readouterr().err == (f'error: {bad}:2: triplets must be a list of '
                                           '{"s", "p", "o": string, "score": finite number} objects\n')


class TestModuleEntry:
    def test_python_m_sgcap_help(self):
        env = dict(os.environ, PYTHONPATH=str(Path(sgcap.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "sgcap", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: sgcap")


class TestHashSeedIndependence:
    def test_evaluate_report_is_byte_identical_across_hash_seeds(self, tmp_path):
        """Metrics iterate sets of n-grams, whose order follows PYTHONHASHSEED;
        no score may depend on it."""
        env = dict(os.environ, PYTHONPATH=str(Path(sgcap.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "sgcap", "make-toy-data", "--out-dir",
                               str(tmp_path / "toy"), "--n-images", "60", "--seed", "5"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        dataset = tmp_path / "toy" / "dataset.jsonl"
        # the largest split, so the idf weights take many values
        records = load_dataset(dataset).split("train")
        assert len(records) > 40
        # each candidate joins its image's captions to the next image's, so it
        # shares many grams, of many weights, with its references
        caps = tmp_path / "caps.jsonl"
        caps.write_text("".join(
            json.dumps({"id": r.image_id, "caption": " ".join(r.captions + nxt.captions)}) + "\n"
            for r, nxt in zip(records, records[1:] + records[:1])))
        reports = []
        for seed in ("0", "1"):
            out = tmp_path / f"report{seed}.json"
            done = subprocess.run([sys.executable, "-m", "sgcap", "evaluate", "--candidates", str(caps),
                                   "--dataset", str(dataset), "--split", "train", "--out", str(out)],
                                  env=dict(env, PYTHONHASHSEED=seed), capture_output=True,
                                  text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["cider"] > 0.0


class TestTrainVse:
    def test_checkpoint_and_log(self, world, trained):
        params, vocab, seed = load_vse(trained["vse"])
        assert seed == 3
        assert params.config.space_dim == 6
        lines = trained["vse_log"].read_text().splitlines()
        assert len(lines) == 10
        records = [json.loads(s) for s in lines]
        assert records[-1]["loss"] < records[0]["loss"]

    def test_word_vectors_are_never_read(self, world, trained, tmp_path, capsys, monkeypatch):
        """train-vse opens no word-vector table and builds no relationship row."""
        def refuse(*args):
            raise AssertionError(f"train-vse read {args}")

        monkeypatch.setattr(cli, "load_word_vectors", refuse)
        monkeypatch.setattr(cli, "load_bundle", refuse)
        ck, log = tmp_path / "v.sgck", tmp_path / "v.jsonl"
        rc, _ = run(capsys, "train-vse", "--config", world["cfg"], "--dataset", world["dataset"],
                    "--out", ck, "--log", log)
        assert rc == 0
        assert (ck.read_bytes(), log.read_bytes()) == (trained["vse"].read_bytes(), trained["vse_log"].read_bytes())

    @pytest.mark.parametrize("setting", ["vse.epochs=0", "vse.batch=0", "vse.lr=-1"])
    def test_bad_loop_setting_exits_1(self, world, tmp_path, capsys, setting):
        rc = main(["train-vse", "--config", str(world["cfg"]), "--dataset", str(world["dataset"]),
                   "--out", str(tmp_path / "v.sgck"),
                   "--set", setting])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "v.sgck").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_lr_exits_1(self, world, tmp_path, capsys, value):
        rc = main(["train-vse", "--config", str(world["cfg"]), "--dataset", str(world["dataset"]),
                   "--out", str(tmp_path / "v.sgck"),
                   "--set", f"vse.lr={value}"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "v.sgck").exists()


class TestTrainXe:
    def test_checkpoint_and_log(self, world, trained):
        params, vocab, seed = load_captioner(trained["xe"])
        assert params.config.d_model == 8
        assert params.config.vocab_size == len(vocab)
        lines = trained["xe_log"].read_text().splitlines()
        assert len(lines) == 3
        assert set(json.loads(lines[0])) == {"epoch", "loss", "val_cider", "lr"}

    def test_two_runs_bit_identical(self, world, tmp_path, capsys):
        outs = []
        for name in ("r1", "r2"):
            ck = tmp_path / f"{name}.sgck"
            log = tmp_path / f"{name}.jsonl"
            rc, _ = run(capsys, "train-xe", "--config", world["cfg"],
                        "--dataset", world["dataset"], "--wordvecs", world["wordvecs"],
                        "--out", ck, "--log", log)
            assert rc == 0
            outs.append((ck.read_bytes(), log.read_bytes()))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("setting", [
        "phase1.lr0=nan", "phase1.lr0=inf", "phase1.decay_factor=nan", "phase1.stop_loss=nan",
        "phase1.stop_loss=-inf", "phase2.lr=nan", "phase2.lr=inf", "clip_norm=nan", "clip_norm=inf",
    ])
    def test_non_finite_setting_exits_1(self, world, tmp_path, capsys, setting):
        rc = main(["train-xe", "--config", str(world["cfg"]), "--dataset", str(world["dataset"]),
                   "--wordvecs", str(world["wordvecs"]), "--out", str(tmp_path / "x.sgck"),
                   "--log", str(tmp_path / "x.jsonl"), "--set", "phase1.max_epochs=1", "--set", setting])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "x.sgck").exists() and not (tmp_path / "x.jsonl").exists()

    def test_validation_image_without_references_exits_1(self, world, tmp_path, capsys):
        dataset, image_id = without_references(world, tmp_path, "val")
        rc = main([str(a) for a in (
            "train-xe", "--config", world["cfg"], "--dataset", dataset, "--wordvecs", world["wordvecs"],
            "--out", tmp_path / "x.sgck", "--log", tmp_path / "x.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {dataset}: image {image_id!r} has no reference captions\n"
        # no epoch ran
        assert not (tmp_path / "x.sgck").exists() and not (tmp_path / "x.jsonl").exists()

    def test_validation_caption_without_words_exits_1(self, world, tmp_path, capsys):
        dataset, image_id = without_references(world, tmp_path, "val", ["..."])
        rc = main([str(a) for a in (
            "train-xe", "--config", world["cfg"], "--dataset", dataset, "--wordvecs", world["wordvecs"],
            "--out", tmp_path / "x.sgck", "--log", tmp_path / "x.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {dataset}: image {image_id!r} has a caption with no words\n"
        assert not (tmp_path / "x.sgck").exists() and not (tmp_path / "x.jsonl").exists()

    def test_empty_feature_matrix_names_the_file(self, world, tmp_path, capsys):
        empty = tmp_path / "empty.sgaf"
        write_sgaf(empty, np.zeros((0, 64), dtype=np.float32))
        records = [json.loads(line) for line in world["dataset"].read_text().splitlines()]
        for r in records:
            r["feature_file"] = str(world["dataset"].parent / r["feature_file"])
        next(r for r in records if r["split"] == "train")["feature_file"] = str(empty)
        dataset = tmp_path / "empty.jsonl"
        dataset.write_text("".join(json.dumps(r) + "\n" for r in records))
        rc = main([str(a) for a in (
            "train-xe", "--config", world["cfg"], "--dataset", dataset, "--wordvecs", world["wordvecs"],
            "--out", tmp_path / "x.sgck", "--log", tmp_path / "x.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {empty}: empty 0x64 feature matrix\n"
        assert not (tmp_path / "x.sgck").exists() and not (tmp_path / "x.jsonl").exists()

    def test_non_finite_word_vector_exits_1(self, world, tmp_path, capsys):
        lines = world["wordvecs"].read_text().splitlines(keepends=True)
        word, _, rest = lines[2].partition(" ")
        lines[2] = f"{word} nan {rest.split(' ', 1)[1]}"
        wordvecs = tmp_path / "nan.txt"
        wordvecs.write_text("".join(lines))
        rc = main([str(a) for a in (
            "train-xe", "--config", world["cfg"], "--dataset", world["dataset"], "--wordvecs", wordvecs,
            "--out", tmp_path / "x.sgck", "--log", tmp_path / "x.jsonl")])
        assert rc == 1
        assert "nan.txt:3: non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "x.sgck").exists() and not (tmp_path / "x.jsonl").exists()

    def test_seed_flag_overrides_config(self, world, tmp_path, capsys):
        ck = tmp_path / "s.sgck"
        rc, _ = run(capsys, "train-xe", "--config", world["cfg"],
                    "--dataset", world["dataset"], "--wordvecs", world["wordvecs"],
                    "--out", ck, "--seed", "99", "--set", "phase1.max_epochs=1")
        assert rc == 0
        assert load_checkpoint(ck).seed == 99

    def test_training_image_without_references_exits_1(self, world, tmp_path, capsys, bundle_modes):
        dataset, image_id = without_references(world, tmp_path, "train")
        rc = main([str(a) for a in (
            "train-xe", "--config", world["cfg"], "--dataset", dataset, "--wordvecs", world["wordvecs"],
            "--out", tmp_path / "x.sgck", "--log", tmp_path / "x.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {dataset}: image {image_id!r} has no reference captions\n"
        assert bundle_modes == []  # refused before any feature was built
        assert not (tmp_path / "x.sgck").exists() and not (tmp_path / "x.jsonl").exists()


def with_train_captions(world, tmp_path, captions):
    """The toy dataset with each train record's captions replaced by ``captions(record)``."""
    records = [json.loads(line) for line in world["dataset"].read_text().splitlines()]
    for r in records:
        r["feature_file"] = str(world["dataset"].parent / r["feature_file"])
        if r["split"] == "train":
            r["captions"] = captions(r)
    path = tmp_path / "captions.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


class TestUncaptionedTraining:
    @pytest.mark.parametrize("command", ["train-vse", "train-xe"])
    def test_train_split_without_captions_exits_1(self, world, tmp_path, capsys, command):
        dataset = with_train_captions(world, tmp_path, lambda r: [])
        rc = main([str(a) for a in (command, "--config", world["cfg"], "--dataset", dataset,
                                    *word_vectors(world, command), "--out", tmp_path / "o.sgck")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: {dataset}: split 'train' has no captions\n"
        assert not (tmp_path / "o.sgck").exists()

    def test_train_vse_caption_without_words_names_the_image(self, world, tmp_path, capsys):
        first = next(json.loads(line)["id"] for line in world["dataset"].read_text().splitlines()
                     if json.loads(line)["split"] == "train")
        dataset = with_train_captions(world, tmp_path, lambda r: ["..."] if r["id"] == first else r["captions"])
        rc = main([str(a) for a in ("train-vse", "--config", world["cfg"], "--dataset", dataset,
                                    "--out", tmp_path / "o.sgck")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: {dataset}: image {first!r} has a caption with no words\n"
        assert not (tmp_path / "o.sgck").exists()

    def test_train_xe_caption_without_words_names_the_image(self, world, tmp_path, capsys, bundle_modes):
        first = next(json.loads(line)["id"] for line in world["dataset"].read_text().splitlines()
                     if json.loads(line)["split"] == "train")
        dataset = with_train_captions(world, tmp_path, lambda r: ["..."] if r["id"] == first else r["captions"])
        rc = main([str(a) for a in ("train-xe", "--config", world["cfg"], "--dataset", dataset,
                                    "--wordvecs", world["wordvecs"], "--out", tmp_path / "o.sgck",
                                    "--log", tmp_path / "o.jsonl")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: {dataset}: image {first!r} has a caption with no words\n"
        assert bundle_modes == []  # refused before any feature was built
        assert not (tmp_path / "o.sgck").exists() and not (tmp_path / "o.jsonl").exists()

    def test_train_vse_image_without_captions_exits_1(self, world, tmp_path, capsys):
        """The message the captioner trainers give: an uncaptioned image is not skipped."""
        dataset, image_id = without_references(world, tmp_path, "train")
        rc = main([str(a) for a in ("train-vse", "--config", world["cfg"], "--dataset", dataset,
                                    "--out", tmp_path / "o.sgck", "--log", tmp_path / "o.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {dataset}: image {image_id!r} has no reference captions\n"
        assert not (tmp_path / "o.sgck").exists() and not (tmp_path / "o.jsonl").exists()

    def test_train_vse_one_caption_names_the_dataset(self, world, tmp_path, capsys, monkeypatch):
        records = [json.loads(line) for line in world["dataset"].read_text().splitlines()]
        for r in records:
            r["feature_file"] = str(world["dataset"].parent / r["feature_file"])
        first = next(r for r in records if r["split"] == "train")
        first["captions"] = first["captions"][:1]
        dataset = tmp_path / "one.jsonl"
        dataset.write_text("".join(json.dumps(r) + "\n" for r in records
                                   if r["split"] != "train" or r is first))

        def load_sgaf(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(cli, "load_sgaf", load_sgaf)
        rc = main([str(a) for a in ("train-vse", "--config", world["cfg"], "--dataset", dataset,
                                    "--out", tmp_path / "o.sgck", "--log", tmp_path / "o.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: {dataset}: split 'train' has one caption; "
                                           "the ranking network trains on at least two image-caption pairs\n")
        assert not (tmp_path / "o.sgck").exists() and not (tmp_path / "o.jsonl").exists()


def with_feature_matrix(world, tmp_path, split, matrix):
    """The toy dataset with its last ``split`` image's features replaced by
    ``matrix``; (dataset path, that feature file, the first train image's)."""
    records = [json.loads(line) for line in world["dataset"].read_text().splitlines()]
    for r in records:
        r["feature_file"] = str(world["dataset"].parent / r["feature_file"])
    odd = tmp_path / "odd.sgaf"
    write_sgaf(odd, matrix)
    [r for r in records if r["split"] == split][-1]["feature_file"] = str(odd)
    path = tmp_path / "odd.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path, odd, next(r for r in records if r["split"] == "train")["feature_file"]


class TestOneFeatureWidth:
    """Without a checkpoint every image has the first train image's width,
    checked before ``--out`` or ``--log`` is written."""

    @pytest.mark.parametrize("command,split", [("train-xe", "train"), ("train-xe", "val"), ("train-vse", "train")])
    def test_image_of_another_width_names_both_files(self, world, tmp_path, capsys, command, split):
        dataset, odd, first = with_feature_matrix(world, tmp_path, split, np.ones((5, 32), dtype=np.float32))
        rc = main([str(a) for a in (command, "--config", world["cfg"], "--dataset", dataset,
                                    *word_vectors(world, command), "--out", tmp_path / "o.sgck",
                                    "--log", tmp_path / "o.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {odd}: feature width 32 does not match {first} (64)\n"
        assert not (tmp_path / "o.sgck").exists() and not (tmp_path / "o.jsonl").exists()


class TestTrainScst:
    def test_mmr_requires_vse_flag(self, world, trained, tmp_path, capsys):
        rc, _ = run(capsys, "train-scst", "--config", world["cfg"],
                    "--dataset", world["dataset"], "--wordvecs", world["wordvecs"],
                    "--checkpoint", trained["xe"], "--out", tmp_path / "o.sgck")
        assert rc == 2

    def test_cider_reward_runs_without_vse(self, world, trained, tmp_path, capsys):
        out = tmp_path / "scst.sgck"
        rc, info = run(capsys, "train-scst", "--config", world["cfg"],
                       "--dataset", world["dataset"], "--wordvecs", world["wordvecs"],
                       "--checkpoint", trained["xe"], "--reward", "cider",
                       "--out", out)
        assert rc == 0
        assert info["reward"] == "cider"
        assert load_checkpoint(out).kind == "captioner"

    def test_mmr_with_vse_runs(self, world, trained, tmp_path, capsys):
        out = tmp_path / "scst.sgck"
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty samples ok
            rc, info = run(capsys, "train-scst", "--config", world["cfg"],
                           "--dataset", world["dataset"],
                           "--wordvecs", world["wordvecs"],
                           "--checkpoint", trained["xe"], "--vse", trained["vse"],
                           "--out", out)
        assert rc == 0
        assert info["epochs_run"] == 1

    def test_triplet_mode_comes_from_checkpoint(self, world, lstm_xe, bundle_modes, tmp_path, capsys):
        args = ["train-scst", "--config", world["cfg"], "--dataset", world["dataset"],
                "--wordvecs", world["wordvecs"], "--checkpoint", lstm_xe, "--reward", "cider",
                "--out", tmp_path / "o.sgck"]
        rc, _ = run(capsys, *args, "--set", "model.triplet_mode=mean")
        assert rc == 2
        assert bundle_modes == []
        rc, _ = run(capsys, *args)
        assert rc == 0
        assert set(bundle_modes) == {"lstm"}
        assert load_captioner(tmp_path / "o.sgck")[0].config.triplet_mode == "lstm"

    def test_zero_max_steps_exits_1(self, world, trained, tmp_path, capsys):
        rc = main([str(a) for a in (
            "train-scst", "--config", world["cfg"], "--dataset", world["dataset"],
            "--wordvecs", world["wordvecs"], "--checkpoint", trained["xe"], "--reward", "cider",
            "--out", tmp_path / "o.sgck", "--set", "phase2.max_steps=0")])
        assert rc == 1
        assert "max_steps" in capsys.readouterr().err
        assert not (tmp_path / "o.sgck").exists()

    def test_feature_width_mismatch_names_file(self, world, trained, tmp_path, capsys):
        make_toy_data(10, 27, 0, tmp_path / "w2", spatial_dim=40)
        rc = main([str(a) for a in (
            "train-scst", "--config", world["cfg"], "--dataset", tmp_path / "w2" / "dataset.jsonl",
            "--wordvecs", world["wordvecs"], "--checkpoint", trained["xe"], "--reward", "cider",
            "--out", tmp_path / "o.sgck")])
        assert rc == 1
        assert ".sgaf: feature width 40 does not match checkpoint (64)" in capsys.readouterr().err
        assert not (tmp_path / "o.sgck").exists()

    def test_vse_of_another_feature_width_exits_1(self, world, trained, tmp_path, capsys):
        make_toy_data(10, 27, 0, tmp_path / "w40", spatial_dim=40)  # the same captions, so one vocabulary
        vse40 = tmp_path / "vse40.sgck"
        assert main([str(a) for a in ("train-vse", "--config", world["cfg"],
                                      "--dataset", tmp_path / "w40" / "dataset.jsonl", "--out", vse40)]) == 0
        capsys.readouterr()
        rc = main([str(a) for a in (
            "train-scst", "--config", world["cfg"], "--dataset", world["dataset"],
            "--wordvecs", world["wordvecs"], "--checkpoint", trained["xe"], "--vse", vse40,
            "--out", tmp_path / "o.sgck", "--log", tmp_path / "o.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: {vse40}: feature width 40 differs from {trained['xe']} (64); "
                                           "both checkpoints must read one width\n")
        assert not (tmp_path / "o.sgck").exists() and not (tmp_path / "o.jsonl").exists()

    def test_vse_vocabulary_longer_than_its_tables_exits_1(self, world, trained, tmp_path, capsys):
        _, vocab, seed = load_captioner(trained["xe"])
        config = dataclasses.replace(load_vse(trained["vse"])[0].config, vocab_size=6)
        small = VseParams.init(config, np.random.default_rng(0))
        bad = tmp_path / "vse6.sgck"
        save_vse(bad, small, vocab, seed)  # the captioner's token list over a 6-row embedding table
        rc = main([str(a) for a in (
            "train-scst", "--config", world["cfg"], "--dataset", world["dataset"],
            "--wordvecs", world["wordvecs"], "--checkpoint", trained["xe"], "--vse", bad,
            "--out", tmp_path / "o.sgck", "--log", tmp_path / "o.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: {bad}: vocabulary of {len(vocab)} tokens does not fit "
                                           "config field vocab_size 6\n")
        assert sorted(tmp_path.iterdir()) == [bad]

    def test_training_image_without_references_exits_1(self, world, trained, tmp_path, capsys):
        dataset, image_id = without_references(world, tmp_path, "train")
        rc = main([str(a) for a in (
            "train-scst", "--config", world["cfg"], "--dataset", dataset, "--wordvecs", world["wordvecs"],
            "--checkpoint", trained["xe"], "--reward", "cider",
            "--out", tmp_path / "o.sgck", "--log", tmp_path / "o.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {dataset}: image {image_id!r} has no reference captions\n"
        assert not (tmp_path / "o.sgck").exists() and not (tmp_path / "o.jsonl").exists()

    def test_training_caption_without_words_exits_1(self, world, trained, tmp_path, capsys):
        dataset, image_id = without_references(world, tmp_path, "train", ["a dog", "..."])
        rc = main([str(a) for a in (
            "train-scst", "--config", world["cfg"], "--dataset", dataset, "--wordvecs", world["wordvecs"],
            "--checkpoint", trained["xe"], "--reward", "cider",
            "--out", tmp_path / "o.sgck", "--log", tmp_path / "o.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {dataset}: image {image_id!r} has a caption with no words\n"
        assert not (tmp_path / "o.sgck").exists() and not (tmp_path / "o.jsonl").exists()

    def test_wrong_checkpoint_kind_fails(self, world, trained, tmp_path, capsys):
        rc, _ = run(capsys, "train-scst", "--config", world["cfg"],
                    "--dataset", world["dataset"], "--wordvecs", world["wordvecs"],
                    "--checkpoint", trained["vse"], "--reward", "cider",
                    "--out", tmp_path / "o.sgck")
        assert rc == 1


class TestCaption:
    def test_one_line_per_image(self, world, trained, tmp_path, capsys):
        out = tmp_path / "caps.jsonl"
        rc, info = run(capsys, "caption", "--checkpoint", trained["xe"],
                       "--dataset", world["dataset"], "--wordvecs", world["wordvecs"],
                       "--split", "train", "--out", out)
        assert rc == 0
        ds = load_dataset(world["dataset"])
        lines = [json.loads(s) for s in out.read_text().splitlines()]
        assert info["captions"] == len(lines) == len(ds.split("train"))
        assert {l["id"] for l in lines} == {r.image_id for r in ds.split("train")}
        assert all(set(l) == {"id", "caption"} for l in lines)

    def test_vse_checkpoint_rejected(self, world, trained, tmp_path, capsys):
        rc, _ = run(capsys, "caption", "--checkpoint", trained["vse"],
                    "--dataset", world["dataset"], "--wordvecs", world["wordvecs"],
                    "--out", tmp_path / "c.jsonl")
        assert rc == 1

    def test_triplet_mode_comes_from_checkpoint(self, world, lstm_xe, bundle_modes, tmp_path, capsys):
        args = ["caption", "--checkpoint", lstm_xe, "--dataset", world["dataset"],
                "--wordvecs", world["wordvecs"], "--out", tmp_path / "c.jsonl"]
        rc, info = run(capsys, *args)
        assert rc == 0
        assert bundle_modes == ["lstm"] * info["captions"]
        rc, _ = run(capsys, *args, "--set", "model.triplet_mode=lstm")
        assert rc == 0
        rc, _ = run(capsys, *args, "--set", "model.triplet_mode=mean")
        assert rc == 2

    @pytest.mark.parametrize("field,value", [("config", {"bogus": 1}), ("manifest", 5)])
    def test_corrupt_header_exits_1(self, world, trained, tmp_path, capsys, field, value):
        raw = trained["xe"].read_bytes()
        head_len = int.from_bytes(raw[8:16], "little")
        header = json.loads(raw[16:16 + head_len])
        header[field] = value
        head = json.dumps(header).encode("utf-8")
        bad = tmp_path / "bad.sgck"
        bad.write_bytes(MAGIC + raw[4:8] + len(head).to_bytes(8, "little") + head + raw[16 + head_len:])
        rc, _ = run(capsys, "caption", "--checkpoint", bad, "--dataset", world["dataset"],
                    "--wordvecs", world["wordvecs"], "--out", tmp_path / "c.jsonl")
        assert rc == 1

    @pytest.mark.parametrize("field,value", [("max_len", 1.5), ("heads", 2.0), ("max_len", True)])
    def test_non_integer_config_field_exits_1(self, world, trained, tmp_path, capsys, field, value):
        bad = with_config_field(trained["xe"], tmp_path / "bad.sgck", field, value)
        rc = main([str(a) for a in ("caption", "--checkpoint", bad, "--dataset", world["dataset"],
                                    "--wordvecs", world["wordvecs"], "--out", tmp_path / "c.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}: config field {field} must be an integer, got {value!r}\n"
        assert not (tmp_path / "c.jsonl").exists()

    def test_vocabulary_shorter_than_its_tables_exits_1(self, world, trained, tmp_path, capsys):
        bad = with_header(trained["xe"], tmp_path / "bad.sgck", lambda header: header.update(vocab=header["vocab"][:6]))
        vocab_size = load_captioner(trained["xe"])[0].config.vocab_size
        rc = main([str(a) for a in ("caption", "--checkpoint", bad, "--dataset", world["dataset"],
                                    "--wordvecs", world["wordvecs"], "--out", tmp_path / "c.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: {bad}: vocabulary of 6 tokens does not fit "
                                           f"config field vocab_size {vocab_size}\n")
        assert sorted(tmp_path.iterdir()) == [bad]

    def test_non_finite_weight_exits_1(self, world, trained, tmp_path, capsys):
        bad = tmp_path / "nan.sgck"
        bad.write_bytes(trained["xe"].read_bytes())
        poke(bad, "decoder.out_proj.weight", 0, np.nan)
        rc = main(["caption", "--checkpoint", str(bad), "--dataset", str(world["dataset"]),
                   "--wordvecs", str(world["wordvecs"]), "--out", str(tmp_path / "c.jsonl")])
        assert rc == 1
        assert "'decoder.out_proj.weight' holds NaN or inf" in capsys.readouterr().err


class TestConfigBounds:
    """A max_len above MAX_LEN_LIMIT, or a ranking-network width below 1, exits 1
    before any training or decoding, naming the field (and the checkpoint it is in)."""

    @pytest.mark.parametrize("value", [MAX_LEN_LIMIT + 1, 10**30])
    def test_checkpoint_max_len_above_the_limit(self, world, trained, tmp_path, capsys, value):
        bad = with_config_field(trained["xe"], tmp_path / "bad.sgck", "max_len", value)
        rc = main([str(a) for a in ("caption", "--checkpoint", bad, "--dataset", world["dataset"],
                                    "--wordvecs", world["wordvecs"], "--out", tmp_path / "c.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: config field max_len must be at most {MAX_LEN_LIMIT}, got {value}\n")
        assert not (tmp_path / "c.jsonl").exists()

    def test_checkpoint_max_len_at_the_limit_loads(self, trained, tmp_path):
        ok = with_config_field(trained["xe"], tmp_path / "ok.sgck", "max_len", MAX_LEN_LIMIT)
        assert load_captioner(ok)[0].config.max_len == MAX_LEN_LIMIT

    def test_train_xe_max_len_above_the_limit(self, world, tmp_path, capsys):
        out, log = tmp_path / "x.sgck", tmp_path / "log.jsonl"
        rc = main([str(a) for a in ("train-xe", "--config", world["cfg"], "--dataset", world["dataset"],
                                    "--wordvecs", world["wordvecs"], "--set", "model.max_len=1000000000000",
                                    "--out", out, "--log", log)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: config field max_len must be at most {MAX_LEN_LIMIT}, got 1000000000000\n")
        assert not out.exists() and not log.exists()

    @pytest.mark.parametrize("field,value", [("embed_dim", 0), ("hidden_dim", 0), ("space_dim", -1)])
    def test_train_vse_width_below_1(self, world, tmp_path, capsys, field, value):
        out = tmp_path / "v.sgck"
        rc = main([str(a) for a in ("train-vse", "--config", world["cfg"], "--dataset", world["dataset"],
                                    "--set", f"vse.{field}={value}", "--out", out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: config field {field} must be at least 1, got {value}\n"
        assert not out.exists()

    def test_vse_checkpoint_spatial_dim_below_1(self, world, trained, tmp_path, capsys):
        bad = with_config_field(trained["vse"], tmp_path / "bad.sgck", "spatial_dim", 0)
        out = tmp_path / "s.sgck"
        rc = main([str(a) for a in ("train-scst", "--config", world["cfg"], "--dataset", world["dataset"],
                                    "--wordvecs", world["wordvecs"], "--checkpoint", trained["xe"],
                                    "--vse", bad, "--out", out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}: config field spatial_dim must be at least 1, got 0\n"
        assert not out.exists()


class TestTokenizedOnce:
    @pytest.mark.parametrize("command,splits", [("train-vse", ("train",)), ("train-xe", ("train", "val"))])
    def test_each_caption_is_tokenized_once(self, world, tmp_path, capsys, monkeypatch, command, splits):
        calls = collections.Counter()
        real = features.tokenize

        def tokenize(text):
            calls[text] += 1
            return real(text)

        monkeypatch.setattr(cli, "tokenize", tokenize)
        monkeypatch.setattr(features, "tokenize", tokenize)
        rc, _ = run(capsys, command, "--config", world["cfg"], "--dataset", world["dataset"],
                    *word_vectors(world, command), "--set", "vse.epochs=1", "--set", "phase1.max_epochs=1",
                    "--out", tmp_path / "m.sgck")
        assert rc == 0
        captions = collections.Counter(c for r in load_dataset(world["dataset"]).records if r.split in splits
                                       for c in r.captions)
        assert collections.Counter({text: n for text, n in calls.items() if text in captions}) == captions


class TestEvaluate:
    def test_identity_candidates_score_one(self, world, tmp_path, capsys):
        ds = load_dataset(world["dataset"])
        caps = tmp_path / "caps.jsonl"
        caps.write_text("".join(
            json.dumps({"id": r.image_id, "caption": r.captions[0]}) + "\n"
            for r in ds.split("test")
        ))
        report_path = tmp_path / "report.json"
        rc, report = run(capsys, "evaluate", "--candidates", caps,
                         "--dataset", world["dataset"], "--split", "test",
                         "--out", report_path)
        assert rc == 0
        assert report["bleu1"] == 1.0
        assert report["rougeL"] == 1.0
        assert json.loads(report_path.read_text()) == report

    def test_empty_candidate_scores(self, world, tmp_path, capsys):
        ds = load_dataset(world["dataset"])
        records = ds.split("test")
        caps = tmp_path / "caps.jsonl"
        caps.write_text("".join(
            json.dumps({"id": r.image_id, "caption": "" if i == 0 else r.captions[0]}) + "\n"
            for i, r in enumerate(records)
        ))
        rc, report = run(capsys, "evaluate", "--candidates", caps,
                         "--dataset", world["dataset"], "--split", "test")
        assert rc == 0
        assert report["rougeL"] == (len(records) - 1) / len(records)

    def test_image_without_references_exits_1(self, world, tmp_path, capsys):
        dataset, image_id = without_references(world, tmp_path, "test")
        caps = tmp_path / "caps.jsonl"
        caps.write_text("".join(json.dumps({"id": r.image_id, "caption": "a cat"}) + "\n"
                                for r in load_dataset(dataset).split("test")))
        rc = main(["evaluate", "--candidates", str(caps), "--dataset", str(dataset), "--split", "test"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {dataset}: image {image_id!r} has no reference captions\n"

    def test_reference_without_words_exits_1(self, world, tmp_path, capsys):
        dataset, image_id = without_references(world, tmp_path, "test", ["..."])
        caps = tmp_path / "caps.jsonl"
        caps.write_text("".join(json.dumps({"id": r.image_id, "caption": "a cat"}) + "\n"
                                for r in load_dataset(dataset).split("test")))
        rc = main(["evaluate", "--candidates", str(caps), "--dataset", str(dataset), "--split", "test"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {dataset}: image {image_id!r} has a caption with no words\n"

    def test_missing_image_fails(self, world, tmp_path, capsys):
        caps = tmp_path / "caps.jsonl"
        caps.write_text(json.dumps({"id": "nope", "caption": "a cat"}) + "\n")
        rc = main(["evaluate", "--candidates", str(caps),
                   "--dataset", str(world["dataset"]), "--split", "test"])
        assert rc == 1
        assert "img_" in capsys.readouterr().err

    def test_duplicate_id_fails(self, world, tmp_path, capsys):
        caps = tmp_path / "caps.jsonl"
        line = json.dumps({"id": "img_00009", "caption": "a cat"}) + "\n"
        caps.write_text(line + line)
        rc, _ = run(capsys, "evaluate", "--candidates", caps,
                    "--dataset", world["dataset"], "--split", "test")
        assert rc == 1

    @pytest.mark.parametrize("command", ["evaluate", "coverage-stats"])
    def test_repeated_dataset_id_exits_1(self, world, tmp_path, capsys, command):
        record = next(r for r in map(json.loads, world["dataset"].read_text().splitlines())
                      if r["split"] == "test")
        dataset = tmp_path / "twice.jsonl"
        dataset.write_text(2 * (json.dumps(record) + "\n"))
        caps = tmp_path / "caps.jsonl"
        caps.write_text(json.dumps({"id": record["id"], "caption": record["captions"][0]}) + "\n")
        args = ["--candidates", str(caps), "--split", "test"] if command == "evaluate" else []
        assert main([command, "--dataset", str(dataset)] + args) == 1
        assert "twice.jsonl:2: duplicate id" in capsys.readouterr().err

    @pytest.mark.parametrize("line,error", [
        ('["id", "caption"]', "record is not a JSON object"),
        ('{"id": "img_00009", "caption": 5}', "caption must be a string"),
        ('{"id": [1], "caption": "a cat"}', "id must be a string"),
        ('{"id": "img_00009"}', "missing key 'caption'"),
        ('[' * 100_000, "invalid JSON"),
    ], ids=["array", "numeric-caption", "list-id", "missing-caption", "deep-nesting"])
    def test_malformed_record_exits_1(self, world, tmp_path, capsys, line, error):
        caps = tmp_path / "caps.jsonl"
        caps.write_text(line + "\n")
        assert main(["evaluate", "--candidates", str(caps),
                     "--dataset", str(world["dataset"]), "--split", "test"]) == 1
        assert f"caps.jsonl:1: {error}" in capsys.readouterr().err


FUZZ_CANDIDATES = st.fixed_dictionaries({}, optional={
    "id": st.sampled_from(["img_00008", "img_00009"]) | JSON,
    "caption": st.text(max_size=8) | JSON,
}) | JSON


class TestEvaluateFuzz:
    @given(raw=st.binary(max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_any_bytes_exit_0_or_1(self, world, tmp_path_factory, raw):
        path = tmp_path_factory.getbasetemp() / "fuzz_caps.jsonl"
        path.write_bytes(raw)
        assert main(["evaluate", "--candidates", str(path),
                     "--dataset", str(world["dataset"]), "--split", "test"]) in (0, 1)

    @given(records=st.lists(FUZZ_CANDIDATES, min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_any_json_records_exit_0_or_1(self, world, tmp_path_factory, records):
        path = tmp_path_factory.getbasetemp() / "fuzz_records.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["evaluate", "--candidates", str(path),
                     "--dataset", str(world["dataset"]), "--split", "test"]) in (0, 1)


class TestGradAudit:
    def test_passes_and_reports(self, tmp_path, capsys):
        out = tmp_path / "audit.json"
        rc = main(["grad-audit", "--seed", "1", "--out", str(out)])
        text = capsys.readouterr().out
        assert rc == 0
        report = json.loads(out.read_text())
        assert len(report) == 10
        assert all(v <= 1e-5 for v in report.values())
        assert text.count("PASS") == 10

    @pytest.mark.parametrize("worst, rc_want", [(2e-6, 0), (3e-4, 1)])
    def test_summary_line_equals_out_file(self, monkeypatch, tmp_path, capsys, worst, rc_want):
        reports = [BlockReport("linear", 1e-9, (0, 1, 2), 1e-5),
                   BlockReport("softmax", worst, (0, 1, 2), 1e-5)]
        monkeypatch.setattr(cli, "run_audit", lambda seeds: reports)
        out = tmp_path / "audit.json"
        rc = main(["grad-audit", "--out", str(out)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == rc_want
        assert len(lines) == 3 and lines[1].endswith("PASS" if rc_want == 0 else "FAIL")
        assert json.loads(lines[-1]) == json.loads(out.read_text()) == {"linear": 1e-9, "softmax": worst}


class TestRunLogs:
    @pytest.mark.parametrize("command", ["train-vse", "train-xe", "train-scst"])
    def test_rerun_into_same_paths_matches_fresh_run(self, world, trained, tmp_path, capsys, command):
        extra = ["--checkpoint", trained["xe"], "--reward", "cider"] if command == "train-scst" else []
        outs = []
        for run_dir, runs in (("fresh", 1), ("rerun", 2)):
            (tmp_path / run_dir).mkdir()
            ck, log = tmp_path / run_dir / "out.sgck", tmp_path / run_dir / "log.jsonl"
            for _ in range(runs):
                rc, _ = run(capsys, command, "--config", world["cfg"], "--dataset", world["dataset"],
                            *word_vectors(world, command), *extra, "--out", ck, "--log", log)
                assert rc == 0
            outs.append((ck.read_bytes(), log.read_bytes()))
        assert outs[0] == outs[1]


class TestAtomicOutputs:
    def test_no_temp_files_after_run(self, world, trained, tmp_path, capsys):
        rc, _ = run(capsys, "caption", "--checkpoint", trained["xe"],
                    "--dataset", world["dataset"], "--wordvecs", world["wordvecs"],
                    "--split", "val", "--out", tmp_path / "caps.jsonl")
        assert rc == 0
        assert [p.name for p in tmp_path.iterdir()] == ["caps.jsonl"]


def _edit_record(field, value):
    """A mutation setting ``field`` of the picked record to ``value``."""
    def mutate(corpus, k):
        corpus.records[k % len(corpus.records)][field] = value
    return mutate


def _edit_captions(captions):
    def mutate(corpus, k):
        rec = corpus.records[k % len(corpus.records)]
        rec["captions"] = captions(rec["captions"])
    return mutate


def _edit_split(edit):
    """A mutation applying ``edit`` to every record of the picked split, or dropping them if it returns None."""
    def mutate(corpus, k):
        split = ("train", "val", "test")[k % 3]
        corpus.records = [r for r in corpus.records if r["split"] != split or edit(r) is not None]
    return mutate


def _edit_score(value):
    def mutate(corpus, k):
        rec = corpus.records[k % len(corpus.records)]
        rec["triplets"] = rec["triplets"] + [{"s": "cube", "p": "on", "o": "table", "score": value}]
    return mutate


def _feature_matrix(matrix):
    def mutate(corpus, k):
        path = corpus.root / f"odd{k}.sgaf"
        write_sgaf(path, matrix)
        corpus.records[k % len(corpus.records)]["feature_file"] = str(path)
    return mutate


def _duplicate_id(corpus, k):
    n = len(corpus.records)
    corpus.records[k % n]["id"] = corpus.records[(k + 1) % n]["id"]


def _unknown_triplet_words(corpus, k):
    rec = corpus.records[k % len(corpus.records)]
    rec["triplets"] = rec["triplets"] + [{"s": "zzyzx", "p": "qwerty", "o": "xyzzy", "score": 0.5}]


def _truncated_word_vector(corpus, k):
    line = k % len(corpus.wordvecs)
    corpus.wordvecs[line] = corpus.wordvecs[line].rsplit(" ", 1 + k % 3)[0]


def _config_field(checkpoint, fields):
    """A mutation setting one integer config field of checkpoint ``checkpoint`` to a float or a bool."""
    def mutate(corpus, k):
        field = fields[k % len(fields)]
        value = (1.5, 2.0, True, 8.0)[k // len(fields) % 4]
        setattr(corpus, checkpoint, with_config_field(getattr(corpus, checkpoint),
                                                      corpus.root / f"{checkpoint}{k}.sgck", field, value))
    return mutate


# The mutations the exit-code contract is checked against, each applied to a
# copy of the toy corpus at the record, line, split or field its pick selects.
CORPUS_MUTATIONS = {
    "blank caption": _edit_captions(lambda c: [""] + c[1:]),
    "punctuation-only caption": _edit_captions(lambda c: c[:1] + ["... !"]),
    "uncaptioned image": _edit_captions(lambda c: []),
    "uncaptioned split": _edit_split(lambda r: r.update(captions=[]) or r),
    "missing split": _edit_split(lambda r: None),
    "duplicated id": _duplicate_id,
    "NaN triplet score": _edit_score(math.nan),
    "inf triplet score": _edit_score(math.inf),
    "bool triplet score": _edit_score(True),
    "bool captions": _edit_record("captions", True),
    "bool split": _edit_record("split", False),
    "bool feature file": _edit_record("feature_file", True),
    "empty feature file": _feature_matrix(np.zeros((0, 64), dtype=np.float32)),
    "NaN feature file": _feature_matrix(np.full((3, 64), np.nan, dtype=np.float32)),
    "other-width feature file": _feature_matrix(np.ones((3, 32), dtype=np.float32)),
    "unknown triplet words": _unknown_triplet_words,
    "truncated word-vector line": _truncated_word_vector,
    "captioner config field": _config_field("xe", ["vocab_size", "d_model", "embed_dim", "heads",
                                                   "spatial_dim", "max_len"]),
    "ranking network config field": _config_field("vse", ["vocab_size", "spatial_dim", "embed_dim",
                                                          "hidden_dim", "space_dim"]),
}


class _Corpus:
    """A copy of the toy corpus and its two checkpoints, for one drawn example."""

    def __init__(self, world, trained, root):
        self.root = root
        self.records = [json.loads(line) for line in world["dataset"].read_text().splitlines()]
        for r in self.records:
            r["feature_file"] = str(world["dataset"].parent / r["feature_file"])
        self.wordvecs = world["wordvecs"].read_text().splitlines()
        self.xe, self.vse = trained["xe"], trained["vse"]

    def commands(self, cfg):
        """Every data command's argument list, once the corpus is written."""
        dataset, wordvecs = self.root / "dataset.jsonl", self.root / "wordvecs.txt"
        dataset.write_text("".join(json.dumps(r) + "\n" for r in self.records))
        wordvecs.write_text("".join(line + "\n" for line in self.wordvecs))
        candidates = self.root / "candidates.jsonl"
        candidates.write_text("".join(json.dumps({"id": str(r["id"]), "caption": "a red cube"}) + "\n"
                                      for r in self.records))
        out = self.root / "out"
        data = ["--dataset", dataset]
        settings = ["--config", cfg, *data, "--set", "vse.epochs=1",
                    "--set", "phase1.max_epochs=1", "--set", "phase2.max_steps=1"]
        corpus = [*settings, "--wordvecs", wordvecs]
        trainer = ["--out", out, "--log", self.root / "log.jsonl"]
        self.files = [dataset, wordvecs, candidates, cfg, self.xe, self.vse,
                      *(r["feature_file"] for r in self.records if isinstance(r.get("feature_file"), str))]
        return [
            ["coverage-stats", *data],
            ["train-vse", *settings, *trainer],
            ["train-xe", *corpus, *trainer],
            ["train-scst", *corpus, "--checkpoint", self.xe, "--reward", "cider", *trainer],
            ["train-scst", *corpus, "--checkpoint", self.xe, "--vse", self.vse, *trainer],
            ["caption", *corpus, "--checkpoint", self.xe, "--split", "test", "--out", out],
            ["evaluate", *data, "--candidates", candidates, "--split", "test"],
        ]


class TestExitCodeContract:
    """Every data command on a mutated corpus exits 0 or 1 without a
    traceback, and an exit 1 names a file of the run."""

    @given(mutations=st.lists(st.tuples(st.sampled_from(sorted(CORPUS_MUTATIONS)), st.integers(0, 59)),
                              min_size=1, max_size=2))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_mutated_corpus(self, world, trained, tmp_path_factory, mutations):
        corpus = _Corpus(world, trained, tmp_path_factory.mktemp("mutated"))
        for name, k in mutations:
            CORPUS_MUTATIONS[name](corpus, k)
        for argv in corpus.commands(world["cfg"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # an empty sampled caption's vision reward
                rc = main([str(a) for a in argv])
            message = err.getvalue()
            assert rc in (0, 1), (argv[0], message)
            assert "Traceback" not in message
            if rc == 1:
                assert any(str(f) in message for f in corpus.files), (argv[0], message)
