"""Command-line interface: artifacts, exit codes, determinism."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgcap
import sgcap.cli as cli
from sgcap.captioner import CaptionerConfig
from oracles import load_checkpoint
from sgcap.checkpoint import MAGIC, load_captioner, load_vse, save_captioner
from sgcap.cli import main, parse_config_file
from sgcap.features import FileFormatError, Vocabulary, load_dataset, load_sgaf, write_sgaf
from sgcap.gradaudit import BlockReport
from sgcap.toydata import MIN_IMAGES, make_toy_data
from sgcap.trainer import Phase1Config, Phase2Config, TrainConfig
from sgcap.vse import VseConfig
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
    base = ["--config", world["cfg"], "--dataset", world["dataset"],
            "--wordvecs", world["wordvecs"]]
    rc = main([str(a) for a in
               ["train-vse", *base, "--out", root / "vse.sgck",
                "--log", root / "vse_log.jsonl"]])
    assert rc == 0
    rc = main([str(a) for a in
               ["train-xe", *base, "--out", root / "xe.sgck",
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

    def test_featurize_creates_no_out_dir(self, world, tmp_path, capsys):
        rc = main([str(a) for a in [
            "featurize", "--dataset", without_triplets(world, tmp_path), "--wordvecs", world["wordvecs"],
            "--out-dir", tmp_path / "rel", "--set", "model.triplet_mode=bogus"]])
        assert rc == 1
        assert "expected one of mean, lstm" in capsys.readouterr().err
        assert not (tmp_path / "rel").exists()

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

    @pytest.mark.parametrize("command", ["featurize", "train-xe", "train-scst", "caption"])
    def test_checked_before_the_corpus_is_read(self, world, trained, tmp_path, capsys, monkeypatch, command):
        def load_dataset(path):
            raise AssertionError(f"{command} read {path}")

        monkeypatch.setattr(cli, "load_dataset", load_dataset)
        out = tmp_path / "out"
        argv = {
            "featurize": ["--out-dir", out],
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
        rc = main(["build-vocab", "--config", str(p), "--dataset", "x", "--out", "y"])
        assert rc == 1
        assert "c.cfg:1" in capsys.readouterr().err

    def test_unknown_key_rejected(self, world, capsys):
        rc, _ = run(capsys, "build-vocab", "--dataset", world["dataset"],
                    "--out", world["root"] / "v.json", "--set", "bogus.key=1")
        assert rc == 1

    def test_unparseable_value_names_field(self, world, capsys):
        rc = main(["train-vse", "--dataset", str(world["dataset"]),
                   "--wordvecs", str(world["wordvecs"]),
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
    ], ids=["frobnicate", "make-toy-data", "evaluate", "grad-audit", "coverage-stats"])
    def test_unknown_flag_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_malformed_set_exits_2(self, world, capsys):
        rc, _ = run(capsys, "build-vocab", "--dataset", world["dataset"],
                    "--out", "v.json", "--set", "novalue")
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
                                    "--wordvecs", world["wordvecs"], "--out", tmp_path / "o.sgck")])
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
        base = ["--config", world["cfg"], "--dataset", toy / "dataset.jsonl", "--wordvecs", toy / "wordvecs.txt"]
        for command in ("train-vse", "train-xe"):
            rc, info = run(capsys, command, *base, "--out", tmp_path / f"{command}.sgck")
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


class TestBuildVocab:
    def test_writes_loadable_vocabulary(self, world, capsys):
        out = world["root"] / "vocab.json"
        rc, info = run(capsys, "build-vocab", "--config", world["cfg"],
                       "--dataset", world["dataset"], "--out", out)
        assert rc == 0
        vocab = Vocabulary.load(out)
        assert len(vocab) == info["tokens"]
        assert "a" in vocab


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


class TestFeaturize:
    def test_writes_relationship_matrices(self, world, tmp_path, capsys):
        rc, info = run(capsys, "featurize", "--dataset", world["dataset"],
                       "--wordvecs", world["wordvecs"], "--out-dir", tmp_path)
        assert rc == 0
        ds = load_dataset(world["dataset"])
        assert info["images"] == len(ds)
        total = 0
        for rec in ds.records:
            m = load_sgaf(tmp_path / f"{rec.image_id}.rel.sgaf")
            assert m.shape == (len(rec.triplets), 300)
            total += m.shape[0]
        assert info["relationship_rows"] == total


    def test_non_finite_word_vector_exits_1(self, world, tmp_path, capsys):
        lines = world["wordvecs"].read_text().splitlines(keepends=True)
        word, _, rest = lines[2].partition(" ")
        lines[2] = f"{word} nan {rest.split(' ', 1)[1]}"
        wordvecs = tmp_path / "nan.txt"
        wordvecs.write_text("".join(lines))
        out_dir = tmp_path / "rel"
        rc = main(["featurize", "--dataset", str(world["dataset"]), "--wordvecs", str(wordvecs),
                   "--out-dir", str(out_dir)])
        assert rc == 1
        assert "nan.txt:3: non-finite value" in capsys.readouterr().err
        assert not list(out_dir.glob("*.sgaf"))


    @pytest.mark.parametrize("image_id", ["../../escaped", "sub/dir", "..", ".", "", "a\\b", "nul\0"])
    def test_unsafe_image_id_exits_1(self, world, tmp_path, capsys, image_id):
        record = json.loads(world["dataset"].read_text().splitlines()[0])
        record["id"] = image_id
        record["feature_file"] = str(world["dataset"].parent / record["feature_file"])
        dataset = tmp_path / "ds.jsonl"
        dataset.write_text(json.dumps(record) + "\n")
        rc = main(["featurize", "--dataset", str(dataset), "--wordvecs", str(world["wordvecs"]),
                   "--out-dir", str(tmp_path / "a" / "b" / "out")])
        assert rc == 1
        assert f"ds.jsonl: image id {image_id!r}" in capsys.readouterr().err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [dataset]

    def test_reads_no_spatial_file(self, tmp_path, capsys):
        info = make_toy_data(4, 27, 0, tmp_path / "toy")
        outs = []
        for name in ("all", "one_missing"):
            rc, _ = run(capsys, "featurize", "--dataset", info["dataset"],
                        "--wordvecs", info["wordvecs"], "--out-dir", tmp_path / name)
            assert rc == 0
            outs.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
            next(Path(info["feature_dir"]).glob("*.sgaf")).unlink()
        assert outs[0] == outs[1]


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

    def test_word_vectors_are_never_read(self, world, trained, tmp_path, capsys):
        """A missing --wordvecs file, or none given, trains the checkpoint and
        log that the real file gives."""
        runs = {"real": ["--wordvecs", world["wordvecs"]],
                "missing": ["--wordvecs", tmp_path / "nonexistent.txt"], "none": []}
        outs = {}
        for name, flag in runs.items():
            ck, log = tmp_path / f"{name}.sgck", tmp_path / f"{name}.jsonl"
            rc, _ = run(capsys, "train-vse", "--config", world["cfg"], "--dataset", world["dataset"], *flag,
                        "--out", ck, "--log", log)
            assert rc == 0, name
            outs[name] = (ck.read_bytes(), log.read_bytes())
        assert outs["missing"] == outs["real"] == outs["none"]
        assert outs["real"] == (trained["vse"].read_bytes(), trained["vse_log"].read_bytes())

    @pytest.mark.parametrize("setting", ["vse.epochs=0", "vse.batch=0", "vse.lr=-1"])
    def test_bad_loop_setting_exits_1(self, world, tmp_path, capsys, setting):
        rc = main(["train-vse", "--config", str(world["cfg"]), "--dataset", str(world["dataset"]),
                   "--wordvecs", str(world["wordvecs"]), "--out", str(tmp_path / "v.sgck"),
                   "--set", setting])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "v.sgck").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_lr_exits_1(self, world, tmp_path, capsys, value):
        rc = main(["train-vse", "--config", str(world["cfg"]), "--dataset", str(world["dataset"]),
                   "--wordvecs", str(world["wordvecs"]), "--out", str(tmp_path / "v.sgck"),
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
                                    "--wordvecs", world["wordvecs"], "--out", tmp_path / "o.sgck")])
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

    def test_train_xe_trains_on_a_caption_without_words(self, world, tmp_path, capsys):
        dataset = with_train_captions(world, tmp_path, lambda r: r["captions"] + ["..."])
        rc, info = run(capsys, "train-xe", "--config", world["cfg"], "--dataset", dataset,
                       "--wordvecs", world["wordvecs"], "--out", tmp_path / "o.sgck",
                       "--set", "phase1.max_epochs=1")
        assert rc == 0 and info["epochs_run"] == 1


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

    def test_non_finite_weight_exits_1(self, world, trained, tmp_path, capsys):
        bad = tmp_path / "nan.sgck"
        bad.write_bytes(trained["xe"].read_bytes())
        poke(bad, "decoder.out_proj.weight", 0, np.nan)
        rc = main(["caption", "--checkpoint", str(bad), "--dataset", str(world["dataset"]),
                   "--wordvecs", str(world["wordvecs"]), "--out", str(tmp_path / "c.jsonl")])
        assert rc == 1
        assert "'decoder.out_proj.weight' holds NaN or inf" in capsys.readouterr().err


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
                            "--wordvecs", world["wordvecs"], *extra, "--out", ck, "--log", log)
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
