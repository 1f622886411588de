"""Every CLI subcommand, run end to end against a generated corpus.

Each step prints the command line it runs and the JSON summary the tool
emits, so the same sequence can be replayed in a shell against real
data. Training settings come from a config file, the same key=value
format the `--set` flag overrides.
"""

import tempfile
from pathlib import Path

from sgcap.cli import main

CONFIG = """\
# toy-sized run: small model, few epochs
model.d_model = 16
model.embed_dim = 16
model.heads = 2
model.max_len = 10
vocab.min_count = 1

vse.embed_dim = 16
vse.hidden_dim = 16
vse.space_dim = 16
vse.epochs = 30
vse.lr = 0.02

phase1.max_epochs = 120
phase1.patience = 120
phase1.lr0 = 0.2
phase1.decay_every = 100
phase1.batch = 4
phase1.stop_loss = 0.2

phase2.epochs = 1
phase2.lr = 0.003
phase2.batch = 4
phase2.max_steps = 40

seed = 0
"""


def run(*argv):
    print(f"\n$ sgcap {' '.join(argv)}")
    code = main(list(argv))
    if code != 0:
        raise SystemExit(f"step failed with exit code {code}")


with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    toy = root / "toy"
    cfg = root / "run.cfg"
    cfg.write_text(CONFIG)
    data = ["--dataset", str(toy / "dataset.jsonl"),
            "--wordvecs", str(toy / "wordvecs.txt")]

    run("make-toy-data", "--out-dir", str(toy), "--n-images", "12", "--seed", "0")
    run("coverage-stats", "--dataset", str(toy / "dataset.jsonl"))

    # the ranking network reads spatial maps and captions, no word vectors
    run("train-vse", "--config", str(cfg), *data[:2], "--out", str(root / "vse.sgck"))
    run("train-xe", "--config", str(cfg), *data, "--out", str(root / "xe.sgck"),
        "--log", str(root / "xe_log.jsonl"))
    run("train-scst", "--config", str(cfg), *data,
        "--checkpoint", str(root / "xe.sgck"), "--vse", str(root / "vse.sgck"),
        "--out", str(root / "scst.sgck"))

    run("caption", "--checkpoint", str(root / "scst.sgck"), *data,
        "--split", "test", "--out", str(root / "captions.jsonl"))
    print((root / "captions.jsonl").read_text().rstrip())
    run("evaluate", "--candidates", str(root / "captions.jsonl"),
        "--dataset", str(toy / "dataset.jsonl"), "--split", "test")

    # the gradient audit needs no data; it checks the model blocks themselves
    run("grad-audit", "--seed", "0")
