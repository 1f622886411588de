"""sgcap benchmark: one workload, one seed, one fixed measuring time.

Run from the repository root:

    python3 perfbench/run.py --workload toy-train --seed 1 --seconds 10 --trace 0

The program is pinned to one BLAS thread before numpy loads: with two
threads on a 2-core host, paper-scale ``encode`` had a median of 37 ms
but a maximum of 428 ms; with one it holds near 35 ms. Inputs are
generated from the seed in a child process under ``.perfbench/``. The
workload then sets up, runs one untimed warm-up item, and runs short
timed items until ``--seconds`` of item time have passed. It sets up 7
times in all (toy-train and evaluate-5k, whose set-up is short: 15), the
later ones spread evenly over the timed phase and kept out of its time,
and ``setup_s`` is their median, each scaled to the host's usual speed
like the item rates below (unscaled: ``raw_setup_s`` in the ``info``
line). Every item's outputs are checked, and a repeat of an item must
reproduce them exactly.

``tokens_per_s`` is the median over timed items of the tokens an item
processed per second. For toy-train and evaluate-5k, whose speed is set
by the interpreter, each item's rate is scaled to the host's usual speed
by a fixed reference task timed around it (``HostSpeed``); the unscaled
median is in the ``info`` line as ``raw_tokens_per_s``. paper-caption,
whose speed is set by BLAS and memory traffic, reports its plain rate. The tokens are
target tokens of XE pairs plus tokens sampled and greedily decoded by
SCST rollouts (validation excluded) for toy-train, decoded tokens for
paper-caption, and candidate tokens scored for evaluate-5k. ``setup_s``
covers loading the corpus and creating or loading the model;
``peak_rss_mb`` is the process's ``ru_maxrss``.

evaluate-5k also runs ``sgcap evaluate`` on a split holding an empty
candidate, which exits 1 today (ROUGE-L rejects an empty candidate). That
result goes to the ``info`` line, and ``report.py`` counts it as a failed
operation; it stays out of ``failed`` here so the timed workload itself
has no failing operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, measured untraced; with ``--trace 1``
they are the per-layer ones, taken from spans recorded around sgcap's
public functions (see ``tracing.py``). A traced run also writes its spans
and summary to ``.perfbench/trace-<workload>-s<seed>.{npz,json}``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench"


REFERENCE_S = 0.011  # the reference task's usual time on a 2-core Xeon VM


class HostSpeed:
    """Times a fixed pure-Python task around items and set-ups, to take
    the host's speed out of ``tokens_per_s`` and ``setup_s``.

    On a shared host the speed of one thread switches, in episodes of a
    few seconds, between a busy state and one up to twice as fast, and
    how busy the busy state is drifts from minute to minute. An item and
    the reference task timed right before and after it see the same
    state, so an item's rate times (reference time / ``REFERENCE_S``) is
    the rate it would have had on the usual state; a set-up's time is
    scaled the other way. The task counts the 1- to 4-grams of 400 fixed
    sentences, like the metrics layer, the interpreter-bound toy training
    and the parsing in every set-up. Its inputs never change, so no change
    to sgcap can move it.

    Over two sets of ten 30-s runs on a 2-core VM, the quartile distance
    over the median of the scaled ``tokens_per_s`` was 0.025 and 0.032 on
    evaluate-5k (unscaled: 0.065, 0.075) and 0.049 and 0.032 on toy-train
    (0.089, 0.184); paper-caption's ``setup_s`` went from 0.12 and 0.12 to
    0.04 and 0.08. paper-caption's BLAS-bound items are not scaled: with
    this task their spread went from 0.11 and 0.04 to 0.11 and 0.14, and a
    matrix-vector task tracked them no better.
    """

    def __init__(self):
        rng = random.Random(0)
        words = [f"w{i}" for i in range(3000)]
        self.sentences = [[rng.choice(words) for _ in range(14)] for _ in range(400)]

    def time(self) -> float:
        """Seconds the task takes now."""
        # with the collector on, the task's allocations would trigger
        # passes over sgcap's own objects, and its time would depend on them
        gc.disable()
        try:
            t0 = time.perf_counter()
            counts: dict = {}
            for sentence in self.sentences:
                for n in range(1, 5):
                    for i in range(len(sentence) - n + 1):
                        gram = tuple(sentence[i:i + n])
                        counts[gram] = counts.get(gram, 0) + 1
            sum(c * c for c in counts.values())
            return time.perf_counter() - t0
        finally:
            gc.enable()


def environment() -> dict:
    """Host, interpreter, numpy, BLAS and thread settings of this run."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _generate(name: str, seed: int, work: Path, root: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "generate", name, str(seed), str(work)],
        check=True, env=env, timeout=150,
    )


def measure(wl, seed: int, seconds: float, work: Path, tracer) -> dict:
    """Set-ups, warm-up, timed items and checks for one workload."""
    from workloads import CheckFailed, check

    def span(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    host = HostSpeed()
    setup_times, raw_setup_times = [], []

    def set_up():
        gc.collect()
        ref = host.time()
        t0 = time.perf_counter()
        with span("bench.setup"):
            state = wl.setup(work, seed)
        raw = time.perf_counter() - t0
        ref = (ref + host.time()) / 2
        raw_setup_times.append(raw)
        setup_times.append(raw * REFERENCE_S / ref)
        return state

    acc: dict = {}
    first_output: dict = {}
    counts = {"attempted": 0, "failed": 0}
    problems: list[str] = []

    def run_item(state, k, what):
        """One checked item; None when it failed."""
        try:
            item = wl.item(state, acc, k)
            first = first_output.setdefault(k % wl.cycle, item.output)
            check(item.output == first, f"outputs differ from an earlier repeat: {item.output!r}")
        except (CheckFailed, ArithmeticError, ValueError) as exc:
            counts["attempted"] += 1
            counts["failed"] += 1
            problems.append(f"{what}: {exc!r}")
            return None
        counts["attempted"] += item.ops
        return item

    state = set_up()
    try:
        with span("bench.warmup"):
            wl.prepare(state, acc)
            run_item(state, 0, "warm-up")
    except (CheckFailed, ArithmeticError, ValueError) as exc:
        counts["attempted"] += 1
        counts["failed"] += 1
        problems.append(f"preparation: {exc!r}")

    # The remaining set-ups are spread over the timed phase, so their
    # median covers the whole run; set-up time does not count as timed.
    durations, units, refs = [], [], []
    start = time.perf_counter()
    paused = 0.0
    # items of a workload whose bottleneck is not the interpreter keep
    # their plain rate: the reference task does not follow their speed
    reference = host.time if wl.interpreter_bound else (lambda: REFERENCE_S)
    ref_before = reference()
    while not problems and time.perf_counter() - start - paused < seconds:
        k = len(durations)
        with span("bench.item"):
            item = run_item(state, k, f"item {k}")
        if item is None:
            break
        ref_after = reference()
        durations.append(item.seconds)
        units.append(item.tokens)
        refs.append((ref_before + ref_after) / 2)
        ref_before = ref_after
        if (len(setup_times) < wl.setups
                and time.perf_counter() - start - paused >= len(setup_times) * seconds / wl.setups):
            t = time.perf_counter()
            state = None
            state = set_up()
            ref_before = reference()
            paused += time.perf_counter() - t
    timed_s = time.perf_counter() - start - paused
    while len(setup_times) < wl.setups:
        state = None
        state = set_up()
    extra = {}
    probe = None
    with span("bench.checks"):
        if not problems:
            try:
                extra = wl.finish(state, acc)
            except CheckFailed as exc:
                problems.append(repr(exc))
        if hasattr(wl, "probe"):
            probe = wl.probe(state)
    rates = [n / d for n, d in zip(units, durations)]
    host_rates = [r * ref / REFERENCE_S for r, ref in zip(rates, refs)]
    extra["raw_tokens_per_s"] = [statistics.median(rates) if rates else 0.0, "tokens/s"]
    if wl.interpreter_bound:
        extra["reference_s"] = [statistics.median(refs) if refs else 0.0, "s"]
    extra["raw_setup_s"] = [statistics.median(raw_setup_times), "s"]
    metrics = {
        "tokens_per_s": [statistics.median(host_rates) if rates else 0.0, "tokens/s"],
        "setup_s": [statistics.median(setup_times), "s"],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"],
    }
    return {
        "metrics": metrics,
        "workload_figures": extra,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "problems": problems,
        "probe": probe,
        "items": len(durations),
        "timed_s": timed_s,
        "setup_times": setup_times,
        "rates": rates,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sgcap" / "__init__.py").is_file():
        print("error: run from the repository root; src/sgcap not found", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    out = root / OUT_DIR
    work = out / f"{args.workload}-s{args.seed}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    try:
        _generate(args.workload, args.seed, work, root)
        if tracer is not None:
            tracer.install()
        try:
            result = measure(wl, args.seed, args.seconds, work, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    except Exception:  # report, never print a result for a broken run
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    correct = not result["problems"] and result["failed"] == 0
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "items": result["items"], "timed_s": result["timed_s"],
        "setup_times": result["setup_times"], "rates": result["rates"],
        "end_to_end": result["metrics"],
        "workload_figures": result["workload_figures"], "problems": result["problems"],
        "probe": result["probe"],
    }
    if tracer is not None:
        summary = tracer.analyse(wl.setups, max(result["items"], 1))
        summary.update(info)
        tracer.write(out / f"trace-{args.workload}-s{args.seed}", summary)
        metrics = {name: {"value": summary["metrics"][name], "unit": unit}
                   for name, unit, *_ in tracing.LAYER_METRICS}
        info["trace"] = {k: summary[k] for k in (
            "wall_s", "layer_self_s", "remainder_s", "spans", "nesting_errors")}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["metrics"].items()}
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
