"""Run every workload untraced and traced, check them, print one report.

Run from the repository root:

    python3 perfbench/report.py
    python3 perfbench/report.py --json perfbench/baseline.json

Every workload of ``BENCHMARK.json`` runs with seed 1 for its
``run_seconds``, twice in a fresh process, one after the other (never
beside each other): once with ``--trace 0`` for the end-to-end metrics and
once with ``--trace 1`` for the per-layer ones. The report prints, per
workload, every end-to-end figure by name and unit, the operations
attempted and failed, the per-layer metrics with the end-to-end metric
each should move, the time no layer span covers, whether the spans nest
strictly, and the tracing overhead (traced minus untraced). When
``perfbench/baseline.json`` exists its figures are shown beside the new
ones.

Exits 1 when any output check fails or any run breaks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS, SETUP_METRICS  # noqa: E402

BASELINE = HERE / "baseline.json"
SEED = 1


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run in a fresh process; returns (result line, info line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("info "):
        raise RuntimeError(f"{workload} --trace {trace} failed (exit {proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2][len("info "):])


def figures(info: dict) -> dict:
    """End-to-end metrics plus the workload's own throughput and quality figures."""
    out = dict(info["end_to_end"])
    out.update(info["workload_figures"])
    return out


def _fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, (int, float)) else str(x)


def report(workload: str, plain: tuple, traced: tuple, baseline: dict) -> tuple[dict, bool]:
    (res0, info0), (res1, info1) = plain, traced
    ok = res0["correct"] and res1["correct"]
    base = baseline.get("workloads", {}).get(workload, {}).get("figures", {})
    print(f"\n== {workload}  (seed {info0['seed']}, {info0['items']} timed items "
          f"in {info0['timed_s']:.1f} s)")
    print(f"  {'end-to-end (untraced)':34s} {'value':>12s} {'unit':10s} {'traced':>12s} "
          f"{'overhead':>10s} {'baseline':>12s}")
    plain_fig, traced_fig = figures(info0), figures(info1)
    for name, (value, unit) in plain_fig.items():
        t = traced_fig.get(name, [None])[0]
        over = f"{t - value:+.4g}" if isinstance(t, (int, float)) else "-"
        b = base.get(name, [None])[0]
        print(f"  {name:34s} {_fmt(value):>12s} {unit:10s} {_fmt(t):>12s} {over:>10s} "
              f"{_fmt(b) if b is not None else '-':>12s}")
    attempted, failed = res0["attempted"], res0["failed"]
    probe = info0.get("probe")
    if probe:
        attempted += 1
        failed += 0 if probe["ok"] else 1
    print(f"  operations: attempted {attempted}, failed {failed}; checks "
          f"{'passed' if ok else 'FAILED: ' + '; '.join(info0['problems'] + info1['problems'])}")
    if probe:
        print(f"  operation '{probe['operation']}': exit {probe['exit_code']}"
              f"{'' if probe['ok'] else ' (failed: ' + probe['stderr'] + ')'}")

    print(f"  {'per-layer (traced)':34s} {'value':>12s} {'unit':10s}  should move")
    for name, unit, moves, where in LAYER_METRICS:
        value = res1["metrics"][name]["value"]
        per = "per set-up" if name in SETUP_METRICS else "per item"
        if unit != "s":
            per = ""
        print(f"  {name:34s} {_fmt(value):>12s} {unit:10s}  {moves} on {where} {per}")
    tr = info1["trace"]
    print(f"  traced wall {tr['wall_s']:.4f} s = layer self times {tr['layer_self_s']:.4f} s "
          f"+ remainder {tr['remainder_s']:.4f} s; {tr['spans']} spans, "
          f"{tr['nesting_errors']} outside their parent or with negative self time")
    if tr["nesting_errors"]:
        print("  ACCOUNTING FAILED: spans do not nest strictly")
        ok = False
    return {"figures": plain_fig, "traced_figures": traced_fig,
            "layers": {k: v["value"] for k, v in res1["metrics"].items()},
            "operations": {"attempted": attempted, "failed": failed},
            "seed": info0["seed"], "items": info0["items"]}, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", type=Path, help="also write the collected figures here")
    args = parser.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    baseline = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    collected, all_ok, env = {}, True, None
    for name in (w["name"] for w in bench["workloads"]):
        try:
            plain = run_one(name, SEED, seconds, 0)
            traced = run_one(name, SEED, seconds, 1)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"\n== {name}: {exc}")
            all_ok = False
            continue
        env = plain[1]["environment"]
        collected[name], ok = report(name, plain, traced, baseline)
        all_ok &= ok
    if env is not None:
        print(f"\nenvironment: {json.dumps(env, sort_keys=True)}")
    if args.json:
        args.json.write_text(json.dumps({
            "environment": env, "seconds": seconds, "workloads": collected,
        }, indent=1, sort_keys=True) + "\n")
    print(f"\n{'all checks passed' if all_ok else 'CHECKS FAILED'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
