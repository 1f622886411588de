"""Demos 01-04 run to completion as scripts.

Demos 05 (two-phase training) and 06 (CLI walkthrough) are left out:
they take about 24 s and 32 s, against about 2 s for these four together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FAST_DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def test_fast_demos_found():
    assert [p.name[:2] for p in FAST_DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", FAST_DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
