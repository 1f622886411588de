"""The benchmark tracer's hook points: every name it patches must exist.

perfbench/tracing.py times sgcap by replacing functions at the module
attributes through which sgcap calls them. A rename or a dropped import
there makes ``install`` raise AttributeError, and every traced run fails.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_patches_resolve_and_are_restored():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner}.{attr} not patched"
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"
