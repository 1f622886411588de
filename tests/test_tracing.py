"""The benchmark tracer's hook points: every name it patches must exist.

perfbench/tracing.py times sgcap by replacing functions at the module
attributes through which sgcap calls them. A rename or a dropped import
there makes ``install`` raise AttributeError, and every traced run fails.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def new_tracer():
    """A fresh ``Tracer`` from perfbench/tracing.py, not yet installed."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_tracer_patches_resolve_and_are_restored():
    tracer = new_tracer()
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


def test_training_runs_through_the_hooked_trainer_names(monkeypatch):
    """toy-train counts validation time and rollout tokens by replacing
    these three ``sgcap.trainer`` attributes; a call that bypasses them
    skews its figures without any error."""
    from collections import Counter

    from sgcap import trainer
    from test_trainer import scst_config, short_config, tiny_world

    calls = Counter()
    for name in ("validation_cider", "sample_sequence", "generate_greedy"):
        def counted(*args, _real=getattr(trainer, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(trainer, name, counted)
    vocab, params, bundles, refs, idf, vse, pairs, items = tiny_world()
    trainer.train_xe(params, pairs, items, vocab, short_config(max_epochs=1), idf)
    assert calls == {"validation_cider": 1, "generate_greedy": len(items)}
    calls.clear()
    trainer.train_scst(params, items, items, vocab, scst_config(epochs=1, max_steps=1), idf,
                       reward="cider")
    # one step over both images samples and decodes each, then validation decodes each
    assert calls == {"sample_sequence": 2, "generate_greedy": 4, "validation_cider": 1}
