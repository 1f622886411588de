"""Spans around sgcap's public functions, timed from outside the package.

The tracer replaces functions at the names through which sgcap's own
modules (and the benchmark) call them, for example
``sgcap.decoder.multi_head_attention`` or ``sgcap.trainer.generate_greedy``,
and restores them afterwards. No file under ``src/`` changes.

Each call becomes a span with a name, a start, an end and a parent. The
program is single-threaded, so spans nest strictly and a span's self time
is its duration minus the durations of its direct children. Spans stay in
memory until the run ends; ``write`` saves them.

``LAYER_METRICS`` defines every per-layer metric, the end-to-end metric it
should move and the workloads on which it should move it. The program has
no queues or worker threads, so no layer has a wait time to report.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

import numpy as np

# (metric, unit, end-to-end metric it should move, workloads where it should move)
LAYER_METRICS = [
    ("features.load_word_vectors_s", "s", "setup_s", "paper-caption"),
    ("features.load_bundle_s", "s", "setup_s", "paper-caption"),
    ("features.load_dataset_s", "s", "setup_s", "paper-caption"),
    ("checkpoint.load_captioner_s", "s", "setup_s", "paper-caption"),
    ("encoder.encode_s", "s", "caption_images_per_s, xe_pairs_per_s", "paper-caption, toy-train"),
    ("encoder.encode_calls", "count", "caption_images_per_s, xe_pairs_per_s", "paper-caption, toy-train"),
    ("decoder.decode_step_s", "s", "caption_images_per_s, scst_images_per_s", "paper-caption, toy-train"),
    ("decoder.decode_step_calls", "count", "caption_images_per_s, scst_images_per_s", "paper-caption, toy-train"),
    ("decoder.out_proj_s", "s", "caption_images_per_s, scst_images_per_s", "paper-caption, toy-train"),
    ("decoder.greedy_s", "s", "caption_images_per_s, scst_images_per_s", "paper-caption, toy-train"),
    ("decoder.sample_s", "s", "scst_images_per_s", "toy-train"),
    ("nn.lstm_step_s", "s", "caption_images_per_s, xe_pairs_per_s", "paper-caption, toy-train"),
    ("attention.mha_decoder_s", "s", "caption_images_per_s, scst_images_per_s", "paper-caption, toy-train"),
    ("attention.mha_encoder_s", "s", "caption_images_per_s, scst_images_per_s", "paper-caption, toy-train"),
    ("attention.aoa_s", "s", "caption_images_per_s, scst_images_per_s", "paper-caption, toy-train"),
    ("attention.kv_rows_per_step", "rows", "caption_images_per_s, scst_images_per_s", "paper-caption, toy-train"),
    ("autodiff.backward_s", "s", "peak_rss_mb, xe_pairs_per_s, scst_images_per_s", "toy-train"),
    ("autodiff.forward_s", "s", "xe_pairs_per_s, scst_images_per_s", "toy-train"),
    ("autodiff.ops_per_pair", "count", "xe_pairs_per_s", "toy-train"),
    ("autodiff.ops_per_decode_step", "count", "xe_pairs_per_s, scst_images_per_s", "toy-train"),
    ("autodiff.dead_op_ratio", "ratio", "scst_images_per_s", "toy-train"),
    ("trainer.update_s", "s", "scst_images_per_s, val_cider", "toy-train"),
    ("trainer.reward_s", "s", "scst_images_per_s, val_cider", "toy-train"),
    ("trainer.zero_advantage_ratio", "ratio", "scst_images_per_s, val_cider", "toy-train"),
    ("vse.embed_caption_s", "s", "scst_images_per_s", "toy-train"),
    ("vse.embed_image_s", "s", "scst_images_per_s", "toy-train"),
    ("metrics.cider_d_reward_s", "s", "scst_images_per_s", "toy-train"),
    ("metrics.compute_idf_s", "s", "evaluate_images_per_s", "evaluate-5k"),
    ("metrics.bleu_s", "s", "evaluate_images_per_s", "evaluate-5k"),
    ("metrics.rouge_l_s", "s", "evaluate_images_per_s", "evaluate-5k"),
    ("metrics.cider_s", "s", "evaluate_images_per_s", "evaluate-5k"),
    ("trace.remainder_s", "s", "none: time in timed items that no layer span covers", "all"),
]

# Metrics taken from the set-up phase (per set-up); all others come from
# the timed items (per item).
SETUP_METRICS = {
    "features.load_word_vectors_s",
    "features.load_bundle_s",
    "features.load_dataset_s",
    "checkpoint.load_captioner_s",
}

PHASES = ("bench.setup", "bench.warmup", "bench.item", "bench.checks")


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: dict[int, float] = {}
        self._stack = [-1]
        self._tapes: list = []  # tapes entered and not yet exited
        self._tape_spans: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = 0.0
        self.t1 = 0.0

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        while self._stack.pop() != i:
            pass

    def span(self, name: str):
        return _SpanContext(self, name)

    def _ops(self) -> int:
        return len(self._tapes[-1]) if self._tapes else -1

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, owner, attr: str, name, count_ops: bool = False, after=None) -> None:
        """Replace ``owner.attr`` by a spanned call; ``name`` may be a
        function of the call's (args, kwargs)."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            before = tracer._ops() if count_ops else -1
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if before >= 0:
                tracer.attrs[i] = tracer._ops() - before
            if after is not None:
                tracer.attrs[i] = after(args, out)
            return out

        self._set(owner, attr, wrapper)

    def install(self) -> None:
        """Patch every traced boundary; ``uninstall`` undoes it."""
        import sgcap.autodiff as autodiff
        import sgcap.checkpoint as checkpoint
        import sgcap.cli as cli
        import sgcap.decoder as decoder
        import sgcap.encoder as encoder
        import sgcap.features as features
        import sgcap.metrics as metrics
        import sgcap.nn as nn
        import sgcap.trainer as trainer
        import sgcap.vse as vse

        for owner in (features, cli):
            self._wrap(owner, "load_dataset", "features.load_dataset")
        self._wrap(features, "load_word_vectors", "features.load_word_vectors")
        self._wrap(features, "load_bundle", "features.load_bundle")
        self._wrap(checkpoint, "load_captioner", "checkpoint.load_captioner")

        for owner in (encoder, trainer):
            self._wrap(owner, "encode", "encoder.encode")
        self._wrap(encoder, "multi_head_attention", "attention.mha_encoder")
        self._wrap(decoder, "multi_head_attention", "attention.mha_decoder",
                   after=lambda args, out: args[2].data.shape[0])
        for owner in (encoder, decoder):
            self._wrap(owner, "aoa_block", "attention.aoa")

        self._wrap(decoder, "decode_step", "decoder.decode_step", count_ops=True)
        self._wrap(decoder, "lstm_step", "nn.lstm_step")
        self._wrap(decoder, "softmax", "decoder.softmax")
        self._wrap(nn.LinearLayer, "apply_vec", "nn.linear_vec")
        for owner in (decoder, trainer):
            self._wrap(owner, "generate_greedy", "decoder.greedy", count_ops=True)
            self._wrap(owner, "sample_sequence", "decoder.sample")

        self._wrap(autodiff.Tape, "backward", "autodiff.backward")
        enter, exit_ = autodiff.Tape.__enter__, autodiff.Tape.__exit__
        tracer = self

        def tape_enter(tape):
            out = enter(tape)
            tracer._tapes.append(tape)
            tracer._tape_spans.append(tracer.open("autodiff.forward"))
            return out

        def tape_exit(tape, *exc):
            i = tracer._tape_spans.pop()
            tracer.close(i)
            tracer.attrs[i] = len(tape)
            tracer._tapes.pop()
            return exit_(tape, *exc)

        self._set(autodiff.Tape, "__enter__", tape_enter)
        self._set(autodiff.Tape, "__exit__", tape_exit)

        for attr in ("train_xe", "train_scst", "scst_step", "xe_loss"):
            self._wrap(trainer, attr, f"trainer.{attr}")
        self._wrap(trainer, "validation_cider", "trainer.validation")
        self._wrap(trainer, "combined_reward", "trainer.combined_reward")
        self._wrap(trainer, "scst_rollout", "trainer.scst_rollout",
                   after=lambda args, out: float(out.advantage == 0.0))
        for attr in ("embed_caption", "embed_image"):
            self._wrap(trainer, attr, f"vse.{attr}")
        self._wrap(vse, "train_vse", "vse.train_vse")

        # CIDEr and CIDEr-D are one function; the span is named by variant
        for owner in (trainer, metrics):
            self._wrap(owner, "cider", _cider_span)
        for owner in (metrics, cli):
            self._wrap(owner, "compute_idf", "metrics.compute_idf")
            self._wrap(owner, "evaluate_captions", "metrics.evaluate_captions")
        self._wrap(metrics, "bleu", "metrics.bleu")
        self._wrap(metrics, "rouge_l", "metrics.rouge_l")
        self.t0 = time.perf_counter()

    def uninstall(self) -> None:
        self.t1 = time.perf_counter()
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- analysis ------------------------------------------------------------

    def analyse(self, n_setups: int, n_items: int) -> dict:
        """Per-layer metrics, the self-time table and the coverage check."""
        names = np.array(self.names, dtype=object)
        n = len(names)
        start = np.array(self.starts)
        dur = np.array(self.ends) - start
        parent = np.array(self.parents, dtype=np.int64)
        child_sum = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child_sum, parent[has_parent], dur[has_parent])
        self_time = dur - child_sum

        parents = self.parents
        phase_l: list[str] = []
        for i, p in enumerate(parents):  # parents precede children
            phase_l.append(self.names[i] if p < 0 else phase_l[p])
        phase = np.array(phase_l, dtype=object)
        parent_name = np.array([self.names[p] if p >= 0 else "" for p in parents], dtype=object)

        attr = np.zeros(n)
        if self.attrs:
            idx = np.fromiter(self.attrs.keys(), dtype=np.int64)
            attr[idx] = np.fromiter(self.attrs.values(), dtype=np.float64)

        def ancestor_mask(targets: set) -> np.ndarray:
            """True where some ancestor of the span has one of these names."""
            hit = [name in targets for name in self.names]
            out: list[bool] = []
            for p in parents:
                out.append(p >= 0 and (hit[p] or out[p]))
            return np.array(out, dtype=bool)

        timed = phase == "bench.item"
        setup = phase == "bench.setup"

        def sel(name, where=timed):
            return where & (names == name)

        def total(mask, per):
            return float(dur[mask].sum()) / per if per else 0.0

        items = max(n_items, 1)
        setups = max(n_setups, 1)
        steps = sel("decoder.decode_step")
        in_scst = ancestor_mask({"trainer.scst_step"})
        in_xe = ancestor_mask({"trainer.train_xe"})
        tapes = sel("autodiff.forward")
        taped_steps = steps & ancestor_mask({"autodiff.forward"})
        dead = sel("decoder.greedy") & in_scst & (attr > 0)
        scst_ops = float(attr[tapes & in_scst].sum())
        rollouts = sel("trainer.scst_rollout")
        under_step = parent_name == "decoder.decode_step"

        def ratio(num, den):
            return float(num) / float(den) if den else 0.0

        m = {
            "features.load_word_vectors_s": total(sel("features.load_word_vectors", setup), setups),
            "features.load_bundle_s": total(sel("features.load_bundle", setup), setups),
            "features.load_dataset_s": total(sel("features.load_dataset", setup), setups),
            "checkpoint.load_captioner_s": total(sel("checkpoint.load_captioner", setup), setups),
            "encoder.encode_s": total(sel("encoder.encode"), items),
            "encoder.encode_calls": ratio(sel("encoder.encode").sum(), items),
            "decoder.decode_step_s": float(self_time[steps].sum()) / items,
            "decoder.decode_step_calls": ratio(steps.sum(), items),
            "decoder.out_proj_s": total((sel("nn.linear_vec") | sel("decoder.softmax")) & under_step, items),
            "decoder.greedy_s": total(sel("decoder.greedy"), items),
            "decoder.sample_s": total(sel("decoder.sample"), items),
            "nn.lstm_step_s": total(sel("nn.lstm_step"), items),
            "attention.mha_decoder_s": total(sel("attention.mha_decoder"), items),
            "attention.mha_encoder_s": total(sel("attention.mha_encoder"), items),
            "attention.aoa_s": total(sel("attention.aoa"), items),
            "attention.kv_rows_per_step": ratio(attr[sel("attention.mha_decoder")].sum(), steps.sum()),
            "autodiff.backward_s": total(sel("autodiff.backward"), items),
            "autodiff.forward_s": total(tapes, items),
            "autodiff.ops_per_pair": ratio(attr[tapes & in_xe].sum(), (sel("trainer.xe_loss") & in_xe).sum()),
            "autodiff.ops_per_decode_step": ratio(attr[taped_steps].sum(), taped_steps.sum()),
            "autodiff.dead_op_ratio": ratio(attr[dead].sum(), scst_ops),
            "trainer.update_s": float(self_time[
                sel("trainer.train_xe") | sel("trainer.train_scst") | sel("trainer.scst_step")
            ].sum()) / items,
            "trainer.reward_s": total(sel("trainer.combined_reward"), items),
            "trainer.zero_advantage_ratio": ratio(attr[rollouts].sum(), rollouts.sum()),
            "vse.embed_caption_s": total(sel("vse.embed_caption"), items),
            "vse.embed_image_s": total(sel("vse.embed_image"), items),
            "metrics.cider_d_reward_s": total(
                sel("metrics.cider_d") & (parent_name == "trainer.combined_reward"), items),
            "metrics.compute_idf_s": total(sel("metrics.compute_idf"), items),
            "metrics.bleu_s": total(sel("metrics.bleu"), items),
            "metrics.rouge_l_s": total(sel("metrics.rouge_l"), items),
            "metrics.cider_s": total(sel("metrics.cider"), items),
            "trace.remainder_s": float(self_time[names == "bench.item"].sum()) / items,
        }

        # Whole-run accounting. Layer self times plus the time no layer span
        # covers add up to the traced wall time by construction once spans
        # nest strictly, so the check that can fail is the nesting: every
        # span closed, inside its parent, and no self time negative.
        wall = self.t1 - self.t0
        is_layer = ~np.isin(names, PHASES)
        layer_self = float(self_time[is_layer].sum())
        top_layer = is_layer & ~ancestor_mask(set(self.names) - set(PHASES))
        covered = float(dur[top_layer].sum())
        end = start + dur
        p = parent[has_parent]
        outside = (start[has_parent] < start[p]) | (end[has_parent] > end[p])
        nesting_errors = int((dur < 0).sum() + outside.sum() + (self_time < -1e-9).sum()
                             + (start < self.t0).sum() + (end > self.t1).sum())
        table: dict[str, list] = {}
        for name in sorted(set(self.names)):
            mask = names == name
            table[name] = [int(mask.sum()), float(self_time[mask].sum()), float(dur[mask].sum())]
        return {
            "metrics": m,
            "self_table": table,
            "wall_s": wall,
            "layer_self_s": layer_self,
            "remainder_s": wall - covered,
            "nesting_errors": nesting_errors,
            "spans": n,
        }

    def write(self, path: Path, summary: dict) -> None:
        """Save the spans (npz) and the analysed summary (json) side by side."""
        table = sorted(set(self.names))
        code = {name: k for k, name in enumerate(table)}
        np.savez_compressed(
            path.with_suffix(".npz"),
            names=np.array(table),
            name=np.array([code[x] for x in self.names], dtype=np.int32),
            start=np.array(self.starts) - self.t0,
            end=np.array(self.ends) - self.t0,
            parent=np.array(self.parents, dtype=np.int64),
        )
        path.with_suffix(".json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


def _cider_span(args, kwargs) -> str:
    variant = args[3] if len(args) > 3 else kwargs.get("variant", "plain")
    return "metrics.cider_d" if variant == "d" else "metrics.cider"


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.i = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.i)
        return False
