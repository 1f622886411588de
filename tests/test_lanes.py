"""The second lane: the one-row products of a large decode step, split
over a worker thread and the caller, equal the one-thread products bit
for bit; the lane rule reads only the environment and the CPU count, and
toy-scale work starts no thread."""

import math
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sgcap import autodiff
from sgcap.autodiff import DimensionError, Tensor, constant, key_values, linear_each
from sgcap.decoder import decode_step, generate_greedy, init_state
from sgcap.encoder import encode
from sgcap.features import BOS, EOS, MAX_TRIPLETS
from sgcap.gradaudit import run_audit
from test_decoder import tiny_setup


@pytest.fixture
def lanes(monkeypatch):
    """A second lane whatever the host's BLAS setting; yields the number of
    products each batch sent to ``_two_lanes``."""
    pool = ThreadPoolExecutor(1)
    batches = []
    two_lanes = autodiff._two_lanes

    def counted(lane, first, second):
        batches.append(len(first) + len(second))
        two_lanes(lane, first, second)

    monkeypatch.setattr(autodiff, "_lane", pool)
    monkeypatch.setattr(autodiff, "_two_lanes", counted)
    yield batches
    pool.shutdown()


def serially(monkeypatch, f):
    """f() with every product on the calling thread, as below the size rule."""
    with monkeypatch.context() as m:
        m.setattr(autodiff, "_LANE_MIN_BYTES", math.inf)
        return f()


def weights(rng, *shape):
    return Tensor(rng.normal(size=shape) / math.sqrt(shape[-1]))


class TestKernels:
    @pytest.mark.parametrize("bias", [False, True])
    def test_linear_each_one_row(self, lanes, monkeypatch, bias):
        rng = np.random.default_rng(0)
        w, x = weights(rng, 10_007, 1_024), Tensor(rng.normal(size=1_024))  # 10,007 rows: no multiple of 64
        b = Tensor(rng.normal(size=10_007)) if bias else None

        def f():
            return linear_each(x, w, b).data

        y = f()
        assert lanes == [2]
        assert np.array_equal(y, serially(monkeypatch, f))

    def test_linear_each_many_rows_stay_on_one_lane(self, lanes):
        rng = np.random.default_rng(1)
        linear_each(Tensor(rng.normal(size=(2, 1_024))), weights(rng, 10_007, 1_024))
        assert lanes == []

    def test_lstm_one_row(self, lanes, monkeypatch):
        rng = np.random.default_rng(2)
        d, width = 512, 2_048
        cell = [weights(rng, d, width) for _ in range(4)] + [Tensor(rng.normal(size=d)) for _ in range(4)]
        rows, md = rng.normal(size=(1, width)), rng.normal(size=d)

        def f():
            h, m, (_, _, y, t) = autodiff._lstm_fwd(rows, md, cell)
            return h, m, y, t

        got = f()
        assert lanes == [4]
        assert all(np.array_equal(a, b) for a, b in zip(got, serially(monkeypatch, f), strict=True))

    @staticmethod
    def context_paths(rng, d=512, heads=8, with_rel=True):
        def gate():
            return (weights(rng, d, d), weights(rng, d, d), Tensor(rng.normal(size=d)),
                    weights(rng, d, d), weights(rng, d, d), Tensor(rng.normal(size=d)))

        kv_spatial = key_values(constant(rng.normal(size=(49, d))), constant(rng.normal(size=(49, d))), heads)
        mask = np.arange(MAX_TRIPLETS) < 7
        kv_rel = key_values(constant(rng.normal(size=(MAX_TRIPLETS, d))),
                            constant(rng.normal(size=(MAX_TRIPLETS, d))), heads, mask) if with_rel else None
        return [(weights(rng, d, d), kv_spatial, gate()), (weights(rng, d, d), kv_rel, gate())]

    @pytest.mark.parametrize("with_rel", [True, False], ids=["both-paths", "no-relationships"])
    def test_context(self, lanes, monkeypatch, with_rel):
        rng = np.random.default_rng(3)
        paths = self.context_paths(rng, with_rel=with_rel)
        qd = rng.normal(size=(1, 512))

        def f():
            out, (saved, info, sig) = autodiff._context_fwd(qd, paths)
            arrays = [out, info, sig]
            for _, vd, att, _ in saved:
                arrays += [vd] + ([] if att is None else [a for a in att[:4]])
            return arrays

        got = f()
        assert lanes == ([6, 2, 2] if with_rel else [5, 2, 2])
        want = serially(monkeypatch, f)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_context_checks_every_path_before_a_product(self, lanes):
        rng = np.random.default_rng(4)
        paths = self.context_paths(rng)
        w_q, kv, gate = paths[1]
        paths[1] = (w_q, kv, gate[:2] + (Tensor(np.zeros(511)),) + gate[3:])
        with pytest.raises(DimensionError, match=r"aoa mismatch: q \(1, 512\), v \(1, 512\), weights \(511, 512\)"):
            autodiff._context_fwd(rng.normal(size=(1, 512)), paths)
        assert lanes == []


def mid_size_model():
    """Vocab 2,000 at d_model 256: the head, the LSTM and the context each
    read more than the lane's 4 MiB of weights a step."""
    _, params, bundle = tiny_setup(seed=5, vocab_size=2_000, d_model=256, heads=4, spatial_dim=64, n_rel=5)
    return params, encode(params.encoder, bundle)


def greedy_steps(params, enc):
    """Each step's logits and token of the greedy rollout."""
    state, token, steps = init_state(params.decoder, enc), BOS, []
    for _ in range(params.decoder.max_len):
        logits, probs, state = decode_step(params.decoder, enc, state, token)
        token = int(np.argmax(probs.data))
        steps.append((logits.data, token))
        if token == EOS:
            break
    return steps


def test_greedy_logits_equal_with_and_without_lanes(lanes, monkeypatch):
    params, enc = mid_size_model()
    got = greedy_steps(params, enc)
    assert lanes == [4, 6, 2, 2, 2] * len(got)  # per step: the LSTM, the context's three batches, the head
    want = serially(monkeypatch, lambda: greedy_steps(params, enc))
    assert [t for _, t in got] == [t for _, t in want]
    assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(got, want, strict=True))
    assert generate_greedy(params.decoder, enc) == [t for _, t in got]


@pytest.mark.parametrize("environ, cpus, pays", [
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
    ({"OMP_NUM_THREADS": "1"}, 4, True),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, False),  # BLAS's own variable decides
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, False),
    ({}, 2, False),  # BLAS picks its own thread count
    ({"OPENBLAS_NUM_THREADS": "4"}, 8, False),
    ({"MKL_NUM_THREADS": "1"}, 2, False),
])
def test_lane_rule(environ, cpus, pays):
    assert autodiff._lanes_pay(environ, cpus) is pays


def test_pinned_blas_starts_one_worker_at_the_first_large_product(monkeypatch):
    monkeypatch.setattr(autodiff, "_lane", None)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    before = threading.active_count()
    rng = np.random.default_rng(6)
    try:
        linear_each(Tensor(rng.normal(size=1_024)), weights(rng, 5_000, 1_024))
        assert isinstance(autodiff._lane, ThreadPoolExecutor)
        assert threading.active_count() == before + 1
    finally:
        if autodiff._lane:
            autodiff._lane.shutdown()


def test_unpinned_blas_starts_no_worker(monkeypatch):
    monkeypatch.setattr(autodiff, "_lane", None)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    before = threading.active_count()
    rng = np.random.default_rng(7)
    x, w = Tensor(rng.normal(size=1_024)), weights(rng, 5_000, 1_024)
    y = linear_each(x, w).data
    assert autodiff._lane is False and threading.active_count() == before
    assert np.array_equal(y, serially(monkeypatch, lambda: linear_each(x, w).data))


def test_toy_caption_and_grad_audit_start_no_thread(monkeypatch):
    monkeypatch.setattr(autodiff, "_lane", None)
    monkeypatch.setattr(autodiff, "_lanes_pay", lambda environ, cpus: True)  # a host where lanes would pay
    before = threading.active_count()
    _, params, bundle = tiny_setup(seed=8, vocab_size=30, d_model=32, heads=4, spatial_dim=64)
    generate_greedy(params.decoder, encode(params.encoder, bundle))
    run_audit(seeds=(1,))
    assert threading.active_count() == before
    assert autodiff._lane is None  # no product was large enough to ask for the lane


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_does_not_wait_on_the_parents_worker(lanes):
    rng = np.random.default_rng(9)
    x, w = Tensor(rng.normal(size=1_024)), weights(rng, 5_000, 1_024)
    want = linear_each(x, w).data
    assert lanes == [2]
    pid = os.fork()
    if pid == 0:  # the child's copy of the parent's executor has no thread behind it
        os._exit(0 if np.array_equal(linear_each(x, w).data, want) else 1)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
