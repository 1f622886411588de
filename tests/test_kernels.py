"""Fused kernels (attention, AoA gate, decoder context, LSTM cell) against
their unfused tape forms.

Forward values must be bit-identical to the composite of elementary ops;
gradients may differ only in summation order (relative 1e-12). The
stacked attention heads and the decoder's context op must equal their
reference forms (the per-head loop; the context built from nine
elementary ops) bit for bit, gradients included. The fused
log-probability head is checked against log(softmax) and its own
identity.
"""

import numpy as np
import pytest

import sgcap.decoder
from oracles import (
    composite_aoa, composite_attention, composite_decoder_context, composite_lstm_step,
    ref_attention_per_head,
)
from sgcap.attention import AoAParams, MultiHeadParams, multi_head_attention
from sgcap.autodiff import (
    DimensionError, Tape, add, aoa, attention, concat, constant, gated_context, grad_check, linear,
    log_prob, mul, parameter, reshape, scale, softmax, sum_all, tanh,
)
from sgcap.captioner import CaptionerConfig, CaptionerParams
from sgcap.decoder import _path, decode_step, init_state
from sgcap.encoder import encode
from sgcap.features import BOS, EOS, MAX_TRIPLETS, FeatureBundle
from sgcap.nn import LstmParams, LstmState, lstm_step
from sgcap.trainer import xe_loss

D_TOY = 32  # acceptance-scale model width
GRAD_RTOL = 1e-12


def run(f, leaves, readout):
    """Forward value of f(*leaves) and the gradients of <readout, f> w.r.t. every leaf."""
    for t in leaves:
        t.grad = None
    with Tape() as tape:
        out = f(*leaves)
        loss = sum_all(mul(out, readout))
    tape.backward(loss)
    grads = [t.grad.copy() for t in leaves]
    for t in leaves:
        t.grad = None
    return out.data.copy(), grads


def assert_same(fused, composite, leaves, readout):
    got, got_grads = run(fused, leaves, readout)
    want, want_grads = run(composite, leaves, readout)
    np.testing.assert_array_equal(got, want)
    for g, w in zip(got_grads, want_grads):
        assert np.abs(g - w).max() <= GRAD_RTOL * np.abs(w).max()


def toy_mask(rng, n_keys, masked):
    if not masked:
        return None
    mask = rng.random(n_keys) < 0.6
    mask[rng.integers(n_keys)] = True
    return mask


class TestAttention:
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("n_q", [1, 3])
    def test_matches_composite(self, heads, masked, n_q):
        rng = np.random.default_rng(10 * heads + n_q + masked)
        n_k = 20 if masked else 5
        leaves = [parameter(rng.normal(size=shape)) for shape in ((n_q, D_TOY), (n_k, D_TOY), (n_k, D_TOY))]
        mask = toy_mask(rng, n_k, masked)
        readout = constant(rng.normal(size=(n_q, D_TOY)))
        assert_same(
            lambda q, k, v: attention(q, k, v, heads, mask),
            lambda q, k, v: composite_attention(q, k, v, heads, mask),
            leaves, readout,
        )

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_multi_head_matches_projected_composite(self, heads, masked):
        rng = np.random.default_rng(heads + 7 * masked)
        p = MultiHeadParams.init(rng, D_TOY, heads)
        a = parameter(rng.normal(size=(6, D_TOY)))
        mask = toy_mask(rng, 6, masked)
        readout = constant(rng.normal(size=(6, D_TOY)))

        def composite(wq, wk, wv, a):
            return composite_attention(linear(a, wq), linear(a, wk), linear(a, wv), heads, mask)

        def fused(wq, wk, wv, a):
            return multi_head_attention(MultiHeadParams(wq, wk, wv, heads), a, a, a, mask)

        assert_same(fused, composite, [p.w_q, p.w_k, p.w_v, a], readout)

    def test_value_width_may_differ_from_key_width(self):
        rng = np.random.default_rng(3)
        leaves = [parameter(rng.normal(size=s)) for s in ((2, 8), (4, 8), (4, 6))]
        readout = constant(rng.normal(size=(2, 6)))
        assert_same(
            lambda q, k, v: attention(q, k, v, 2),
            lambda q, k, v: composite_attention(q, k, v, 2),
            leaves, readout,
        )

    def test_masked_keys_get_exactly_zero_gradient(self):
        rng = np.random.default_rng(4)
        leaves = [parameter(rng.normal(size=s)) for s in ((2, 8), (5, 8), (5, 8))]
        mask = np.array([True, False, True, False, True])
        _, (_, dk, dv) = run(lambda q, k, v: attention(q, k, v, 2, mask), leaves,
                             constant(rng.normal(size=(2, 8))))
        assert not dk[~mask].any() and not dv[~mask].any()

    @pytest.mark.parametrize("n_q", [1, 5])
    @pytest.mark.parametrize("d, heads, n_k, masked", [
        (D_TOY, 2, 5, False), (D_TOY, 2, 20, True), (512, 8, 49, False), (512, 8, 20, True),
    ])
    def test_stacked_heads_equal_per_head_loop(self, d, heads, n_k, masked, n_q):
        rng = np.random.default_rng(d + heads + n_k + n_q)
        leaves = [parameter(rng.normal(size=shape)) for shape in ((n_q, d), (n_k, d), (n_k, d))]
        mask = toy_mask(rng, n_k, masked)
        readout = constant(rng.normal(size=(n_q, d)))
        got, got_grads = run(lambda q, k, v: attention(q, k, v, heads, mask), leaves, readout)
        want, want_grads = run(lambda q, k, v: ref_attention_per_head(q, k, v, heads, mask),
                               leaves, readout)
        assert np.array_equal(got, want)
        for g, w in zip(got_grads, want_grads):
            assert np.array_equal(g, w)

    def test_head_count_must_divide_widths(self):
        x = constant(np.ones((2, 6)))
        with pytest.raises(DimensionError):
            attention(x, x, x, 4)
        with pytest.raises(DimensionError):
            attention(x, x, constant(np.ones((2, 5))), 3)


class TestAoA:
    @pytest.mark.parametrize("n", [1, 5])
    def test_matches_composite(self, n):
        rng = np.random.default_rng(20 + n)
        p = AoAParams.init(rng, D_TOY)
        p.b_info.data[:] = rng.normal(size=D_TOY)
        p.b_gate.data[:] = rng.normal(size=D_TOY)
        q = parameter(rng.normal(size=(n, D_TOY)))
        v = parameter(rng.normal(size=(n, D_TOY)))
        leaves = [q, v] + [t for _, t in p.named_params("aoa")]
        readout = constant(rng.normal(size=(n, D_TOY)))
        assert_same(aoa, composite_aoa, leaves, readout)

    def test_bias_shape_checked(self):
        p = AoAParams.init(np.random.default_rng(0), 4)
        x = constant(np.ones((2, 4)))
        with pytest.raises(DimensionError):
            aoa(x, x, p.w_q_info, p.w_v_info, constant(np.ones(3)), p.w_q_gate, p.w_v_gate, p.b_gate)


class TestGatedContext:
    """gated_context against the nine-op composite, over a chain of steps in
    which each step's h also feeds the next step's h, as in the decoder."""

    @staticmethod
    def make(heads, seed):
        rng = np.random.default_rng(seed)
        att_s, att_r = MultiHeadParams.init(rng, D_TOY, heads), MultiHeadParams.init(rng, D_TOY, heads)
        aoa_s, aoa_r = AoAParams.init(rng, D_TOY), AoAParams.init(rng, D_TOY)
        for b in (aoa_s.b_info, aoa_s.b_gate, aoa_r.b_info, aoa_r.b_gate):
            b.data[:] = rng.normal(size=D_TOY)
        h0 = parameter(rng.normal(size=D_TOY))
        mem_s, mem_r = parameter(rng.normal(size=(5, D_TOY))), parameter(rng.normal(size=(20, D_TOY)))
        mix = parameter(rng.normal(size=(D_TOY, 2 * D_TOY)) * 0.2)
        readouts = [constant(rng.normal(size=2 * D_TOY)) for _ in range(7)]
        return att_s, att_r, aoa_s, aoa_r, h0, mem_s, mem_r, mix, readouts, toy_mask(rng, 20, True)

    @staticmethod
    def chain(context, parts, steps, with_rel):
        """The steps' context vectors and the gradient of every leaf, both K/V
        caches and each step's h."""
        att_s, att_r, aoa_s, aoa_r, h0, mem_s, mem_r, mix, readouts, mask = parts
        leaves = {"h0": h0, "mem_s": mem_s, "mem_r": mem_r, "mix": mix}
        for name, p in (("att_s", att_s), ("att_r", att_r), ("aoa_s", aoa_s), ("aoa_r", aoa_r)):
            leaves.update(p.named_params(name))
        for t in leaves.values():
            t.grad = None
        with Tape() as tape:
            kv_s = att_s.project_memory(mem_s)
            kv_r = att_r.project_memory(mem_r) if with_rel else None
            h, hs, outs, total = h0, [], [], None
            for t in range(steps):
                c = context(parts, h, kv_s, kv_r)
                term = sum_all(mul(c, readouts[t]))
                total = term if total is None else add(total, term)
                hs.append(h)
                outs.append(c)
                h = tanh(add(h, reshape(linear(reshape(c, (1, 2 * D_TOY)), mix), (D_TOY,))))
        tape.backward(total)
        grads = {name: t.grad.copy() for name, t in leaves.items() if t.grad is not None}
        caches = {"k_s": kv_s[0], "v_s": kv_s[1]}
        if with_rel:
            caches.update(k_r=kv_r[0], v_r=kv_r[1])
        grads.update((name, t.grad.copy()) for name, t in caches.items())
        grads.update((f"h{t}", h.grad.copy()) for t, h in enumerate(hs))
        for t in leaves.values():
            t.grad = None
        return [c.data for c in outs], grads

    @staticmethod
    def fused(parts, h, kv_s, kv_r):
        att_s, att_r, aoa_s, aoa_r, *_, mask = parts
        return gated_context(h, (_path(att_s, kv_s, None, aoa_s), _path(att_r, kv_r, mask, aoa_r)))

    @staticmethod
    def composite(parts, h, kv_s, kv_r):
        att_s, att_r, aoa_s, aoa_r, *_, mask = parts
        return composite_decoder_context(h, att_s, aoa_s, kv_s, att_r, aoa_r, kv_r, mask)

    @pytest.mark.parametrize("steps", [1, 7])
    @pytest.mark.parametrize("with_rel", [True, False])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_equals_composite_bit_for_bit(self, heads, with_rel, steps):
        parts = self.make(heads, 40 + heads)
        got, got_grads = self.chain(self.fused, parts, steps, with_rel)
        want, want_grads = self.chain(self.composite, parts, steps, with_rel)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert got_grads.keys() == want_grads.keys()
        aoa_names = {f"aoa_{p}.{n}" for p in "sr" for n in (
            "w_q_info", "w_v_info", "b_info", "w_q_gate", "w_v_gate", "b_gate")}
        rel_names = {"att_r.w_q", "k_r", "v_r"} if with_rel else set()
        assert {"h0", "att_s.w_q", "k_s", "v_s"} | rel_names | aoa_names <= got_grads.keys()
        for name in want_grads:
            assert np.array_equal(got_grads[name], want_grads[name]), name

    def test_xe_gradients_equal_the_unfused_decoder(self, monkeypatch):
        params, bundle = toy_model_and_bundle()

        def composite_paths(h, paths):
            (wq_s, k_s, v_s, heads, _, gate_s), (wq_r, k_r, v_r, _, mask, gate_r) = paths
            return composite_decoder_context(
                h, MultiHeadParams(wq_s, None, None, heads), AoAParams(*gate_s), (k_s, v_s),
                MultiHeadParams(wq_r, None, None, heads), AoAParams(*gate_r),
                None if k_r is None else (k_r, v_r), mask)

        def grads():
            for _, t in params.named_params():
                t.grad = None
            with Tape() as tape:
                loss = xe_loss(params, encode(params.encoder, bundle), [BOS, 4, 5, 6, 7, 8, 9, EOS])
            tape.backward(loss)
            return loss.data, {name: t.grad.copy() for name, t in params.named_params() if t.grad is not None}

        got_loss, got = grads()
        monkeypatch.setattr(sgcap.decoder, "gated_context", composite_paths)
        want_loss, want = grads()
        assert np.array_equal(got_loss, want_loss)
        assert got.keys() == want.keys()
        for name in want:
            assert np.array_equal(got[name], want[name]), name

    def test_checks_of_the_replaced_ops(self):
        parts = self.make(2, 0)
        att_s, att_r, aoa_s, aoa_r, h0, mem_s, mem_r, *_ = parts
        kv_s, kv_r = att_s.project_memory(mem_s), att_r.project_memory(mem_r)
        with pytest.raises(ValueError, match="every key masked"):
            gated_context(h0, (_path(att_r, kv_r, np.zeros(20, dtype=bool), aoa_r),))
        with pytest.raises(DimensionError):  # 3 heads do not divide 32
            gated_context(h0, (_path(MultiHeadParams(att_s.w_q, None, None, 3), kv_s, None, aoa_s),))
        with pytest.raises(DimensionError):  # key width 16 against query width 32
            half = (constant(kv_s[0].data[:, :16]), kv_s[1])
            gated_context(h0, (_path(att_s, half, None, aoa_s),))
        with pytest.raises(DimensionError):  # gate for width 16
            gated_context(h0, (_path(att_s, kv_s, None, AoAParams.init(np.random.default_rng(0), 16)),))
        with pytest.raises(DimensionError):  # a row, not a vector
            gated_context(constant(h0.data.reshape(1, -1)), (_path(att_s, kv_s, None, aoa_s),))


class TestLstm:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_composite_cell(self, seed):
        rng = np.random.default_rng(seed)
        p = LstmParams.init(rng, 3 * D_TOY, D_TOY)
        for _, b in p.named_params("lstm"):
            if b.data.ndim == 1:
                b.data[:] = rng.normal(size=b.data.shape)
        h, m, x = (parameter(rng.normal(size=n)) for n in (D_TOY, D_TOY, 3 * D_TOY))
        leaves = [h, m, x] + [t for _, t in p.named_params("lstm")]
        readout = constant(rng.normal(size=2 * D_TOY))

        def fused(h, m, x, *weights):
            s = lstm_step(LstmParams(*weights), LstmState(h, m), x)
            return concat([s.h, s.m], axis=0)

        def composite(h, m, x, *weights):
            return concat(list(composite_lstm_step(LstmParams(*weights), h, m, x)), axis=0)

        assert_same(fused, composite, leaves, readout)

    def test_step_records_three_ops(self):
        rng = np.random.default_rng(0)
        p = LstmParams.init(rng, 4, 3)
        with Tape() as tape:
            lstm_step(p, p.zero_state(), parameter(rng.normal(size=4)))
        assert len(tape) == 3


class TestLogProb:
    @pytest.mark.parametrize("offset", [0.0, -1000.0, 1000.0])  # unshifted, exp over- or underflows
    def test_matches_log_of_softmax(self, offset):
        z = np.random.default_rng(0).normal(size=30) * 5 + offset
        want = np.log(softmax(constant(z)).data)
        for t in range(30):
            assert abs(log_prob(constant(z), t).item() - want[t]) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_is_onehot_minus_probs(self, seed):
        rng = np.random.default_rng(seed)
        z = parameter(rng.normal(size=12))
        t = int(rng.integers(12))
        with Tape() as tape:
            loss = scale(log_prob(z, t), 2.5)
        tape.backward(loss)
        onehot = np.eye(12)[t]
        np.testing.assert_array_equal(z.grad, 2.5 * (onehot - softmax(constant(z.data)).data))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grad_check(self, seed):
        z = parameter(np.random.default_rng(seed).normal(size=7))
        assert grad_check(lambda z: log_prob(z, seed + 2), [z]) <= 1e-6

    def test_matrix_gives_each_rows_value_and_gradient(self):
        rng = np.random.default_rng(3)
        z = parameter(rng.normal(size=(4, 9)) * 5)
        targets = [2, 0, 8, 2]
        readout = rng.normal(size=4)
        with Tape() as tape:
            lps = log_prob(z, targets)
            loss = sum_all(mul(lps, constant(readout)))
        tape.backward(loss)
        for row, t in enumerate(targets):
            assert abs(lps.data[row] - log_prob(constant(z.data[row]), t).item()) <= 1e-12
            want = readout[row] * (np.eye(9)[t] - softmax(constant(z.data[row])).data)
            assert np.abs(z.grad[row] - want).max() <= 1e-12
        with pytest.raises(DimensionError):
            log_prob(z, targets[:3])

    def test_rejects_bad_target_and_shape(self):
        z = constant(np.zeros(5))
        for target in (-1, 5):
            with pytest.raises(IndexError):
                log_prob(z, target)
        with pytest.raises(DimensionError):
            log_prob(constant(np.zeros((1, 5))), 0)


def toy_model_and_bundle():
    """A toy captioner and the feature bundle of one image with 3 relationships."""
    rng = np.random.default_rng(0)
    config = CaptionerConfig(vocab_size=30, d_model=D_TOY, embed_dim=D_TOY, heads=2,
                             spatial_dim=64, max_len=16)
    params = CaptionerParams.init(config, rng)
    rel = np.zeros((MAX_TRIPLETS, 300))
    rel[:3] = rng.normal(size=(3, 300))
    mask = np.arange(MAX_TRIPLETS) < 3
    return params, FeatureBundle("img", rng.normal(size=(5, 64)), rel, mask)


def test_toy_xe_pair_records_at_most_88_ops():
    params, bundle = toy_model_and_bundle()
    with Tape() as tape:
        xe_loss(params, encode(params.encoder, bundle), [BOS, 4, 5, 6, 7, 8, 9, EOS])  # 7 steps
    assert len(tape) <= 88


def test_recorded_toy_decode_step_has_at_most_10_ops():
    params, bundle = toy_model_and_bundle()
    with Tape() as tape:
        enc = encode(params.encoder, bundle)
        state = init_state(params.decoder, enc)
        before = len(tape)
        decode_step(params.decoder, enc, state, BOS)
        step_ops = len(tape) - before
    assert step_ops <= 10
