"""Fused kernels (attention, AoA gate, LSTM cell) against their unfused tape forms.

Forward values must be bit-identical to the composite of elementary ops;
gradients may differ only in summation order (relative 1e-12). The fused
log-probability head is checked against log(softmax) and its own identity.
"""

import numpy as np
import pytest

from oracles import composite_aoa, composite_attention, composite_lstm_step
from sgcap.attention import AoAParams, MultiHeadParams, multi_head_attention
from sgcap.autodiff import (
    DimensionError, Tape, aoa, attention, concat, constant, grad_check, linear, log_prob, mul,
    parameter, scale, softmax, sum_all,
)
from sgcap.captioner import CaptionerConfig, CaptionerParams
from sgcap.decoder import decode_step, init_state
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


def test_toy_xe_pair_records_at_most_144_ops():
    rng = np.random.default_rng(0)
    config = CaptionerConfig(vocab_size=30, d_model=D_TOY, embed_dim=D_TOY, heads=2,
                             spatial_dim=64, max_len=16)
    params = CaptionerParams.init(config, rng)
    rel = np.zeros((MAX_TRIPLETS, 300))
    rel[:3] = rng.normal(size=(3, 300))
    mask = np.arange(MAX_TRIPLETS) < 3
    bundle = FeatureBundle("img", rng.normal(size=(5, 64)), rel, mask)
    with Tape() as tape:
        xe_loss(params, encode(params.encoder, bundle), [BOS, 4, 5, 6, 7, 8, 9, EOS])  # 7 steps
    assert len(tape) <= 144


def test_recorded_toy_decode_step_has_at_most_18_ops():
    rng = np.random.default_rng(0)
    config = CaptionerConfig(vocab_size=30, d_model=D_TOY, embed_dim=D_TOY, heads=2,
                             spatial_dim=64, max_len=16)
    params = CaptionerParams.init(config, rng)
    rel = np.zeros((MAX_TRIPLETS, 300))
    rel[:3] = rng.normal(size=(3, 300))
    mask = np.arange(MAX_TRIPLETS) < 3
    bundle = FeatureBundle("img", rng.normal(size=(5, 64)), rel, mask)
    with Tape() as tape:
        enc = encode(params.encoder, bundle)
        state = init_state(params.decoder, enc)
        before = len(tape)
        decode_step(params.decoder, enc, state, BOS)
        step_ops = len(tape) - before
    assert step_ops <= 18
