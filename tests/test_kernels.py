"""Fused kernels (attention, AoA gate, LSTM cell, decoder cell) against
their unfused tape forms.

Forward values must be bit-identical to the composite of elementary ops;
gradients may differ only in summation order (relative 1e-12). The
stacked attention heads must equal the per-head loop bit for bit, and the
reference decoder context (``oracles.gated_context``) the context built
from nine elementary ops. The two cells, ``lstm_cell`` and
``decoder_cell``, must equal the chain of the reference ops they replaced
bit for bit, gradients included, however their outputs are used; so must
the row-batched ops, ``lstm_sequences`` the per-token ``gather_rows`` and
``lstm_cell`` chain of each sequence, and ``linear_each`` one ``linear``
per row. The
fused log-probability head is checked against log(softmax) and its own
identity.
"""

from functools import reduce

import numpy as np
import pytest

import sgcap.decoder
from oracles import (
    composite_aoa, composite_attention, composite_decoder_context, composite_lstm_step, gated_context,
    lstm_gates, lstm_hidden, lstm_memory, ref_attention_per_head, ref_decoder_cell, zero_state,
)
from sgcap.attention import AoAParams, MultiHeadParams, multi_head_attention
from sgcap.autodiff import (
    DimensionError, Tape, _emit_many, add, aoa, attention, concat, constant, decoder_cell, gather_rows,
    grad_check, key_values, linear, linear_each, log_prob, lstm_cell, lstm_sequences, mul, parameter, reshape, scale,
    softmax, sum_all, tanh,
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


def _path(att: MultiHeadParams, kv, key_mask, gate: AoAParams) -> tuple:
    """One path of the reference ``gated_context``; ``kv`` None attends to nothing."""
    k, v = (None, None) if kv is None else kv
    return (att.w_q, k, v, att.heads, key_mask, (gate.w_q_info, gate.w_v_info, gate.b_info,
                                                 gate.w_q_gate, gate.w_v_gate, gate.b_gate))


class TestGatedContext:
    """The reference gated_context against the nine-op composite, over a
    chain of steps in which each step's h also feeds the next step's h, as
    in the decoder."""

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
        """The decoder's fused step against the seven reference ops it replaced."""
        params, bundle = toy_model_and_bundle()

        def grads():
            for _, t in params.named_params():
                t.grad = None
            with Tape() as tape:
                loss = xe_loss(params, encode(params.encoder, bundle), [BOS, 4, 5, 6, 7, 8, 9, EOS])
            tape.backward(loss)
            return loss.data, {name: t.grad.copy() for name, t in params.named_params() if t.grad is not None}

        got_loss, got = grads()
        monkeypatch.setattr(sgcap.decoder, "decoder_cell", ref_decoder_cell)
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

    def test_step_records_one_op(self):
        rng = np.random.default_rng(0)
        p = LstmParams.init(rng, 4, 3)
        with Tape() as tape:
            lstm_step(p, zero_state(p), parameter(rng.normal(size=4)))
        assert len(tape) == 1

    @pytest.mark.parametrize("steps", [1, 5])
    def test_equals_the_three_reference_ops_bit_for_bit(self, steps):
        """lstm_cell over a chain against lstm_gates, lstm_memory and
        lstm_hidden: values and the gradients of every leaf and every
        step's h and m, the last h and m also read by the loss."""
        rng = np.random.default_rng(steps)
        p = LstmParams.init(rng, D_TOY, D_TOY)
        for b in p.weights()[4:]:
            b.data[:] = rng.normal(size=D_TOY)
        h0, m0 = parameter(rng.normal(size=D_TOY)), parameter(rng.normal(size=D_TOY))
        xs = [parameter(rng.normal(size=D_TOY)) for _ in range(steps)]
        readouts = [constant(rng.normal(size=D_TOY)) for _ in range(2)]

        def reference(x, h, m, cell):
            gates = lstm_gates(x, h, *cell)
            m_new = lstm_memory(gates, m)
            return lstm_hidden(gates, m_new), m_new

        leaves = [h0, m0, *xs, *p.weights()]
        got = chain_grads(leaves, lambda: lstm_chain(lstm_cell, p, h0, m0, xs, readouts))
        want = chain_grads(leaves, lambda: lstm_chain(reference, p, h0, m0, xs, readouts))
        assert_all_equal(got, want)


# token sequences of a batch: lengths with ties, all equal, one token,
# and tokens repeated across and within sequences
SEQUENCES = {
    "one": [[5]],
    "ties": [[4, 7, 5], [6], [8, 8, 2], [1, 3]],
    "equal": [[1, 2, 3, 4], [5, 6, 7, 8], [8, 7, 6, 5]],
    "1-9 repeats": [[3] * n for n in (2, 9, 1, 4, 4, 7)] + [[2, 3, 2, 3, 2]],
}


def sequences_reference(table, sequences, cell):
    """Each sequence through gather_rows and lstm_cell, token by token from the
    zero state, one after another; the last hidden states stacked as rows."""
    d = cell[4].data.shape[0]
    rows = []
    for seq in sequences:
        h, m = constant(np.zeros(d)), constant(np.zeros(d))
        for token in seq:
            h, m = lstm_cell(gather_rows(table, token), h, m, cell)
        rows.append(reshape(h, (1, d)))
    return concat(rows, axis=0)


class TestLstmSequences:
    @pytest.mark.parametrize("sign", [1.0, -0.0])
    @pytest.mark.parametrize("case", sorted(SEQUENCES))
    def test_equals_per_token_cells_bit_for_bit(self, case, sign):
        rng = np.random.default_rng(len(case))
        p = LstmParams.init(rng, 6, 5)
        for b in p.weights()[4:]:
            b.data[:] = rng.normal(size=5)
        table = parameter(rng.normal(size=(9, 6)))
        sequences = SEQUENCES[case]
        readout = constant(rng.normal(size=(len(sequences), 5)))

        def build(fn):
            out = fn(table, sequences, p.weights())
            return scale(sum_all(mul(out, readout)), sign), {"out": out}

        leaves = [table, *p.weights()]
        assert_all_equal(chain_grads(leaves, lambda: build(lstm_sequences)),
                         chain_grads(leaves, lambda: build(sequences_reference)))

    def test_records_one_op(self):
        rng = np.random.default_rng(0)
        p = LstmParams.init(rng, 4, 3)
        with Tape() as tape:
            out = lstm_sequences(parameter(rng.normal(size=(9, 4))), SEQUENCES["1-9 repeats"], p.weights())
        assert len(tape) == 1 and out.shape == (7, 3)

    def test_grad_check(self):
        rng = np.random.default_rng(1)
        p = LstmParams.init(rng, 3, 2)
        table = parameter(rng.normal(size=(5, 3)))
        readout = constant(rng.normal(size=(3, 2)))

        def f(table, *cell):
            return sum_all(mul(lstm_sequences(table, [[1, 4], [2], [4, 4, 0]], cell), readout))

        assert grad_check(f, [table, *p.weights()]) <= 1e-5  # the gradient audit's bound

    def test_checks_its_operands(self):
        rng = np.random.default_rng(0)
        p = LstmParams.init(rng, 4, 3)
        table = parameter(rng.normal(size=(9, 4)))
        for sequences in ([], [[1], []]):
            with pytest.raises(DimensionError):
                lstm_sequences(table, sequences, p.weights())
        for token in (9, -1):
            with pytest.raises(IndexError):
                lstm_sequences(table, [[1, 2], [token]], p.weights())
        with pytest.raises(DimensionError):
            lstm_sequences(parameter(rng.normal(size=(9, 5))), [[1]], p.weights())


class TestLinearEach:
    @pytest.mark.parametrize("sign", [1.0, -0.0])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_equals_one_linear_per_row_bit_for_bit(self, n, bias, sign):
        rng = np.random.default_rng(n)
        x, w = parameter(rng.normal(size=(n, 7))), parameter(rng.normal(size=(5, 7)))
        b = parameter(rng.normal(size=5)) if bias else None
        readout = constant(rng.normal(size=(n, 5)))

        def per_row(x, w, b):
            return concat([linear(reshape(gather_rows(x, [i]), (1, 7)), w, b) for i in range(n)], axis=0)

        def build(fn):
            out = fn(x, w, b)
            return scale(sum_all(mul(out, readout)), sign), {"out": out}

        leaves = [x, w] + ([b] if bias else [])
        assert_all_equal(chain_grads(leaves, lambda: build(linear_each)),
                         chain_grads(leaves, lambda: build(per_row)))

    def test_checks_its_operands(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DimensionError):
            linear_each(constant(rng.normal(size=(2, 3))), parameter(rng.normal(size=(4, 2))))
        with pytest.raises(DimensionError):
            linear_each(constant(rng.normal(size=(2, 3))), parameter(rng.normal(size=(4, 3))),
                        parameter(np.zeros(3)))


def chain_grads(leaves, build):
    """Record ``build()`` -> (loss, {name: tensor}) on a fresh tape and run
    backward; return each named tensor's value and gradient and each
    leaf's gradient (None where none arrived)."""
    for t in leaves:
        t.grad = None
    with Tape() as tape:
        loss, named = build()
    tape.backward(loss)
    out = {}
    for name, t in named.items():
        out[name] = t.data.copy()
        out[f"{name}.grad"] = None if t.grad is None else t.grad.copy()
    for i, t in enumerate(leaves):
        out[f"leaf {i}.grad"] = None if t.grad is None else t.grad.copy()
        t.grad = None
    return out


def assert_all_equal(got, want):
    """Equal bit for bit, the signs of zeros included."""
    assert got.keys() == want.keys()
    for name, w in want.items():
        assert (got[name] is None) == (w is None), name
        assert w is None or np.array_equal(got[name], w) and np.array_equal(np.signbit(got[name]), np.signbit(w)), name


def lstm_chain(cell_fn, p, h0, m0, xs, readouts):
    """One cell per x, each step's h and m feeding the next; the loss reads the last h and m."""
    h, m, named = h0, m0, {}
    for t, x in enumerate(xs):
        h, m = cell_fn(x, h, m, p.weights())
        named.update({f"h{t}": h, f"m{t}": m})
    return add(sum_all(mul(h, readouts[0])), sum_all(mul(m, readouts[1]))), named


# how the loss reads the chain's (h, m, c) outputs, given readouts of
# width 2d (one per step) and d (two)
CHAIN_LOSSES = {
    "every c": lambda outs, rc, rd: reduce(add, [sum_all(mul(c, rc[t])) for t, (_, _, c) in enumerate(outs)]),
    "last m only": lambda outs, rc, rd: sum_all(mul(outs[-1][1], rd[0])),
    "last h only": lambda outs, rc, rd: sum_all(mul(outs[-1][0], rd[0])),
    "last h and m": lambda outs, rc, rd: add(sum_all(mul(outs[-1][0], rd[0])), sum_all(mul(outs[-1][1], rd[1]))),
    # a zero-advantage SCST loss: every gradient is a signed zero
    "every c times -0.0": lambda outs, rc, rd: scale(CHAIN_LOSSES["every c"](outs, rc, rd), -0.0),
    "first h twice and every c": lambda outs, rc, rd: add(
        CHAIN_LOSSES["every c"](outs, rc, rd),
        add(sum_all(mul(outs[0][0], rd[0])), sum_all(mul(outs[0][0], rd[1])))),
}


class TestDecoderCell:
    """decoder_cell against ref_decoder_cell, the seven reference ops it
    replaced, over a chain of steps fed as the decoder feeds them: each
    step's h, m and c go into the next step. Values and the gradients of
    every step's h, m and c, of a_bar, of both K/V caches and of every
    leaf must be equal bit for bit."""

    @staticmethod
    def make(heads, seed):
        rng = np.random.default_rng(seed)
        d = D_TOY
        lstm = LstmParams.init(rng, 3 * d, d)
        att_s, att_r = MultiHeadParams.init(rng, d, heads), MultiHeadParams.init(rng, d, heads)
        aoa_s, aoa_r = AoAParams.init(rng, d), AoAParams.init(rng, d)
        for b in (*lstm.weights()[4:], aoa_s.b_info, aoa_s.b_gate, aoa_r.b_info, aoa_r.b_gate):
            b.data[:] = rng.normal(size=d)
        tensors = {
            "table": parameter(rng.normal(size=(12, d))), "summary": parameter(rng.normal(size=2 * d)),
            "h0": parameter(rng.normal(size=d)), "m0": parameter(rng.normal(size=d)),
            "mem_s": parameter(rng.normal(size=(5, d))), "mem_r": parameter(rng.normal(size=(20, d))),
        }
        return {
            "lstm": lstm, "att_s": att_s, "att_r": att_r, "aoa_s": aoa_s, "aoa_r": aoa_r, **tensors,
            "leaves": [*tensors.values(), *(t for p in (lstm, att_s, att_r, aoa_s, aoa_r)
                                            for _, t in p.named_params("p"))],
            "tokens": [1, 5, 5, 11, 2, 5, 7],  # a repeated row, scattered once per step
            "mask": toy_mask(rng, 20, True),
            "rc": [constant(rng.normal(size=2 * d)) for _ in range(7)],
            "rd": [constant(rng.normal(size=d)) for _ in range(2)],
        }

    @staticmethod
    def chain(cell_fn, w, steps, rel, loss):
        a_bar = tanh(w["summary"])  # an op output, as the encoder's summary is
        kv_s = key_values(*w["att_s"].project_memory(w["mem_s"]), w["att_s"].heads)
        kv_r = None if rel == "absent" else key_values(
            *w["att_r"].project_memory(w["mem_r"]), w["att_r"].heads, w["mask"] if rel == "masked" else None)
        paths = ((w["att_s"].w_q, kv_s, w["aoa_s"].weights()), (w["att_r"].w_q, kv_r, w["aoa_r"].weights()))
        named = {"a_bar": a_bar, "k_s": kv_s.k, "v_s": kv_s.v}
        if kv_r is not None:
            named.update(k_r=kv_r.k, v_r=kv_r.v)
        h, m, c = w["h0"], w["m0"], constant(np.zeros(2 * D_TOY))
        outs = []
        for t in range(steps):
            h, m, c = cell_fn(a_bar, c, w["table"], w["tokens"][t], h, m, w["lstm"].weights(), paths)
            named.update({f"h{t}": h, f"m{t}": m, f"c{t}": c})
            outs.append((h, m, c))
        return CHAIN_LOSSES[loss](outs, w["rc"], w["rd"]), named

    def compare(self, heads, rel, steps, loss):
        w = self.make(heads, 60 + heads)
        got = chain_grads(w["leaves"], lambda: self.chain(decoder_cell, w, steps, rel, loss))
        want = chain_grads(w["leaves"], lambda: self.chain(ref_decoder_cell, w, steps, rel, loss))
        assert_all_equal(got, want)
        return got

    @pytest.mark.parametrize("steps", [1, 7])
    @pytest.mark.parametrize("rel", ["masked", "present", "absent"])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_equals_the_reference_ops_bit_for_bit(self, heads, rel, steps):
        got = self.compare(heads, rel, steps, "every c")
        assert all(got[f"{name}.grad"] is not None for name in ("a_bar", "k_s", "v_s", f"h{steps - 1}"))
        assert (got.get("k_r.grad") is not None) == (rel != "absent")

    @pytest.mark.parametrize("loss", ["last m only", "last h only", "last h and m", "first h twice and every c",
                                      "every c times -0.0"])
    def test_outputs_unused_or_read_twice(self, loss):
        """Outputs no flow reaches, one read by two later ops besides the
        next step, and gradients that are all signed zeros."""
        got = self.compare(2, "masked", 3, loss)
        if loss == "last m only":  # no flow reaches the last step's context
            assert got["c2.grad"] is None and got["c1.grad"] is not None

    def test_steps_record_one_op_each(self):
        w = self.make(2, 0)
        with Tape() as tape:
            self.chain(decoder_cell, w, 7, "masked", "every c")
        # tanh, per path two K/V projections and their split, 7 cells, then the loss's 7 mul,
        # 7 sum_all and 6 add
        assert len(tape) == 1 + 6 + 7 + 20

    def test_checks_its_operands(self):
        w = self.make(2, 0)
        att_s, aoa_s = w["att_s"], w["aoa_s"]
        kv_s = key_values(*att_s.project_memory(w["mem_s"]), 2)
        a_bar, c0, h0, m0 = w["summary"], constant(np.zeros(2 * D_TOY)), w["h0"], w["m0"]

        def cell(paths, token=1, h=h0, m=m0):
            return decoder_cell(a_bar, c0, w["table"], token, h, m, w["lstm"].weights(), paths)

        with pytest.raises(ValueError, match="every key masked"):
            key_values(*w["att_r"].project_memory(w["mem_r"]), 2, np.zeros(20, dtype=bool))
        with pytest.raises(DimensionError):  # 3 heads do not divide 32
            key_values(*att_s.project_memory(w["mem_s"]), 3)
        with pytest.raises(DimensionError):  # key width 16 against query width 32
            cell([(att_s.w_q, key_values(constant(kv_s.k.data[:, :16]), kv_s.v, 2), aoa_s.weights())])
        with pytest.raises(DimensionError):  # gate for width 16
            cell([(att_s.w_q, kv_s, AoAParams.init(np.random.default_rng(0), 16).weights())])
        with pytest.raises(DimensionError):  # a row, not a vector
            cell([(att_s.w_q, kv_s, aoa_s.weights())], h=constant(h0.data.reshape(1, -1)))
        with pytest.raises(DimensionError):  # memory of another width than h
            cell([(att_s.w_q, kv_s, aoa_s.weights())], m=constant(np.zeros(D_TOY + 1)))
        with pytest.raises(IndexError):
            cell([(att_s.w_q, kv_s, aoa_s.weights())], token=12)


class TestMultiOutputTape:
    """The tape's records of ops with several outputs."""

    @pytest.mark.parametrize("which", [0, 1])
    def test_an_output_can_be_the_loss(self, which):
        rng = np.random.default_rng(which)
        p = LstmParams.init(rng, 3, 1)  # width 1: h and m are scalars
        x, h0, m0 = parameter(rng.normal(size=3)), parameter(rng.normal(size=1)), parameter(rng.normal(size=1))

        def reference(x, h, m, cell):
            gates = lstm_gates(x, h, *cell)
            m_new = lstm_memory(gates, m)
            return lstm_hidden(gates, m_new), m_new

        leaves = [x, h0, m0, *p.weights()]
        got, want = (chain_grads(leaves, lambda: (f(x, h0, m0, p.weights())[which], {}))
                     for f in (lstm_cell, reference))
        assert_all_equal(got, want)

    def test_an_output_of_another_tape_is_refused(self):
        rng = np.random.default_rng(0)
        p = LstmParams.init(rng, 3, 1)
        with Tape():
            h, m = lstm_cell(parameter(rng.normal(size=3)), constant(np.zeros(1)), constant(np.zeros(1)),
                             p.weights())
        with Tape() as other:
            sum_all(mul(h, h))
        with pytest.raises(ValueError, match="not produced on this tape"):
            other.backward(m)

    def test_factored_parts_of_an_output_settle_before_its_backward(self):
        """An output used as a linear weight and one used as a gather table
        take factor pairs; the op's backward must see them summed."""
        rng = np.random.default_rng(5)
        x, a = parameter(rng.normal(size=(4, 3))), parameter(rng.normal(size=(5, 3)))
        r = rng.normal(size=(5, 2))

        def halves_backward(g):  # an absent flow is an absent term
            return g, (np.concatenate([np.zeros((2, 3)) if gi is None else gi for gi in g]),)

        with Tape() as tape:
            top, bottom = _emit_many((x.data[:2].copy(), x.data[2:].copy()), (x,), halves_backward)
            loss = add(sum_all(mul(linear(a, top), constant(r))), sum_all(gather_rows(bottom, [1, 1, 0])))
        tape.backward(loss)
        assert np.array_equal(top.grad, r.T @ a.data)
        assert np.array_equal(bottom.grad, [[1.0] * 3, [2.0] * 3])
        assert np.array_equal(x.grad, np.concatenate([top.grad, bottom.grad]))

    def test_untaped_outputs_record_nothing(self):
        rng = np.random.default_rng(0)
        p = LstmParams.init(rng, 3, 2)
        with Tape() as tape:
            h, m = lstm_cell(constant(rng.normal(size=3)), constant(np.zeros(2)), constant(np.zeros(2)),
                             [constant(t.data) for t in p.weights()])
        assert len(tape) == 0 and not h.requires_grad and not m.requires_grad


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


def test_toy_xe_pair_records_at_most_50_ops():
    params, bundle = toy_model_and_bundle()
    with Tape() as tape:
        xe_loss(params, encode(params.encoder, bundle), [BOS, 4, 5, 6, 7, 8, 9, EOS])  # 7 steps
    assert len(tape) <= 50


def test_recorded_toy_decode_step_has_at_most_4_ops():
    params, bundle = toy_model_and_bundle()
    with Tape() as tape:
        enc = encode(params.encoder, bundle)
        state = init_state(params.decoder, enc)
        before = len(tape)
        decode_step(params.decoder, enc, state, BOS)
        step_ops = len(tape) - before
    assert step_ops <= 4


def test_toy_op_counts_with_one_op_output_head():
    # a decode step is decoder_cell and the head's linear_vec; a 7-step XE
    # pair is 21 encoder ops plus 23; a T-token sample is 2T + 14 past the encoder
    params, bundle = toy_model_and_bundle()
    with Tape() as tape:
        enc = encode(params.encoder, bundle)
        encoded = len(tape)
        state = init_state(params.decoder, enc)
        before = len(tape)
        decode_step(params.decoder, enc, state, BOS)
        assert len(tape) - before == 2
    with Tape() as tape:
        xe_loss(params, encode(params.encoder, bundle), [BOS, 4, 5, 6, 7, 8, 9, EOS])
    assert (encoded, len(tape)) == (21, 44)
    for seed in range(4):
        with Tape() as tape:
            enc = encode(params.encoder, bundle)
            tokens, _, _ = sgcap.decoder.sample_sequence(params.decoder, enc, np.random.default_rng(seed))
        assert len(tape) == encoded + 2 * len(tokens) + 14
