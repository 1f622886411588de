"""Blocks: linear, embedding, LSTM step, initialization statistics."""

import numpy as np
import pytest

from oracles import lookup, lstm_run, ref_apply_vec, zero_state
from sgcap.autodiff import DimensionError, Tape, Tensor, constant, grad_check, mul, parameter, sum_all
from sgcap.attention import MultiHeadParams
from sgcap.encoder import RefinePathParams
from sgcap.nn import EmbeddingTable, LinearLayer, LstmParams, LstmState, lstm_step, xavier_limit


class TestLinear:
    def test_zero_input_zero_bias_gives_zero(self):
        rng = np.random.default_rng(0)
        layer = LinearLayer.init(rng, 4, 3)
        y = layer.apply_vec(constant(np.zeros(4)))
        np.testing.assert_array_equal(y.data, np.zeros(3))

    def test_matches_plain_numpy(self):
        rng = np.random.default_rng(1)
        layer = LinearLayer.init(rng, 5, 2)
        layer.bias.data[:] = rng.normal(size=2)
        x = rng.normal(size=5)
        y = layer.apply_vec(constant(x))
        np.testing.assert_allclose(y.data, layer.weight.data @ x + layer.bias.data, atol=1e-12)

    def test_rows_variant_matches_vec_variant(self):
        rng = np.random.default_rng(2)
        layer = LinearLayer.init(rng, 3, 4)
        layer.bias.data[:] = rng.normal(size=4)
        xs = rng.normal(size=(6, 3))
        rows = layer.apply_rows(constant(xs)).data
        for i in range(6):
            np.testing.assert_allclose(rows[i], layer.apply_vec(constant(xs[i])).data, atol=1e-12)

    def test_shape_error(self):
        layer = LinearLayer.init(np.random.default_rng(0), 3, 2)
        with pytest.raises(DimensionError):
            layer.apply_vec(constant(np.zeros(4)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grad_check(self, seed):
        rng = np.random.default_rng(seed)
        layer = LinearLayer.init(rng, 4, 3)
        x = parameter(rng.normal(size=4))

        def f(w, b, x):
            lay = LinearLayer(w, b)
            y = lay.apply_vec(x)
            return sum_all(mul(y, y))

        assert grad_check(f, [layer.weight, layer.bias, x]) <= 1e-5


class TestApplyVecOneOp:
    @pytest.mark.parametrize("k,m", [(64, 32), (33, 27), (600, 300), (7, 1), (1, 5)])
    @pytest.mark.parametrize("bias", [True, False])
    def test_one_op_equal_to_three_op_form(self, k, m, bias):
        rng = np.random.default_rng(k * m)
        layer = LinearLayer.init(rng, k, m, bias=bias)
        if bias:
            layer.bias.data[:] = rng.normal(size=m)
        x = parameter(rng.normal(size=k))
        weights = rng.normal(size=m)
        weights[::3] = -0.0  # -0.0 flows, which a sum over one row turns into 0.0
        got = []
        for apply in (layer.apply_vec, lambda v: ref_apply_vec(layer, v)):
            for t in (*layer.weights(), x):
                t.grad = None
            with Tape() as tape:
                y = apply(x)
                loss = sum_all(mul(y, constant(weights)))
            tape.backward(loss)
            got.append((len(tape), y.data, x.grad, *(t.grad for t in layer.weights())))
        (ops, *one), (ref_ops, *three) = got
        assert (ops, ref_ops) == (3, 5)  # apply_vec is 1 op; mul and sum_all are 2
        for a, b in zip(one, three):
            np.testing.assert_array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))


class TestEmbedding:
    def test_lookup_returns_row(self):
        table = EmbeddingTable.init(np.random.default_rng(0), 7, 4)
        np.testing.assert_array_equal(lookup(table, 3).data, table.weight.data[3])

    def test_out_of_range(self):
        table = EmbeddingTable.init(np.random.default_rng(0), 7, 4)
        with pytest.raises(IndexError):
            lookup(table, 7)
        with pytest.raises(IndexError):
            lookup(table, -1)

    def test_gradient_accumulates_on_repeated_token(self):
        from sgcap.autodiff import add

        table = EmbeddingTable.init(np.random.default_rng(0), 5, 3)
        with Tape() as tape:
            total = add(sum_all(lookup(table, 2)), sum_all(lookup(table, 2)))
        tape.backward(total)
        expected = np.zeros((5, 3))
        expected[2] = 2.0
        np.testing.assert_array_equal(table.weight.grad, expected)


class TestInitStatistics:
    def test_xavier_uniform_std(self):
        # uniform(-s, s) has std s/sqrt(3); check within 10% on 10k samples
        rng = np.random.default_rng(42)
        fan_in, fan_out = 100, 100
        from sgcap.nn import init_weight

        w = init_weight(rng, fan_out, fan_in)
        s = xavier_limit(fan_in, fan_out)
        assert w.data.size == 10000
        assert abs(w.data.std() - s / np.sqrt(3)) < 0.1 * (s / np.sqrt(3))
        assert np.abs(w.data).max() <= s

    def test_weight_owns_its_draw(self):
        from sgcap.nn import init_weight

        class Draw:
            def uniform(self, low, high, size):
                self.out = np.zeros(size)
                return self.out

        rng = Draw()
        w = init_weight(rng, 3, 4)
        assert w.data is rng.out and w.requires_grad

    def test_zero_extent_weight_raises(self):
        from sgcap.nn import init_weight

        with pytest.raises(DimensionError):
            init_weight(np.random.default_rng(0), 3, 0)

    def test_lstm_bias_init(self):
        p = LstmParams.init(np.random.default_rng(0), 4, 3)
        np.testing.assert_array_equal(p.b_f.data, np.ones(3))
        np.testing.assert_array_equal(p.b_i.data, np.zeros(3))
        np.testing.assert_array_equal(p.b_o.data, np.zeros(3))
        np.testing.assert_array_equal(p.b_c.data, np.zeros(3))


class TestLstmStep:
    def _zero_params(self, d_in, d_h):
        z = lambda shape: parameter(np.zeros(shape))
        return LstmParams(
            z((d_h, d_in + d_h)), z((d_h, d_in + d_h)), z((d_h, d_in + d_h)), z((d_h, d_in + d_h)),
            z(d_h), z(d_h), z(d_h), z(d_h),
        )

    def test_all_zero_gives_zero_hidden(self):
        p = self._zero_params(3, 2)
        s = lstm_step(p, zero_state(p), constant(np.zeros(3)))
        np.testing.assert_array_equal(s.h.data, np.zeros(2))
        np.testing.assert_array_equal(s.m.data, np.zeros(2))

    def test_zero_weights_halve_memory(self):
        # zero weights/biases: every gate is 0.5, c~ is 0, so
        # m' = 0.5 m0 and h' = 0.5 tanh(0.5 m0)
        p = self._zero_params(3, 4)
        m0 = np.array([0.4, -1.0, 2.0, 0.0])
        s0 = LstmState(Tensor(np.zeros(4)), Tensor(m0))
        s1 = lstm_step(p, s0, constant(np.ones(3)))
        np.testing.assert_allclose(s1.m.data, 0.5 * m0, atol=1e-15)
        np.testing.assert_allclose(s1.h.data, 0.5 * np.tanh(0.5 * m0), atol=1e-15)

    def test_state_shapes_preserved(self):
        rng = np.random.default_rng(5)
        p = LstmParams.init(rng, 6, 4)
        s = lstm_step(p, zero_state(p), constant(rng.normal(size=6)))
        assert s.h.shape == (4,)
        assert s.m.shape == (4,)

    def test_wrong_input_width(self):
        p = LstmParams.init(np.random.default_rng(0), 6, 4)
        with pytest.raises(DimensionError):
            lstm_step(p, zero_state(p), constant(np.zeros(5)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grad_check_through_two_steps(self, seed):
        rng = np.random.default_rng(seed)
        p = LstmParams.init(rng, 3, 2)
        x1 = parameter(rng.normal(size=3))
        x2 = parameter(rng.normal(size=3))
        leaves = [t for _, t in p.named_params("lstm")] + [x1, x2]

        def f(*leaves):
            (w_i, w_f, w_o, w_c, b_i, b_f, b_o, b_c, x1, x2) = leaves
            params = LstmParams(w_i, w_f, w_o, w_c, b_i, b_f, b_o, b_c)
            s = lstm_step(params, zero_state(params), x1)
            s = lstm_step(params, s, x2)
            return sum_all(mul(s.h, s.h))

        assert grad_check(f, leaves) <= 1e-5


class TestParamNames:
    """named_params follows the dataclass fields: tensors are leaves, blocks nest, the rest is skipped."""

    def test_bias_free_linear_yields_only_weight(self):
        layer = LinearLayer.init(np.random.default_rng(0), 3, 2, bias=False)
        assert list(layer.named_params("out")) == [("out.weight", layer.weight)]
        assert layer.weights() == (layer.weight,)

    def test_head_count_is_not_a_parameter(self):
        att = MultiHeadParams.init(np.random.default_rng(0), 4, 2)
        assert [n for n, _ in att.named_params("att")] == ["att.w_q", "att.w_k", "att.w_v"]

    def test_nested_blocks_are_dotted(self):
        path = RefinePathParams.init(np.random.default_rng(0), 4, 2)
        names = [n for n, _ in path.named_params("p")]
        assert names[:4] == ["p.att.w_q", "p.att.w_k", "p.att.w_v", "p.aoa.w_q_info"]
        assert names[-2:] == ["p.ln_gain", "p.ln_bias"]
        assert [n for n, _ in path.named_params()][0] == "att.w_q"

    def test_lstm_weights_follow_the_cell_order(self):
        p = LstmParams.init(np.random.default_rng(0), 3, 2)
        assert p.weights() == (p.w_i, p.w_f, p.w_o, p.w_c, p.b_i, p.b_f, p.b_o, p.b_c)


class TestLstmRun:
    def test_matches_stepwise(self):
        rng = np.random.default_rng(5)
        p = LstmParams.init(rng, 3, 4)
        xs = [constant(rng.normal(size=3)) for _ in range(4)]
        state = zero_state(p)
        for x in xs:
            state = lstm_step(p, state, x)
        run = lstm_run(p, xs)
        assert run.h.data.tobytes() == state.h.data.tobytes()
        assert run.m.data.tobytes() == state.m.data.tobytes()

    def test_rejects_wrong_width(self):
        p = LstmParams.init(np.random.default_rng(0), 3, 4)
        with pytest.raises(DimensionError):
            lstm_run(p, [constant(np.zeros(3)), constant(np.zeros(5))])
