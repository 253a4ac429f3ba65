"""Layer tests: LSTM equations vs a scalar-loop oracle, conv stacks, dense."""

import math

import numpy as np
import pytest

from flowcast.autodiff import Tensor, mul, tensor_sum
from flowcast.layers import (
    ConvLayerParams,
    ConvStackSpec,
    DenseParams,
    LstmParams,
    conv_stack,
    dense,
    glorot_uniform,
    init_conv_stack,
    init_dense,
    init_lstm,
    lstm_layer,
)

from gradcheck import check_gradients


def zero_lstm_params(p):
    z = lambda shape: Tensor(np.zeros(shape), requires_grad=True)
    kw = {}
    for g in ("f", "i", "c", "o"):
        kw[f"W_{g}"] = z((p, p))
        kw[f"U_{g}"] = z((p, p))
        kw[f"b_{g}"] = z(p)
    return LstmParams(**kw)


def scalar_sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v))


def scalar_lstm_reference(params, seq):
    """Pure-Python per-element unroll of the six gate equations."""
    mats = {name: t.data.tolist() for name, t in params.named()}
    p, n = seq.shape
    h = [0.0] * p
    c = [0.0] * p
    out = np.zeros((p, n))

    def dot(m, row, vec):
        return sum(m[row][k] * vec[k] for k in range(p))

    for t in range(n):
        x = seq[:, t].tolist()
        h_new, c_new = [0.0] * p, [0.0] * p
        for j in range(p):
            f = scalar_sigmoid(dot(mats["W_f"], j, x) + dot(mats["U_f"], j, h) + mats["b_f"][j])
            i = scalar_sigmoid(dot(mats["W_i"], j, x) + dot(mats["U_i"], j, h) + mats["b_i"][j])
            z = math.tanh(dot(mats["W_c"], j, x) + dot(mats["U_c"], j, h) + mats["b_c"][j])
            cc = f * c[j] + i * z
            o = scalar_sigmoid(dot(mats["W_o"], j, x) + dot(mats["U_o"], j, h) + mats["b_o"][j])
            c_new[j] = cc
            h_new[j] = o * math.tanh(cc)
        h, c = h_new, c_new
        out[:, t] = h
    return out


def numpy_lstm_step(params, x, h, c):
    """One step of the gate equations on whole columns, as a composition oracle."""
    m = {name: t.data for name, t in params.named()}
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    gate = lambda g: m[f"W_{g}"] @ x + m[f"U_{g}"] @ h + m[f"b_{g}"][:, None]
    c = sig(gate("f")) * c + sig(gate("i")) * np.tanh(gate("c"))
    return sig(gate("o")) * np.tanh(c), c


class TestLstmStep:
    def test_zero_everything_gives_zero_hidden(self):
        p = 4
        params = zero_lstm_params(p)
        out = lstm_layer(params, Tensor(np.random.default_rng(0).normal(size=(p, 1))))
        assert np.array_equal(out.data, np.zeros((p, 1)))

    def test_saturated_forget_gate_remembers_cell(self):
        # the first column writes tanh(diag) into the cell through an open
        # input gate; later zero columns close it, and a saturated forget gate
        # keeps the cell, so every hidden column equals the first
        p, n = 3, 6
        params = zero_lstm_params(p)
        params.b_f.data[:] = 50.0
        params.b_o.data[:] = 50.0
        params.b_i.data[:] = -50.0
        params.W_i.data[:] = 100.0 * np.eye(p)
        cell = np.array([1.5, -2.0, 0.25])
        params.W_c.data[:] = np.diag(cell)
        seq = np.zeros((p, n))
        seq[:, 0] = 1.0
        out = lstm_layer(params, Tensor(seq)).data
        assert np.max(np.abs(out[:, 0] - np.tanh(np.tanh(cell)))) < 1e-12
        for t in range(1, n):
            assert np.max(np.abs(out[:, t] - out[:, 0])) < 1e-12

    def test_matches_scalar_loop_oracle(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            p, n = 4, 5
            params = init_lstm(rng, p)
            seq = rng.normal(size=(p, n))
            got = lstm_layer(params, Tensor(seq))
            want = scalar_lstm_reference(params, seq)
            assert np.max(np.abs(got.data - want)) < 1e-12

    def test_gradients_through_state(self):
        # the loss reads only the last time column, so every gradient into an
        # earlier input column flows through the carried (h, c) state
        rng = np.random.default_rng(17)
        p, n, B = 3, 4, 2
        params = init_lstm(rng, p)
        seq = Tensor(rng.normal(size=(p, n, B)), requires_grad=True)
        w = np.zeros((p, n, B))
        w[:, -1, :] = rng.normal(size=(p, B))
        weights = Tensor(w)

        def loss():
            return tensor_sum(mul(lstm_layer(params, seq), weights))

        leaves = [t for _, t in params.named()] + [seq]
        check_gradients(loss, leaves)
        assert np.all(np.abs(seq.grad[:, 0, :]) > 0)

    def test_hidden_bounded_by_one(self):
        rng = np.random.default_rng(2)
        params = init_lstm(rng, 6)
        out = lstm_layer(params, Tensor(rng.normal(size=(6, 10)) * 5))
        assert np.all(np.abs(out.data) < 1.0)


class TestLstmLayer:
    def test_single_column_equals_step(self):
        rng = np.random.default_rng(3)
        p = 5
        params = init_lstm(rng, p)
        x = rng.normal(size=(p, 1))
        layer_out = lstm_layer(params, Tensor(x))
        h, _ = numpy_lstm_step(params, x, np.zeros((p, 1)), np.zeros((p, 1)))
        assert np.allclose(layer_out.data, h, atol=1e-15)

    def test_zero_input_zero_params_zero_output(self):
        # zero parameters give zero hidden for any input, not only a zero one
        params = zero_lstm_params(3)
        for seq in (np.zeros((3, 7)), np.random.default_rng(0).normal(size=(3, 7))):
            out = lstm_layer(params, Tensor(seq))
            assert np.array_equal(out.data, np.zeros((3, 7)))

    def test_matches_unrolled_step_composition(self):
        rng = np.random.default_rng(4)
        p, n = 4, 6
        params = init_lstm(rng, p)
        seq = rng.normal(size=(p, n))
        out = lstm_layer(params, Tensor(seq))
        h, c = np.zeros((p, 1)), np.zeros((p, 1))
        for t in range(n):
            h, c = numpy_lstm_step(params, seq[:, t : t + 1], h, c)
            assert np.allclose(out.data[:, t], h[:, 0], atol=1e-13)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="time column"):
            lstm_layer(zero_lstm_params(2), Tensor(np.zeros((2, 0))))

    def test_shape_preserved_with_batch_axis(self):
        rng = np.random.default_rng(5)
        params = init_lstm(rng, 4)
        out = lstm_layer(params, Tensor(rng.normal(size=(4, 3, 6))))
        assert out.data.shape == (4, 3, 6)

    def test_batch_columns_match_separate_runs(self):
        rng = np.random.default_rng(6)
        p, n, B = 3, 4, 5
        params = init_lstm(rng, p)
        block = rng.normal(size=(p, n, B))
        batched = lstm_layer(params, Tensor(block)).data
        for b in range(B):
            single = lstm_layer(params, Tensor(block[:, :, b])).data
            assert np.allclose(batched[:, :, b], single, atol=1e-13)

    def test_gradients(self):
        rng = np.random.default_rng(7)
        p, n = 3, 4
        params = init_lstm(rng, p)
        seq = Tensor(rng.normal(size=(p, n)), requires_grad=True)
        leaves = [t for _, t in params.named()] + [seq]
        check_gradients(lambda: tensor_sum(lstm_layer(params, seq)), leaves)

    def test_gradients_with_batch_axis(self):
        rng = np.random.default_rng(15)
        p, n, B = 3, 4, 2
        params = init_lstm(rng, p)
        seq = Tensor(rng.normal(size=(p, n, B)), requires_grad=True)
        # unequal output weights, so every column's adjoint differs
        weights = Tensor(rng.normal(size=(p, n, B)))
        leaves = [t for _, t in params.named()] + [seq]
        check_gradients(lambda: tensor_sum(mul(lstm_layer(params, seq), weights)), leaves)

    def test_rebound_parameter_changes_next_forward(self):
        # training restores the best epoch by assigning new arrays to .data
        rng = np.random.default_rng(16)
        params = init_lstm(rng, 4)
        seq = Tensor(rng.normal(size=(4, 5, 3)))
        before = lstm_layer(params, seq).data
        params.U_o.data = params.U_o.data + 0.5
        after = lstm_layer(params, seq).data
        fresh = LstmParams(**{name: Tensor(t.data.copy()) for name, t in params.named()})
        assert not np.allclose(before, after)
        np.testing.assert_array_equal(after, lstm_layer(fresh, seq).data)


class TestConvStack:
    def test_identity_kernel_is_relu(self):
        spec = ConvStackSpec((1,))
        params = [ConvLayerParams(Tensor(np.ones((1, 1, 1)), requires_grad=True),
                                  Tensor(np.zeros(1), requires_grad=True))]
        x = np.array([[1.0, -2.0], [-3.0, 4.0]])
        out = conv_stack(spec, params, Tensor(x))
        assert np.array_equal(out.data, np.maximum(x, 0.0))

    def test_output_nonnegative(self):
        rng = np.random.default_rng(8)
        spec = ConvStackSpec((4, 3, 2))
        params = init_conv_stack(rng, spec)
        out = conv_stack(spec, params, Tensor(-np.abs(rng.normal(size=(9, 5)))))
        assert np.all(out.data >= 0.0)

    @pytest.mark.parametrize("p", [25, 65])
    def test_shape_preserved(self, p):
        rng = np.random.default_rng(9)
        spec = ConvStackSpec((4, 3, 2))
        params = init_conv_stack(rng, spec)
        out = conv_stack(spec, params, Tensor(rng.normal(size=(p, 21))))
        assert out.data.shape == (p, 21)

    def test_shape_preserved_with_batch_axis(self):
        rng = np.random.default_rng(10)
        spec = ConvStackSpec((4, 3, 2))
        params = init_conv_stack(rng, spec)
        out = conv_stack(spec, params, Tensor(rng.normal(size=(8, 21, 4))))
        assert out.data.shape == (8, 21, 4)

    def test_station_axis_shorter_than_kernel_rejected(self):
        rng = np.random.default_rng(11)
        spec = ConvStackSpec((4,))
        params = init_conv_stack(rng, spec)
        with pytest.raises(ValueError, match="shorter than kernel"):
            conv_stack(spec, params, Tensor(np.zeros((3, 21))))

    def test_gradients(self):
        # positive kernels, biases, and inputs keep every pre-activation on the
        # linear side of the ReLU, where finite differences are valid
        rng = np.random.default_rng(12)
        spec = ConvStackSpec((3, 2))
        params = init_conv_stack(rng, spec)
        for layer in params:
            layer.kernel.data[:] = np.abs(layer.kernel.data) + 0.1
            layer.bias.data[:] = 0.3
        seq = Tensor(rng.uniform(1.0, 2.0, size=(6, 4)), requires_grad=True)
        leaves = [t for layer in params for _, t in layer.named()] + [seq]
        check_gradients(lambda: tensor_sum(conv_stack(spec, params, seq)), leaves)


class TestDense:
    def test_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        out = dense(Tensor(np.eye(3)), Tensor(np.zeros(3)), Tensor(x))
        assert np.array_equal(out.data, x)

    def test_zero_weights_give_bias(self):
        b = np.array([5.0, -1.0])
        out = dense(Tensor(np.zeros((2, 3))), Tensor(b), Tensor(np.ones(3)))
        assert np.array_equal(out.data, b)

    def test_batch_form(self):
        rng = np.random.default_rng(13)
        W, b, x = rng.normal(size=(2, 4)), rng.normal(size=2), rng.normal(size=(4, 5))
        out = dense(Tensor(W), Tensor(b), Tensor(x))
        assert np.allclose(out.data, W @ x + b[:, None])

    def test_gradients(self):
        rng = np.random.default_rng(14)
        W = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        x = Tensor(rng.normal(size=4), requires_grad=True)
        check_gradients(lambda: tensor_sum(dense(W, b, x)), [W, b, x])


class TestInit:
    def test_deterministic_for_seed(self):
        a = init_lstm(np.random.default_rng(42), 5)
        b = init_lstm(np.random.default_rng(42), 5)
        for (_, ta), (_, tb) in zip(a.named(), b.named()):
            assert np.array_equal(ta.data, tb.data)

    def test_forget_bias_is_one(self):
        params = init_lstm(np.random.default_rng(0), 4)
        assert np.array_equal(params.b_f.data, np.ones(4))
        assert np.array_equal(params.b_i.data, np.zeros(4))

    def test_glorot_limit(self):
        t = glorot_uniform(np.random.default_rng(1), (50, 50), 50, 50)
        limit = math.sqrt(6.0 / 100.0)
        assert np.max(np.abs(t.data)) <= limit

    def test_dense_init_shapes(self):
        d = init_dense(np.random.default_rng(2), 6, 10)
        assert d.W.data.shape == (6, 10) and d.b.data.shape == (6,)

    def test_lstm_params_shape_validation(self):
        bad = {f"{k}_{g}": Tensor(np.zeros((3, 3)), requires_grad=True)
               for g in ("f", "i", "c", "o") for k in ("W", "U")}
        bad |= {f"b_{g}": Tensor(np.zeros(4), requires_grad=True)
                for g in ("f", "i", "c", "o")}
        with pytest.raises(ValueError, match="b_f"):
            LstmParams(**bad)
