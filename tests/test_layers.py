"""Layer tests: LSTM equations vs a scalar-loop oracle, conv stacks, dense."""

import math
import warnings

import numpy as np
import pytest

from flowcast.autodiff import Tensor, backward, flat_leaves, mul, no_grad, tensor_sum
from flowcast.hybrid import ARCHITECTURES, ModelSpec, build
from flowcast.layers import (
    ConvLayerParams,
    DenseParams,
    LstmParams,
    conv_stack,
    dense,
    glorot_uniform,
    init_lstm,
    _lstm_forward,
    lstm_layer,
)

from gradcheck import check_gradients


def zero_lstm_params(p):
    return LstmParams(*flat_leaves([np.zeros((4 * p, p)), np.zeros((4 * p, p)), np.zeros(4 * p)])[2])


def conv_params(rng, kernels):
    """Glorot kernels of the given widths and zero biases, drawn as ``build``
    draws them."""
    return [
        ConvLayerParams(
            Tensor(glorot_uniform(rng, (1, 1, k), k, k), requires_grad=True),
            Tensor(np.zeros(1), requires_grad=True),
        )
        for k in kernels
    ]


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
        # training restores the best epoch by copying into the parameter
        # buffer, so an in-place write through a per-gate view must reach
        # the packed weights the next forward reads
        rng = np.random.default_rng(16)
        params = init_lstm(rng, 4)
        seq = Tensor(rng.normal(size=(4, 5, 3)))
        before = lstm_layer(params, seq).data
        params.U_o.data += 0.5
        after = lstm_layer(params, seq).data
        fresh = LstmParams(*flat_leaves([params.W.data, params.U.data, params.b.data])[2])
        assert not np.allclose(before, after)
        np.testing.assert_array_equal(after, lstm_layer(fresh, seq).data)

    def test_gate_logistic_matches_expit(self):
        from scipy.special import expit

        # p = 1 with W = 1 and U, b = 0: gate rows [0, 3) hold logistic(x).
        grid = np.concatenate(
            [np.linspace(-800, 800, 200_001), [-1000.0, 1000.0, -np.inf, np.inf]]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gates = _lstm_forward(
                np.ones((4, 1)), np.zeros((4, 1)), np.zeros(4), grid.reshape(1, 1, -1)
            ).gates[0, :3]
        for row in gates:
            np.testing.assert_allclose(row[:-4], expit(grid[:-4]), rtol=1e-15, atol=0)
            assert list(row[-4:]) == [0.0, 1.0, 0.0, 1.0]

    def test_saturating_gate_biases_give_finite_output(self):
        rng = np.random.default_rng(17)
        p = 4
        params = init_lstm(rng, p)
        for gate, sign in zip("fio", (-1.0, 1.0, 1.0)):
            getattr(params, f"b_{gate}").data[...] = sign * np.full(p, 800.0)
        params.b_c.data[...] = np.array([800.0, -800.0, 800.0, -800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = lstm_layer(params, Tensor(rng.normal(size=(p, 6, 3)))).data
        assert np.all(np.isfinite(out))
        # forget 0, input and output 1: each step's cell is the saturated candidate
        expected = np.tanh(np.tanh(params.b_c.data))[:, None, None]
        np.testing.assert_array_equal(out, np.broadcast_to(expected, out.shape))

    def test_output_is_read_only(self):
        # the output is a view of the hidden states BPTT reads, so a write
        # into it would corrupt the gradients
        rng = np.random.default_rng(18)
        out = lstm_layer(init_lstm(rng, 3), Tensor(rng.normal(size=(3, 4, 2))))
        with pytest.raises(ValueError, match="read-only"):
            out.data[0, 0, 0] = 1.0


def reference_lstm_forward(W, U, b, seq):
    """A reference kernel with separate projection and gate buffers and
    time-major hidden states [n + 1, p, batch]; the layer matches it bit for
    bit."""
    p, n, width = seq.shape
    sig = 3 * p
    projected = W @ seq.transpose(1, 0, 2)
    projected += b[:, None]
    gates = np.empty((n, 4 * p, width))
    h = np.empty((n + 1, p, width))
    c = np.empty((n + 1, p, width))
    tanh_c = np.empty((n, p, width))
    h[0], c[0] = 0.0, 0.0
    with np.errstate(over="ignore"):
        for t in range(n):
            a = gates[t]
            np.add(projected[t], U @ h[t], out=a)
            s = a[:sig]
            np.negative(s, out=s)
            np.exp(s, out=s)
            s += 1.0
            np.reciprocal(s, out=s)
            np.tanh(a[sig:], out=a[sig:])
            f, i, o, z = a[:p], a[p : 2 * p], a[2 * p : sig], a[sig:]
            np.add(f * c[t], i * z, out=c[t + 1])
            np.tanh(c[t + 1], out=tanh_c[t])
            np.multiply(o, tanh_c[t], out=h[t + 1])
    return gates, h, c, tanh_c


def reference_lstm_backward(W, U, seq, trace, dh_out):
    """BPTT of the reference kernel; returns dW, dU, db and dseq [p, n, batch]."""
    gates, h, c, tanh_c = trace
    n, rows, width = gates.shape
    p = rows // 4
    sig = 3 * p
    d_pre = np.empty_like(gates)
    dh = np.zeros((p, width))
    dc = np.zeros((p, width))
    for t in reversed(range(n)):
        a = gates[t]
        f, i, o, z = a[:p], a[p : 2 * p], a[2 * p : sig], a[sig:]
        tc = tanh_c[t]
        dh = dh + dh_out[t]
        dc = dc + dh * o * (1.0 - tc * tc)
        g = d_pre[t]
        g[:p] = dc * c[t] * f * (1.0 - f)
        g[p : 2 * p] = dc * z * i * (1.0 - i)
        g[2 * p : sig] = dh * tc * o * (1.0 - o)
        g[sig:] = dc * i * (1.0 - z * z)
        dc = dc * f
        dh = U.T @ g
    d_pre = d_pre.transpose(1, 0, 2).reshape(rows, n * width)
    h_prev = h[:-1].transpose(1, 0, 2).reshape(p, n * width)
    dW = d_pre @ seq.reshape(p, n * width).T
    dU = d_pre @ h_prev.T
    db = d_pre.sum(axis=1)
    dseq = (W.T @ d_pre).reshape(p, n, width)
    return dW, dU, db, dseq


def reference_lstm_layer(params, x):
    """Output [p, n, batch] of one reference layer, and its BPTT as a function
    of the output gradient."""
    W, U, b = params.W.data, params.U.data, params.b.data
    trace = reference_lstm_forward(W, U, b, x)

    def bptt(d_out):
        return reference_lstm_backward(W, U, x, trace, d_out.transpose(1, 0, 2))

    return trace[1][1:].transpose(1, 0, 2), bptt


class TestLstmKernelOracle:
    @pytest.mark.parametrize("shape", [(8, 21, 253), (3, 4)], ids=["batch", "2d"])
    def test_stacked_layers_match_reference_bits(self, shape):
        # The second layer reads the first one's output, so both a fresh
        # input and a layer output pass through the kernel.
        rng = np.random.default_rng(19)
        p, n = shape[:2]
        as3d = (p, n, shape[2] if len(shape) == 3 else 1)
        first, second = init_lstm(rng, p), init_lstm(rng, p)
        seq = Tensor(rng.normal(size=shape), requires_grad=True)
        weights = rng.normal(size=shape)
        mid = lstm_layer(first, seq)
        out = lstm_layer(second, mid)
        backward(tensor_sum(mul(out, Tensor(weights))))

        x = seq.data.reshape(as3d)
        want_mid, bptt_first = reference_lstm_layer(first, x)
        want_out, bptt_second = reference_lstm_layer(second, np.ascontiguousarray(want_mid))
        grads_second = bptt_second(weights.reshape(as3d))
        grads_first = bptt_first(grads_second[3])
        assert np.array_equal(mid.data, want_mid.reshape(shape))
        assert np.array_equal(out.data, want_out.reshape(shape))
        for params, grads, into in ((second, grads_second, mid), (first, grads_first, seq)):
            dW, dU, db, dseq = grads
            assert np.array_equal(params.W.grad, dW)
            assert np.array_equal(params.U.grad, dU)
            assert np.array_equal(params.b.grad, db)
            assert np.array_equal(into.grad, dseq.reshape(shape))

    def test_input_without_gradient_gets_none_and_same_parameter_grads(self):
        # A stream's first LSTM layer reads the raw input, which needs no
        # gradient: BPTT skips the input product, and the weights' gradients
        # keep the reference bits.
        rng = np.random.default_rng(23)
        params = init_lstm(rng, 8)
        x = rng.normal(size=(8, 21, 5))
        weights = rng.normal(size=x.shape)
        seq = Tensor(x)
        backward(tensor_sum(mul(lstm_layer(params, seq), Tensor(weights))))
        assert seq.grad is None
        dW, dU, db, _ = reference_lstm_layer(params, x)[1](weights)
        assert np.array_equal(params.W.grad, dW)
        assert np.array_equal(params.U.grad, dU)
        assert np.array_equal(params.b.grad, db)


def conv_oracle(params, x):
    """The cascade in plain numpy: per layer an explicit zero pad, each output
    station summed tap by tap from the bias, then the ReLU."""
    p = x.shape[0]
    for layer in params:
        w, b = layer.kernel.data[0, 0], layer.bias.data[0]
        k = w.size
        pad = [((k - 1) // 2, k - 1 - (k - 1) // 2)] + [(0, 0)] * (x.ndim - 1)
        padded = np.pad(x, pad)
        out = np.empty(x.shape)
        for i in range(p):
            total = np.full(x.shape[1:], b)
            for j in range(k):
                total = total + w[j] * padded[i + j]
            out[i] = total
        x = np.where(out > 0, out, 0.0)
    return x


def random_conv_params(rng, kernels):
    """Conv layers with normal kernels and biases, so some units are dead."""
    return [
        ConvLayerParams(
            Tensor(rng.normal(size=(1, 1, k)), requires_grad=True),
            Tensor(rng.normal(size=1), requires_grad=True),
        )
        for k in kernels
    ]


class TestConvStack:
    @pytest.mark.parametrize("shape", [(7,), (7, 5), (7, 5, 3)])
    @pytest.mark.parametrize("kernels", [(1,), (2,), (3,), (4,), (4, 3, 2)])
    def test_matches_numpy_oracle_bit_for_bit(self, shape, kernels):
        rng = np.random.default_rng(13)
        params = random_conv_params(rng, kernels)
        x = rng.normal(size=shape)
        out = conv_stack(params, Tensor(x))
        assert np.array_equal(out.data, conv_oracle(params, x))
        assert 0 < np.count_nonzero(out.data) < out.data.size

    @pytest.mark.parametrize("shape", [(7,), (7, 3), (7, 3, 2)])
    def test_cascade_gradients_with_dead_units(self, shape):
        # signed kernels, biases and inputs switch some ReLUs off at each layer
        rng = np.random.default_rng(14)
        params = random_conv_params(rng, (4, 3, 2))
        seq = Tensor(rng.normal(size=shape), requires_grad=True)
        leaves = [t for layer in params for _, t in layer.named()] + [seq]
        check_gradients(lambda: tensor_sum(conv_stack(params, seq)), leaves)

    def test_input_without_gradient_gets_none_and_same_parameter_grads(self):
        # CNN-first wirings convolve the raw input: the cascade's backward
        # stops at the first layer's parameters, with the same bits.
        rng = np.random.default_rng(24)
        params = random_conv_params(rng, (4, 3, 2))
        x = rng.normal(size=(8, 21, 4))
        weights = rng.normal(size=x.shape)
        leaves = [t for layer in params for _, t in layer.named()]

        def parameter_grads(seq):
            for t in leaves:
                t.grad = None
            backward(tensor_sum(mul(conv_stack(params, seq), Tensor(weights))))
            return [t.grad for t in leaves]

        want = parameter_grads(Tensor(x, requires_grad=True))
        seq = Tensor(x)
        got = parameter_grads(seq)
        assert seq.grad is None
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_one_tape_node_over_the_cascade(self):
        rng = np.random.default_rng(15)
        params = random_conv_params(rng, (4, 3, 2))
        seq = Tensor(rng.normal(size=(8, 21, 4)))
        out = conv_stack(params, seq)
        assert out._parents[0] is seq
        assert out._parents[1:] == tuple(t for layer in params for _, t in layer.named())

    def test_identity_kernel_is_relu(self):
        params = [ConvLayerParams(Tensor(np.ones((1, 1, 1)), requires_grad=True),
                                  Tensor(np.zeros(1), requires_grad=True))]
        x = np.array([[1.0, -2.0], [-3.0, 4.0]])
        out = conv_stack(params, Tensor(x))
        assert np.array_equal(out.data, np.maximum(x, 0.0))

    def test_output_nonnegative(self):
        rng = np.random.default_rng(8)
        params = conv_params(rng, (4, 3, 2))
        out = conv_stack(params, Tensor(-np.abs(rng.normal(size=(9, 5)))))
        assert np.all(out.data >= 0.0)

    @pytest.mark.parametrize("p", [25, 65])
    def test_shape_preserved(self, p):
        rng = np.random.default_rng(9)
        params = conv_params(rng, (4, 3, 2))
        out = conv_stack(params, Tensor(rng.normal(size=(p, 21))))
        assert out.data.shape == (p, 21)

    def test_shape_preserved_with_batch_axis(self):
        rng = np.random.default_rng(10)
        params = conv_params(rng, (4, 3, 2))
        out = conv_stack(params, Tensor(rng.normal(size=(8, 21, 4))))
        assert out.data.shape == (8, 21, 4)

    def test_station_axis_shorter_than_kernel_rejected(self):
        rng = np.random.default_rng(11)
        params = conv_params(rng, (4,))
        with pytest.raises(ValueError, match="shorter than kernel"):
            conv_stack(params, Tensor(np.zeros((3, 21))))

    def test_gradients(self):
        # positive kernels, biases, and inputs keep every pre-activation on the
        # linear side of the ReLU, where finite differences are valid
        rng = np.random.default_rng(12)
        params = conv_params(rng, (3, 2))
        for layer in params:
            layer.kernel.data[:] = np.abs(layer.kernel.data) + 0.1
            layer.bias.data[:] = 0.3
        seq = Tensor(rng.uniform(1.0, 2.0, size=(6, 4)), requires_grad=True)
        leaves = [t for layer in params for _, t in layer.named()] + [seq]
        check_gradients(lambda: tensor_sum(conv_stack(params, seq)), leaves)


class TestDense:
    def test_identity(self):
        x = np.array([[1.0], [2.0], [3.0]])
        out = dense(Tensor(np.eye(3)), Tensor(np.zeros(3)), [Tensor(x)])
        assert np.array_equal(out.data, x)

    def test_zero_weights_give_bias(self):
        b = np.array([5.0, -1.0])
        out = dense(Tensor(np.zeros((2, 3))), Tensor(b), [Tensor(np.ones((3, 1)))])
        assert np.array_equal(out.data, b[:, None])

    def test_batch_form(self):
        rng = np.random.default_rng(13)
        W, b, x = rng.normal(size=(2, 4)), rng.normal(size=2), rng.normal(size=(4, 5))
        out = dense(Tensor(W), Tensor(b), [Tensor(x)])
        assert np.allclose(out.data, W @ x + b[:, None])

    def test_gradients(self):
        rng = np.random.default_rng(14)
        W = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        x = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
        check_gradients(lambda: tensor_sum(dense(W, b, [x])), [W, b, x])

    @staticmethod
    def joined_case(seed):
        # Three parts of different leading widths, 6 x 3 joined rows, batch 4.
        rng = np.random.default_rng(seed)
        parts = [
            Tensor(rng.normal(size=(rows, 3, 4)), requires_grad=True)
            for rows in (2, 3, 1)
        ]
        W = Tensor(rng.normal(size=(5, 18)), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        return W, b, parts

    def test_joins_parts_in_order(self):
        W, b, parts = self.joined_case(15)
        out = dense(W, b, parts)
        x = np.concatenate([t.data for t in parts]).reshape(-1, 4)
        assert np.array_equal(out.data, W.data @ x + b.data[:, None])

    def test_joined_gradients(self):
        W, b, parts = self.joined_case(16)
        # Square the output so each part's gradient depends on the weights.
        check_gradients(lambda: tensor_sum(mul(dense(W, b, parts), dense(W, b, parts))),
                        [W, b, *parts])

    def test_width_mismatch_names_both_shapes(self):
        _, b, parts = self.joined_case(17)
        with pytest.raises(ValueError, match=r"\(5, 17\).*\(6, 3, 4\)"):
            dense(Tensor(np.zeros((5, 17))), b, parts)

    def test_no_grad_records_no_parents(self):
        W, b, parts = self.joined_case(18)
        with no_grad():
            out = dense(W, b, parts)
        assert out._parents == () and out._backward is None
        assert np.array_equal(out.data, dense(W, b, parts).data)


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
        assert np.max(np.abs(t)) <= limit

    def test_dense_init_shapes(self):
        # LSTM1 at p=2, n=5, h=3: the head maps 3 streams x 2 x 5 inputs to 2 x 3
        d = build(ModelSpec(ARCHITECTURES["LSTM1"], p=2, n=5, h=3), seed=2).head
        assert d.W.data.shape == (6, 30) and d.b.data.shape == (6,)

    def test_lstm_params_shape_validation(self):
        bad = flat_leaves([np.zeros((12, 3)), np.zeros((12, 3)), np.zeros(16)])[2]
        with pytest.raises(ValueError, match="^b must be a \\(12,\\)"):
            LstmParams(*bad)
        unbuffered = [Tensor(np.zeros(shape), requires_grad=True) for shape in ((12, 3), (12, 3), (12,))]
        with pytest.raises(ValueError, match="^W must be .* gradient buffer"):
            LstmParams(*unbuffered)
