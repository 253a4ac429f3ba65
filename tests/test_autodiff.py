"""Tests for the reverse-mode engine: forward semantics, adjoints, graph rules."""

import weakref

import numpy as np
import pytest

from flowcast.autodiff import (
    Tensor,
    backward,
    flat_leaves,
    matmul,
    mul,
    no_grad,
    reshape,
    tensor_sum,
)
from flowcast.hybrid import build, forward_batch
from flowcast.layers import ConvLayerParams, conv_stack
from flowcast.training import mse_loss

from gradcheck import assert_grads_close, check_gradients, finite_difference
from test_hybrid import spec_for


def t(data, rg=True):
    return Tensor(np.asarray(data, dtype=float), requires_grad=rg)


def conv(sig, kernel, bias):
    """One conv layer and its ReLU, the fused cascade's smallest case."""
    return conv_stack([ConvLayerParams(kernel, bias)], sig)


def relu(x):
    """The ReLU as the engine records it: a one-layer cascade, identity kernel."""
    return conv(x, t(np.ones((1, 1, 1))), t([0.0]))


class TestForward:
    def test_matmul_identity(self):
        out = matmul(t([[1.0, 0.0], [0.0, 1.0]]), t([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[3.0], [4.0]])

    def test_matmul_hand(self):
        out = matmul(t([[1.0, 2.0], [3.0, 4.0]]), t([[5.0], [6.0]]))
        assert np.array_equal(out.data, [[17.0], [39.0]])

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(t(np.zeros((2, 3))), t(np.zeros((2, 2))))

    def test_tanh_zero_relu_negative(self):
        assert relu(t([-3.0])).data[0] == 0.0

    def test_binary_shape_error(self):
        with pytest.raises(ValueError, match=r"\(2,\) vs \(3,\)"):
            mul(t([1.0, 2.0]), t([1.0, 2.0, 3.0]))

    def test_reshape_is_a_read_only_view(self):
        a = t(np.arange(6.0))
        r = reshape(a, (2, 3))
        assert np.shares_memory(r.data, a.data)
        with pytest.raises(ValueError, match="read-only"):
            r.data[0, 0] = 1.0
        a.data[0] = 7.0  # the input itself stays writable
        assert r.data[0, 0] == 7.0

    def test_conv_identity_kernel(self):
        sig = t(np.arange(5.0))
        out = conv(sig, t(np.ones((1, 1, 1))), t([0.0]))
        assert np.array_equal(out.data, sig.data)

    def test_conv_even_kernel_pad_split(self):
        # k=2 pads 0 on the left and 1 on the right.
        out = conv(t([1.0, 2.0, 3.0]), t([[[1.0, 1.0]]]), t([0.0]))
        assert np.array_equal(out.data, [3.0, 5.0, 3.0])

    def test_conv_k4_shape(self):
        out = conv(t(np.random.default_rng(0).normal(size=25)),
                   t(np.zeros((1, 1, 4))), t([0.0]))
        assert out.data.shape == (25,)

    def test_conv_channel_mismatch(self):
        # The conv has one channel in and out: any other kernel or bias is refused.
        sig = t(np.ones(5))
        for kernel, bias in [
            (np.ones((2, 1, 3)), [0.0]),
            (np.ones((1, 2, 3)), [0.0]),
            (np.ones((1, 1, 3)), [0.0, 0.0]),
        ]:
            with pytest.raises(ValueError, match="must be"):
                conv(sig, t(kernel), t(bias))

    def test_determinism(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        r1 = matmul(t(a), t(b)).data
        r2 = matmul(t(a), t(b)).data
        assert np.array_equal(r1, r2)


class TestBackward:
    def test_identity(self):
        x = t([3.0])
        loss = tensor_sum(x)
        backward(loss)
        assert np.array_equal(x.grad, [1.0])

    def test_sum_of_squares(self):
        x = t([1.0, -2.0, 0.5])
        backward(tensor_sum(mul(x, x)))
        assert np.allclose(x.grad, 2.0 * x.data)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            backward(t([1.0, 2.0]))

    def test_matmul_grad_is_ones_times_bt(self):
        rng = np.random.default_rng(1)
        a = t(rng.normal(size=(3, 4)))
        b = t(rng.normal(size=(4, 2)))
        backward(tensor_sum(matmul(a, b)))
        assert_grads_close(a.grad, np.ones((3, 2)) @ b.data.T)
        num = finite_difference(lambda: tensor_sum(matmul(a, b)), [a])[0]
        assert_grads_close(a.grad, num)

    def test_no_double_accumulation_with_zeroing(self):
        rng = np.random.default_rng(7)
        w = t(rng.normal(size=(3, 3)))
        x = Tensor(rng.normal(size=(3, 2)))

        def run():
            w.zero_grad()
            backward(tensor_sum(mul(matmul(w, x), matmul(w, x))))
            return w.grad.copy()

        assert np.array_equal(run(), run())

    def test_accumulates_without_zeroing(self):
        w = t(np.eye(2))
        x = Tensor(np.ones((2, 1)))
        backward(tensor_sum(matmul(w, x)))
        first = w.grad.copy()
        backward(tensor_sum(matmul(w, x)))
        assert np.array_equal(w.grad, 2.0 * first)

    def test_zero_grad_zeroes_in_place_and_keeps_buffer(self):
        _, grads, (w,) = flat_leaves([np.eye(2)])
        buffer = w.grad
        backward(tensor_sum(matmul(w, Tensor(np.ones((2, 1))))))
        assert w.grad is buffer and np.array_equal(grads, np.ones(4))
        w.zero_grad()
        assert w.grad is buffer and not grads.any()
        x = t([1.0])
        x.zero_grad()
        assert x.grad is None

    def test_flat_leaves_are_views_in_order(self):
        values, grads, (a, b) = flat_leaves([np.ones((2, 3)), np.arange(2.0)])
        assert np.array_equal(values, [1, 1, 1, 1, 1, 1, 0, 1])
        assert a.data.shape == a.grad.shape == (2, 3) and b.data.shape == (2,)
        assert a.requires_grad and b.requires_grad
        values[6] = 5.0
        b.grad += 2.0
        assert b.data[0] == 5.0 and np.array_equal(grads[6:], [2.0, 2.0])

    def test_relu_subgradient_at_zero_is_zero(self):
        # Pre-activations of exactly 0, in the first layer and in the second,
        # pass no gradient back; positive ones pass it whole.
        x = t([0.0, 2.0, -1.0, 3.0])
        first = ConvLayerParams(t(np.ones((1, 1, 1))), t([0.0]))
        second = ConvLayerParams(t(np.ones((1, 1, 1))), t([-2.0]))
        backward(tensor_sum(conv_stack([first, second], x)))
        assert np.array_equal(x.grad, [0.0, 0.0, 0.0, 1.0])
        assert np.array_equal(second.bias.grad, [1.0])
        assert np.array_equal(first.kernel.grad, [[[3.0]]])

    def test_each_node_visited_once_through_fanout(self):
        # y = x*x*x exercises a node used three times as a parent.
        x = t([2.0])
        backward(tensor_sum(mul(mul(x, x), x)))
        assert np.allclose(x.grad, [12.0])


def training_step_loss():
    """The loss of one LSTM2-SP-CNN3 training step at p=8, n=21, and its model."""
    rng = np.random.default_rng(7)
    model = build(spec_for("LSTM2-SP-CNN3", p=8, n=21, h=3), seed=0)
    xs = [rng.normal(size=(8, 21, 5)) for _ in range(3)]
    return mse_loss(forward_batch(model, *xs), rng.normal(size=(8, 3, 5))), model


def op_nodes(loss):
    """Every tensor reachable from loss that carries a backward closure."""
    seen, stack, nodes = set(), [loss], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
            if node._backward is not None:
                nodes.append(node)
    return nodes


class TestBackwardConsumesTheGraph:
    def test_every_closure_is_freed_when_backward_returns(self):
        # The closures hold the LSTM traces, the conv cascade's padded inputs
        # and the loss's residual; reference counting alone must free them.
        loss, _ = training_step_loss()
        closures = [weakref.ref(node._backward) for node in op_nodes(loss)]
        assert len(closures) == 12
        backward(loss)
        assert [ref() for ref in closures] == [None] * len(closures)

    def test_held_intermediate_keeps_its_gradient(self):
        x = t([1.0, -2.0, 3.0])
        w = Tensor(np.array([0.5, 4.0, -1.0]))
        y = mul(x, x)
        backward(tensor_sum(mul(y, w)))
        assert np.array_equal(y.grad, w.data)
        assert np.array_equal(x.grad, 2.0 * x.data * w.data)

    def test_second_backward_raises_and_adds_nothing(self):
        loss, model = training_step_loss()
        backward(loss)
        grads = model.grads.copy()
        with pytest.raises(ValueError, match="consumed by an earlier backward"):
            backward(loss)
        assert np.array_equal(model.grads, grads)

    def test_consumed_node_inside_a_new_graph_raises(self):
        x = t([2.0])
        y = mul(x, x)
        backward(tensor_sum(y))
        with pytest.raises(ValueError, match="consumed"):
            backward(tensor_sum(mul(y, x)))
        assert np.array_equal(x.grad, [4.0])


OPS = {
    "relu": lambda a, b: relu(a),
    "mul": mul,
    "matmul2": lambda a, b: matmul(reshape(a, (2, 3)), reshape(b, (3, 2))),
    "reshape": lambda a, b: reshape(a, (3, 2)),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_matches_finite_differences(name):
    # 100 random draws per op, tolerance from the finite-difference oracle.
    op = OPS[name]
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = t(rng.normal(size=6))
        b = t(rng.normal(size=6))
        check_gradients(lambda: tensor_sum(op(a, b)), [a, b])


def test_conv_grads_match_finite_differences():
    rng = np.random.default_rng(5)
    for k in (1, 2, 3, 4):
        for shape in ((7,), (7, 3), (7, 3, 2)):
            sig = t(rng.normal(size=shape))
            ker = t(rng.normal(size=(1, 1, k)))
            bias = t(rng.normal(size=1))
            check_gradients(lambda: tensor_sum(conv(sig, ker, bias)), [sig, ker, bias])


def test_conv_with_trailing_axes_grads():
    rng = np.random.default_rng(6)
    sig = t(rng.normal(size=(5, 3, 2)))
    ker = t(rng.normal(size=(1, 1, 4)))
    bias = t(rng.normal(size=1))
    check_gradients(lambda: tensor_sum(conv(sig, ker, bias)), [sig, ker, bias])


def test_composed_network_grads():
    rng = np.random.default_rng(9)
    w1, w2 = t(rng.normal(size=(4, 4))), t(rng.normal(size=(2, 4)))
    x = Tensor(rng.normal(size=(4, 3)))

    def f():
        h = relu(matmul(w1, x))
        return tensor_sum(mul(matmul(w2, h), matmul(w2, h)))

    check_gradients(f, [w1, w2])


class TestNoGrad:
    def test_ops_record_no_graph(self):
        a = t([[1.0, -2.0], [0.5, 3.0]])
        with no_grad():
            out = tensor_sum(mul(matmul(a, a), a))
            leaf = t([1.0])
        assert out._parents == () and out._backward is None
        assert not out.requires_grad
        assert leaf.requires_grad
        np.testing.assert_array_equal(out.data, tensor_sum(mul(matmul(a, a), a)).data)

    def test_recording_restored_after_exception(self):
        a = t([1.0, 2.0])
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside the block")
        out = mul(a, a)
        assert out._parents == (a, a) and out._backward is not None

    def test_nested_blocks_restore_outer_state(self):
        a = t([1.0, 2.0])
        with no_grad():
            with no_grad():
                pass
            assert mul(a, a)._backward is None
        assert mul(a, a)._backward is not None
