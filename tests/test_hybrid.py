"""Architecture tests: the twelve names, parameter counts, forward contracts."""

import numpy as np
import pytest

from flowcast import autodiff
from flowcast.autodiff import Tensor, backward, tensor_sum
from flowcast.errors import DataError
from flowcast.hybrid import (
    ARCHITECTURES,
    Model,
    ModelSpec,
    Topology,
    apply_topology,
    build,
    forward,
    forward_batch,
    named_parameters,
)
from flowcast.layers import conv_stack, lstm_layer
from flowcast.training import mse_loss

from gradcheck import check_gradients


class FakeSample:
    def __init__(self, rng, p, n):
        self.s = rng.normal(size=(p, n))
        self.s_d = rng.normal(size=(p, n))
        self.s_w = rng.normal(size=(p, n))


def spec_for(name, p=5, n=7, h=2, **kw):
    return ModelSpec(topology=ARCHITECTURES[name], p=p, n=n, h=h, **kw)


def test_twelve_architectures():
    assert len(ARCHITECTURES) == 12
    for name in ARCHITECTURES:
        assert build(spec_for(name), seed=0) is not None


def test_invalid_depth_combinations_rejected():
    with pytest.raises(ValueError, match="depths"):
        Topology("parallel", 2, 1)
    with pytest.raises(ValueError, match="depths"):
        Topology("lstm-only", 1, 1)
    with pytest.raises(ValueError, match="unknown"):
        Topology("ring", 1, 1)


# Golden parameter counts at p=5, n=7, h=2, worked out by hand:
#   one LSTM layer: 8p^2 + 4p = 220; one conv layer with kernel k: k + 1
#   narrow head (width p*n per stream): 10*105 + 10 = 1060
#   wide head (width 2p*n per stream): 10*210 + 10 = 2110
GOLDEN_COUNTS = {
    "LSTM1": 3 * 220 + 1060,                      # 1720
    "LSTM2": 6 * 220 + 1060,                      # 2380
    "LSTM1-S-CNN1": 3 * 220 + 3 * 5 + 1060,       # 1735
    "LSTM2-SP-CNN3": 6 * 220 + 3 * 12 + 2110,     # 3466
    "CNN1-SP-LSTM1": 3 * 220 + 3 * 5 + 2110,      # 2785
}


def assert_on_buffer(model):
    """Every parameter's data and grad are views of the model's two flat
    vectors, and together the parameters cover them exactly."""
    tensors = [t for _, t in named_parameters(model)]
    assert sum(t.data.size for t in tensors) == model.values.size == model.grads.size
    for t in tensors:
        assert np.shares_memory(t.data, model.values)
        assert np.shares_memory(t.grad, model.grads)


@pytest.mark.parametrize("name", sorted(ARCHITECTURES))
def test_parameters_are_views_of_one_buffer(name):
    model = build(spec_for(name), seed=0)
    assert_on_buffer(model)
    backward(tensor_sum(forward(model, FakeSample(np.random.default_rng(2), 5, 7))))
    written = sum(np.abs(t.grad).sum() for _, t in named_parameters(model))
    assert written > 0 and written == pytest.approx(np.abs(model.grads).sum(), rel=1e-12)
    model.values[...] = 0.5
    assert all(np.all(t.data == 0.5) for _, t in named_parameters(model))


@pytest.mark.parametrize("name,count", sorted(GOLDEN_COUNTS.items()))
def test_parameter_count_goldens(name, count):
    assert build(spec_for(name), seed=0).values.size == count


def test_build_deterministic():
    a = build(spec_for("LSTM2-SP-CNN3"), seed=7)
    b = build(spec_for("LSTM2-SP-CNN3"), seed=7)
    for (na, ta), (nb, tb) in zip(named_parameters(a), named_parameters(b)):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)
    c = build(spec_for("LSTM2-SP-CNN3"), seed=8)
    assert not np.array_equal(a.head.W.data, c.head.W.data)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_build_rejects_a_seed_that_is_no_nonnegative_integer(seed):
    with pytest.raises(DataError, match=f"seed {seed} must be"):
        build(spec_for("LSTM1-S-CNN1"), seed)


def test_parameter_names_unique():
    model = build(spec_for("LSTM2-SP-CNN3"), seed=0)
    names = [name for name, _ in named_parameters(model)]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name", sorted(ARCHITECTURES))
def test_forward_shape(name):
    rng = np.random.default_rng(1)
    p, n, h = 8, 21, 9
    model = build(spec_for(name, p=p, n=n, h=h), seed=3)
    out = forward(model, FakeSample(rng, p, n))
    assert out.data.shape == (p, h)


def test_parallel_head_width():
    spec = spec_for("LSTM1-P-CNN1")
    assert spec.head_in_width == 3 * (2 * 5 * 7)
    model = build(spec, seed=0)
    assert model.head.W.data.shape == (10, 210)


def test_zero_head_gives_zero_output():
    rng = np.random.default_rng(2)
    model = build(spec_for("LSTM1-P-CNN1"), seed=0)
    model.head.W.data[:] = 0.0
    model.head.b.data[:] = 0.0
    out = forward(model, FakeSample(rng, 5, 7))
    assert np.array_equal(out.data, np.zeros((5, 2)))


def test_series_matches_manual_composition():
    rng = np.random.default_rng(3)
    model = build(spec_for("LSTM1-S-CNN1"), seed=4)
    blocks = model.blocks[0]
    x = Tensor(rng.normal(size=(5, 7)))
    [via_topology] = apply_topology(model.spec.topology, blocks, x)
    manual = conv_stack(blocks.convs, lstm_layer(blocks.lstms[0], x))
    assert np.array_equal(via_topology.data, manual.data)


def test_head_reads_rows_by_stream_station_step():
    rng = np.random.default_rng(6)
    model = build(spec_for("LSTM1-SP-CNN1"), seed=2)
    xs = [rng.normal(size=(5, 7, 3)) for _ in range(3)]
    # each stream's parts in order: the LSTM output, then the conv stack over it
    rows = np.concatenate(
        [
            part.data.reshape(-1, 3)
            for blocks, x in zip(model.blocks, xs)
            for part in apply_topology(model.spec.topology, blocks, Tensor(x))
        ]
    )
    # each of the 10 head outputs copies one input row, spread across streams
    picks = np.linspace(0, rows.shape[0] - 1, 10).astype(int)
    model.head.W.data[:] = 0.0
    model.head.W.data[np.arange(10), picks] = 1.0
    model.head.b.data[:] = 0.0
    out = forward_batch(model, *xs).data
    assert np.array_equal(out.reshape(10, 3), rows[picks])


def test_training_step_records_15_nodes():
    # Read the node-id counter as perfbench does, without advancing it.
    def created():
        return int(repr(autodiff._node_ids)[len("count(") : -1])

    rng = np.random.default_rng(7)
    model = build(spec_for("LSTM2-SP-CNN3", p=8, n=21, h=3), seed=0)
    xs = [rng.normal(size=(8, 21, 5)) for _ in range(3)]
    before = created()
    mse_loss(forward_batch(model, *xs), rng.normal(size=(8, 3, 5)))
    # 3 inputs; per stream 2 LSTM layers and the conv cascade; the dense head,
    # which joins every stream's parts; the [p, h, batch] reshape; the fused
    # loss.
    assert created() - before == 3 + 3 * 3 + 1 + 1 + 1


def test_sp_variants_differ():
    # same seed gives both variants identical block parameters, so any output
    # difference comes from the topology itself
    rng = np.random.default_rng(5)
    sample = FakeSample(rng, 5, 7)
    d = forward(build(spec_for("LSTM1-SP-CNN1"), seed=9), sample)
    e = forward(build(spec_for("CNN1-SP-LSTM1"), seed=9), sample)
    assert not np.allclose(d.data, e.data)


def test_batch_matches_single_samples():
    rng = np.random.default_rng(6)
    p, n, h, B = 4, 6, 3, 5
    model = build(spec_for("LSTM2-SP-CNN3", p=p, n=n, h=h), seed=11)
    s = rng.normal(size=(p, n, B))
    s_d = rng.normal(size=(p, n, B))
    s_w = rng.normal(size=(p, n, B))
    batched = forward_batch(model, s, s_d, s_w).data
    assert batched.shape == (p, h, B)
    for b in range(B):
        sample = FakeSample(rng, p, n)
        sample.s, sample.s_d, sample.s_w = s[:, :, b], s_d[:, :, b], s_w[:, :, b]
        single = forward(model, sample).data
        assert np.max(np.abs(batched[:, :, b] - single)) < 1e-12


def test_stream_shape_mismatch_rejected():
    model = build(spec_for("LSTM1"), seed=0)
    bad = [Tensor(np.zeros((5, 7))), Tensor(np.zeros((4, 7))), Tensor(np.zeros((5, 7)))]
    with pytest.raises(ValueError, match="stream 1"):
        forward_batch(model, *bad)


def test_end_to_end_gradients_full_fd_lstm_only():
    rng = np.random.default_rng(12)
    model = build(spec_for("LSTM1", p=3, n=5, h=2), seed=13)
    sample = FakeSample(rng, 3, 5)
    params = [t for _, t in named_parameters(model)]
    check_gradients(lambda: tensor_sum(forward(model, sample)), params)


def nudge_conv_biases(model, value=0.1):
    """Move conv biases off zero so no ReLU pre-activation sits on the kink,
    where central differences stop being a valid derivative estimate."""
    for blocks in model.blocks:
        for conv in blocks.convs:
            conv.bias.data[:] = value


def test_end_to_end_gradients_sampled_hybrid():
    from gradcheck import max_relative_error

    rng = np.random.default_rng(14)
    model = build(spec_for("LSTM2-SP-CNN3", p=5, n=7, h=2), seed=15)
    nudge_conv_biases(model)
    sample = FakeSample(rng, 5, 7)
    worst, name = max_relative_error(
        lambda: tensor_sum(forward(model, sample)),
        named_parameters(model),
        rng,
    )
    assert worst < 1e-5, f"worst mismatch {worst:.2e} at {name}"
