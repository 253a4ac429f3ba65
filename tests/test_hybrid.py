"""Architecture tests: the twelve names, parameter counts, forward contracts."""

import numpy as np
import pytest

from flowcast.autodiff import Tensor, tensor_sum
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
    parameter_count,
    parameters,
)
from flowcast.layers import conv_stack, lstm_layer

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


@pytest.mark.parametrize("name,count", sorted(GOLDEN_COUNTS.items()))
def test_parameter_count_goldens(name, count):
    assert parameter_count(build(spec_for(name), seed=0)) == count


def test_build_deterministic():
    a = build(spec_for("LSTM2-SP-CNN3"), seed=7)
    b = build(spec_for("LSTM2-SP-CNN3"), seed=7)
    for (na, ta), (nb, tb) in zip(named_parameters(a), named_parameters(b)):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)
    c = build(spec_for("LSTM2-SP-CNN3"), seed=8)
    assert not np.array_equal(a.head.W.data, c.head.W.data)


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
    via_topology = apply_topology(model.spec.topology, blocks, x)
    manual = conv_stack(
        model.spec.topology.conv_spec, blocks.convs, lstm_layer(blocks.lstms[0], x)
    )
    assert np.array_equal(via_topology.data, manual.data)


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
    check_gradients(lambda: tensor_sum(forward(model, sample)), parameters(model))


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
