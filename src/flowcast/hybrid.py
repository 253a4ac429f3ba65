"""Hybrid LSTM / CNN forecasters: twelve named architectures, one forward rule.

Each model runs three input streams (near-term, daily, weekly) through the
same block topology, joins and flattens the stream outputs, and applies a
dense regression head producing an h-step forecast for every station.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .autodiff import Tensor, flat_leaves, reshape
from .errors import check_seed
from .layers import (
    ConvLayerParams,
    DenseParams,
    LstmParams,
    conv_stack,
    dense,
    glorot_uniform,
    init_lstm_values,
    lstm_layer,
)

LSTM_ONLY = "lstm-only"
SERIES_LSTM_CNN = "series-lstm-cnn"
SERIES_CNN_LSTM = "series-cnn-lstm"
PARALLEL = "parallel"
SERIES_PARALLEL_D = "series-parallel-d"
SERIES_PARALLEL_E = "series-parallel-e"

KINDS = (
    LSTM_ONLY,
    SERIES_LSTM_CNN,
    SERIES_CNN_LSTM,
    PARALLEL,
    SERIES_PARALLEL_D,
    SERIES_PARALLEL_E,
)

# kernel cascade per CNN depth; the single-layer variant uses the widest kernel
KERNEL_CASCADES = {0: (), 1: (4,), 3: (4, 3, 2)}

# near-term, daily and weekly input blocks, each with its own weights
STREAMS = 3


@dataclass(frozen=True)
class Topology:
    """Block arrangement plus LSTM and CNN depths."""

    kind: str
    lstm_depth: int
    cnn_depth: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown topology kind {self.kind!r}")
        allowed = {(1, 0), (2, 0)} if self.kind == LSTM_ONLY else {(1, 1), (2, 3)}
        if (self.lstm_depth, self.cnn_depth) not in allowed:
            raise ValueError(
                f"depths (lstm={self.lstm_depth}, cnn={self.cnn_depth}) "
                f"not available for kind {self.kind!r}"
            )

    @property
    def kernels(self) -> tuple[int, ...]:
        """Conv kernel widths in stack order; empty for the LSTM-only kind."""
        return KERNEL_CASCADES[self.cnn_depth]

    @property
    def concat_width_factor(self) -> int:
        """Station-axis width of one stream's output, in multiples of p."""
        return 2 if self.kind in (PARALLEL, SERIES_PARALLEL_D, SERIES_PARALLEL_E) else 1


ARCHITECTURES: dict[str, Topology] = {
    "LSTM1": Topology(LSTM_ONLY, 1, 0),
    "LSTM2": Topology(LSTM_ONLY, 2, 0),
    "LSTM1-S-CNN1": Topology(SERIES_LSTM_CNN, 1, 1),
    "LSTM2-S-CNN3": Topology(SERIES_LSTM_CNN, 2, 3),
    "CNN1-S-LSTM1": Topology(SERIES_CNN_LSTM, 1, 1),
    "CNN3-S-LSTM2": Topology(SERIES_CNN_LSTM, 2, 3),
    "LSTM1-P-CNN1": Topology(PARALLEL, 1, 1),
    "LSTM2-P-CNN3": Topology(PARALLEL, 2, 3),
    "LSTM1-SP-CNN1": Topology(SERIES_PARALLEL_D, 1, 1),
    "LSTM2-SP-CNN3": Topology(SERIES_PARALLEL_D, 2, 3),
    "CNN1-SP-LSTM1": Topology(SERIES_PARALLEL_E, 1, 1),
    "CNN3-SP-LSTM2": Topology(SERIES_PARALLEL_E, 2, 3),
}


@dataclass(frozen=True)
class ModelSpec:
    topology: Topology
    p: int
    n: int
    h: int

    def __post_init__(self) -> None:
        if min(self.p, self.n, self.h) < 1:
            raise ValueError(f"p, n, h must be positive: {(self.p, self.n, self.h)}")

    @property
    def head_in_width(self) -> int:
        return STREAMS * self.topology.concat_width_factor * self.p * self.n

    @property
    def head_out_width(self) -> int:
        return self.p * self.h


@dataclass
class StreamBlocks:
    """Parameters for one input stream: stacked LSTMs plus a conv cascade."""

    lstms: list[LstmParams]
    convs: list[ConvLayerParams]


@dataclass
class Model:
    """Blocks and head whose parameters' data and grad are views of two flat
    vectors, ``values`` and ``grads``, which the optimizer updates whole."""

    spec: ModelSpec
    blocks: list[StreamBlocks]
    head: DenseParams
    values: np.ndarray
    grads: np.ndarray


def blank(spec: ModelSpec) -> Model:
    """A model whose parameters are all zero, laid out stream by stream (LSTM,
    then conv layers), then the head, in one value vector."""
    p, depth = spec.p, spec.topology.lstm_depth
    kernels = spec.topology.kernels
    stream = [(4 * p, p), (4 * p, p), (4 * p,)] * depth
    stream += [shape for k in kernels for shape in ((1, 1, k), (1,))]
    head = [(spec.head_out_width, spec.head_in_width), (spec.head_out_width,)]
    values, grads, leaves = flat_leaves([np.zeros(s) for s in stream * STREAMS + head])
    take = iter(leaves).__next__
    blocks = [
        StreamBlocks(
            lstms=[LstmParams(take(), take(), take()) for _ in range(depth)],
            convs=[ConvLayerParams(take(), take()) for _ in kernels],
        )
        for _ in range(STREAMS)
    ]
    return Model(spec, blocks, DenseParams(take(), take()), values, grads)


def build(spec: ModelSpec, seed: int) -> Model:
    """Initialize a model deterministically from the seed: draws run in the
    value vector's order; biases start at zero except the LSTM forget gate's."""
    rng = np.random.default_rng(check_seed(seed))
    model = blank(spec)
    for blocks in model.blocks:
        for lstm in blocks.lstms:
            for leaf, value in zip((lstm.W, lstm.U, lstm.b), init_lstm_values(rng, spec.p)):
                leaf.data[...] = value
        for conv in blocks.convs:
            k = conv.kernel.data.size
            conv.kernel.data[...] = glorot_uniform(rng, (1, 1, k), k, k)
    out, width = model.head.W.data.shape
    model.head.W.data[...] = glorot_uniform(rng, (out, width), width, out)
    return model


def apply_topology(topology: Topology, blocks: StreamBlocks, x: Tensor) -> list[Tensor]:
    """Run one stream's blocks over a [p, n] or [p, n, batch] input; returns
    the stream's output parts in station-axis order, joined by the caller."""

    def lstm_chain(t: Tensor) -> Tensor:
        for params in blocks.lstms:
            t = lstm_layer(params, t)
        return t

    def conv_chain(t: Tensor) -> Tensor:
        return conv_stack(blocks.convs, t)

    kind = topology.kind
    if kind == LSTM_ONLY:
        return [lstm_chain(x)]
    if kind == SERIES_LSTM_CNN:
        return [conv_chain(lstm_chain(x))]
    if kind == SERIES_CNN_LSTM:
        return [lstm_chain(conv_chain(x))]
    if kind == PARALLEL:
        return [lstm_chain(x), conv_chain(x)]
    if kind == SERIES_PARALLEL_D:
        mid = lstm_chain(x)
        return [mid, conv_chain(mid)]
    mid = conv_chain(x)
    return [mid, lstm_chain(mid)]


def forward_batch(model: Model, s, s_d, s_w) -> Tensor:
    """Forecast a batch stacked on a trailing axis; returns [p, h, batch].

    Each stream is its [p, n, batch] input block, or a function that returns
    the stream's output parts computed elsewhere. Streams run in order, so
    such a function is called once the streams before it are computed.
    """
    spec = model.spec
    streams = [x if callable(x) or isinstance(x, Tensor) else Tensor(x) for x in (s, s_d, s_w)]
    inputs = [(index, x) for index, x in enumerate(streams) if not callable(x)]
    for index, x in inputs:
        if x.data.shape[:2] != (spec.p, spec.n):
            raise ValueError(
                f"stream {index} has shape {x.data.shape}, "
                f"expected leading dims ({spec.p}, {spec.n})"
            )
    shapes = [x.data.shape for _, x in inputs]
    if len(set(shapes)) > 1 or any(len(shape) != 3 for shape in shapes):
        raise ValueError(f"streams must share one [p, n, batch] shape, got {shapes}")
    parts = []
    for blocks, x in zip(model.blocks, streams):
        parts += x() if callable(x) else apply_topology(spec.topology, blocks, x)
    return head(model, parts)


def stream_slice(model: Model, stream: int) -> slice:
    """Where one stream's parameters lie in ``values`` and ``grads``: the
    vectors hold the streams' blocks in stream order, then the head."""
    size = (model.values.size - model.head.W.data.size - model.head.b.data.size) // STREAMS
    return slice(stream * size, (stream + 1) * size)


def head(model: Model, parts: list[Tensor]) -> Tensor:
    """Apply the dense head to every stream's output parts, which ``dense``
    joins in stream order (rows stream, station, step); returns the
    [p, h, batch] forecast."""
    spec = model.spec
    predictions = dense(model.head.W, model.head.b, parts)
    return reshape(predictions, (spec.p, spec.h, parts[0].data.shape[-1]))


def forward(model: Model, sample) -> Tensor:
    """Forecast one window sample as a batch of one; returns a [p, h] tensor."""
    blocks = (sample.s, sample.s_d, sample.s_w)
    out = forward_batch(model, *(np.asarray(block)[..., None] for block in blocks))
    return reshape(out, (model.spec.p, model.spec.h))


def named_parameters(model: Model) -> Iterator[tuple[str, Tensor]]:
    """Deterministically ordered (name, tensor) pairs, no duplicates."""
    for index, blocks in enumerate(model.blocks):
        prefix = f"stream{index}"
        for depth, lstm in enumerate(blocks.lstms):
            for name, tensor in lstm.named():
                yield f"{prefix}.lstm{depth}.{name}", tensor
        for depth, conv in enumerate(blocks.convs):
            for name, tensor in conv.named():
                yield f"{prefix}.conv{depth}.{name}", tensor
    for name, tensor in model.head.named():
        yield f"head.{name}", tensor
