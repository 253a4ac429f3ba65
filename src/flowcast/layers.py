"""Neural building blocks: LSTM layers, station-axis conv stacks, dense heads.

Every block maps a station-by-time array to another array of the same shape,
so blocks compose freely in series or in parallel.  Inputs may carry an extra
trailing batch axis; all blocks treat it uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.special import expit

from .autodiff import (
    Tensor,
    _accumulate,
    add_bias,
    conv1d_same,
    matmul,
    relu,
    reshape,
)

GATES = ("f", "i", "c", "o")


@dataclass
class LstmParams:
    """Gate parameters for one LSTM layer; hidden size equals input size."""

    W_f: Tensor
    U_f: Tensor
    b_f: Tensor
    W_i: Tensor
    U_i: Tensor
    b_i: Tensor
    W_c: Tensor
    U_c: Tensor
    b_c: Tensor
    W_o: Tensor
    U_o: Tensor
    b_o: Tensor

    def __post_init__(self) -> None:
        size = self.size
        for name, tensor in self.named():
            expect = (size,) if name.startswith("b") else (size, size)
            if tensor.data.shape != expect:
                raise ValueError(
                    f"{name} has shape {tensor.data.shape}, expected {expect}"
                )

    @property
    def size(self) -> int:
        return self.W_f.data.shape[0]

    def named(self) -> Iterator[tuple[str, Tensor]]:
        for gate in GATES:
            for kind in ("W", "U", "b"):
                name = f"{kind}_{gate}"
                yield name, getattr(self, name)


@dataclass(frozen=True)
class ConvStackSpec:
    """Ordered 1D kernel sizes; ReLU follows every conv layer."""

    kernel_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.kernel_sizes:
            raise ValueError("conv stack needs at least one kernel size")
        if any(k < 1 for k in self.kernel_sizes):
            raise ValueError(f"kernel sizes must be positive: {self.kernel_sizes}")


@dataclass
class ConvLayerParams:
    """One conv layer: kernels [out_ch, in_ch, k] and per-channel bias."""

    kernel: Tensor
    bias: Tensor

    def named(self) -> Iterator[tuple[str, Tensor]]:
        yield "kernel", self.kernel
        yield "bias", self.bias


@dataclass
class DenseParams:
    """Affine map weights [out, in] and bias [out]."""

    W: Tensor
    b: Tensor

    def named(self) -> Iterator[tuple[str, Tensor]]:
        yield "W", self.W
        yield "b", self.b


# Row blocks of the packed [4p, p] weights: the three sigmoid gates first, so
# one expit call covers rows [0, 3p) and one tanh call the candidate rows.
_PACKED_ORDER = ("f", "i", "o", "c")


def _packed(params: LstmParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack the named gate tensors into W, U [4p, p] and b [4p].

    Built on every call, never cached: callers perturb or rebind ``.data``
    between forward passes (gradient checks, best-epoch restore).
    """
    return tuple(
        np.concatenate([getattr(params, f"{kind}_{gate}").data for gate in _PACKED_ORDER])
        for kind in ("W", "U", "b")
    )


@dataclass
class _Trace:
    """Forward activations kept for backpropagation through time.

    Time is the leading axis: ``gates[t]`` holds the activated f, i, o, z
    rows of step t, ``h[t]``/``c[t]`` the state entering step t (so index n
    is the final state) and ``tanh_c[t]`` the tanh of the cell leaving it.
    """

    gates: np.ndarray
    h: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray


def _lstm_forward(W, U, b, seq) -> _Trace:
    """Run the cell over seq [p, n, batch] from the all-zero state."""
    p, n, width = seq.shape
    sig = 3 * p
    projected = W @ seq.transpose(1, 0, 2)
    projected += b[:, None]
    gates = np.empty((n, 4 * p, width))
    h = np.empty((n + 1, p, width))
    c = np.empty((n + 1, p, width))
    tanh_c = np.empty((n, p, width))
    h[0], c[0] = 0.0, 0.0
    for t in range(n):
        a = gates[t]
        np.add(projected[t], U @ h[t], out=a)
        expit(a[:sig], out=a[:sig])
        np.tanh(a[sig:], out=a[sig:])
        f, i, o, z = a[:p], a[p : 2 * p], a[2 * p : sig], a[sig:]
        np.add(f * c[t], i * z, out=c[t + 1])
        np.tanh(c[t + 1], out=tanh_c[t])
        np.multiply(o, tanh_c[t], out=h[t + 1])
    return _Trace(gates, h, c, tanh_c)


def _lstm_backward(W, U, seq, trace: _Trace, dh_out):
    """Backpropagation through time for one ``_lstm_forward`` call.

    ``dh_out`` [n, p, batch] is the gradient into each step's hidden output.
    Returns the packed dW, dU, db and the input gradient [p, n, batch].
    """
    n, rows, width = trace.gates.shape
    p = rows // 4
    sig = 3 * p
    d_pre = np.empty_like(trace.gates)
    dh = np.zeros((p, width))
    dc = np.zeros((p, width))
    for t in reversed(range(n)):
        a = trace.gates[t]
        f, i, o, z = a[:p], a[p : 2 * p], a[2 * p : sig], a[sig:]
        tc = trace.tanh_c[t]
        dh = dh + dh_out[t]
        dc = dc + dh * o * (1.0 - tc * tc)
        g = d_pre[t]
        g[:p] = dc * trace.c[t] * f * (1.0 - f)
        g[p : 2 * p] = dc * z * i * (1.0 - i)
        g[2 * p : sig] = dh * tc * o * (1.0 - o)
        g[sig:] = dc * i * (1.0 - z * z)
        dc = dc * f
        dh = U.T @ g
    d_pre = d_pre.transpose(1, 0, 2).reshape(rows, n * width)
    h_prev = trace.h[:-1].transpose(1, 0, 2).reshape(p, n * width)
    dW = d_pre @ seq.reshape(p, n * width).T
    dU = d_pre @ h_prev.T
    db = d_pre.sum(axis=1)
    dseq = (W.T @ d_pre).reshape(p, n, width)
    return dW, dU, db, dseq


def lstm_layer(params: LstmParams, seq: Tensor) -> Tensor:
    """Run the cell over columns oldest to newest; column t of the output is h_t.

    seq is [p, n] or [p, n, batch]; the output shape matches the input. The
    whole layer is one tape node whose backward closure runs BPTT.
    """
    shape = seq.data.shape
    if seq.data.ndim not in (2, 3):
        raise ValueError(f"lstm_layer input must be 2-D or 3-D, got {shape}")
    p, n = shape[0], shape[1]
    if n == 0:
        raise ValueError("lstm_layer needs at least one time column")
    width = 1 if seq.data.ndim == 2 else shape[2]
    x = seq.data.reshape(p, n, width)
    W, U, b = _packed(params)
    trace = _lstm_forward(W, U, b, x)

    def bwd(g):
        dh_out = g.reshape(p, n, width).transpose(1, 0, 2)
        dW, dU, db, dseq = _lstm_backward(W, U, x, trace, dh_out)
        for k, gate in enumerate(_PACKED_ORDER):
            rows = slice(k * p, (k + 1) * p)
            _accumulate(getattr(params, f"W_{gate}"), dW[rows])
            _accumulate(getattr(params, f"U_{gate}"), dU[rows])
            _accumulate(getattr(params, f"b_{gate}"), db[rows])
        _accumulate(seq, dseq.reshape(shape))

    return Tensor(
        np.ascontiguousarray(trace.h[1:].transpose(1, 0, 2)).reshape(shape),
        _parents=(seq, *(tensor for _, tensor in params.named())),
        _backward=bwd,
    )


def conv_stack(spec: ConvStackSpec, params: list[ConvLayerParams], seq: Tensor) -> Tensor:
    """Convolve each time column along the station axis, ReLU after each layer.

    Kernels are shared across time columns (and the batch axis, if present).
    """
    if len(params) != len(spec.kernel_sizes):
        raise ValueError(
            f"{len(params)} parameter sets for {len(spec.kernel_sizes)} kernel sizes"
        )
    shape = seq.data.shape
    p = shape[0]
    widest = max(spec.kernel_sizes)
    if p < widest:
        raise ValueError(f"station axis length {p} is shorter than kernel {widest}")
    x = reshape(seq, (1,) + shape)
    for layer, k in zip(params, spec.kernel_sizes):
        if layer.kernel.data.shape[2] != k:
            raise ValueError(
                f"kernel width {layer.kernel.data.shape[2]} does not match spec {k}"
            )
        x = relu(conv1d_same(x, layer.kernel, layer.bias))
    if x.data.shape[0] != 1:
        raise ValueError("conv stack must end with a single channel")
    return reshape(x, shape)


def dense(weights: Tensor, bias: Tensor, x: Tensor) -> Tensor:
    """Affine regression head, no activation."""
    if x.data.ndim == 1:
        out = add_bias(matmul(weights, reshape(x, (x.data.shape[0], 1))), bias)
        return reshape(out, (weights.data.shape[0],))
    return add_bias(matmul(weights, x), bias)


def glorot_uniform(
    rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int
) -> Tensor:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def init_lstm(rng: np.random.Generator, size: int) -> LstmParams:
    """Glorot weights; zero biases except the forget gate, which starts at 1."""
    fields = {}
    for gate in GATES:
        fields[f"W_{gate}"] = glorot_uniform(rng, (size, size), size, size)
        fields[f"U_{gate}"] = glorot_uniform(rng, (size, size), size, size)
        start = np.ones(size) if gate == "f" else np.zeros(size)
        fields[f"b_{gate}"] = Tensor(start, requires_grad=True)
    return LstmParams(**fields)


def init_conv_stack(
    rng: np.random.Generator, spec: ConvStackSpec
) -> list[ConvLayerParams]:
    layers = []
    for k in spec.kernel_sizes:
        layers.append(
            ConvLayerParams(
                kernel=glorot_uniform(rng, (1, 1, k), k, k),
                bias=Tensor(np.zeros(1), requires_grad=True),
            )
        )
    return layers


def init_dense(rng: np.random.Generator, out_size: int, in_size: int) -> DenseParams:
    return DenseParams(
        W=glorot_uniform(rng, (out_size, in_size), in_size, out_size),
        b=Tensor(np.zeros(out_size), requires_grad=True),
    )
