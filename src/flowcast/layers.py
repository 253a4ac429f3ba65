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

from .autodiff import Tensor, _accumulate, flat_leaves

GATES = ("f", "i", "c", "o")

# Row blocks of the packed [4p, p] weights: the three sigmoid gates first, so
# one in-place logistic covers rows [0, 3p) and one tanh call the candidate rows.
_PACKED_ORDER = ("f", "i", "o", "c")


def _rows(gate: str, size: int) -> slice:
    """The packed rows of one gate."""
    k = _PACKED_ORDER.index(gate)
    return slice(k * size, (k + 1) * size)


@dataclass
class LstmParams:
    """One LSTM layer's packed weights W, U [4p, p] and bias b [4p].

    Hidden size equals input size p. The per-gate tensors ``W_f`` ... ``b_o``
    are views of their packed rows, data and grad alike, so an in-place write
    to one of them is a write to the layer.
    """

    W: Tensor
    U: Tensor
    b: Tensor

    def __post_init__(self) -> None:
        size = self.W.data.shape[-1]
        for kind in ("W", "U", "b"):
            packed = getattr(self, kind)
            expect = (4 * size,) if kind == "b" else (4 * size, size)
            if packed.data.shape != expect or packed.grad is None:
                raise ValueError(
                    f"{kind} must be a {expect} leaf with a gradient buffer, "
                    f"got shape {packed.data.shape}"
                )
            for gate in GATES:
                view = Tensor(packed.data[_rows(gate, size)], requires_grad=True)
                view.grad = packed.grad[_rows(gate, size)]
                setattr(self, f"{kind}_{gate}", view)

    def named(self) -> Iterator[tuple[str, Tensor]]:
        for gate in GATES:
            for kind in ("W", "U", "b"):
                name = f"{kind}_{gate}"
                yield name, getattr(self, name)


@dataclass
class ConvLayerParams:
    """One one-channel conv layer: kernel [1, 1, k] and bias [1]."""

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


@dataclass
class _Trace:
    """Forward activations kept for backpropagation through time.

    ``gates`` [n, 4p, batch] is the input projection, activated in place:
    ``gates[t]`` holds the f, i, o, z rows of step t. ``h`` [p, n + 1, batch]
    holds the hidden states with column 0 the zero initial state, so
    ``h[:, 1:]`` is the layer output. ``c`` [n + 1, p, batch] holds the cell
    entering each step (``c[n]`` is the final cell) and ``tanh_c`` [n, p,
    batch] the tanh of the cell leaving it.
    """

    gates: np.ndarray
    h: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray


def _lstm_forward(W, U, b, seq) -> _Trace:
    """Run the cell over seq [p, n, batch] from the all-zero state."""
    p, n, width = seq.shape
    sig = 3 * p
    gates = W @ seq.transpose(1, 0, 2)
    gates += b[:, None]
    h = np.empty((p, n + 1, width))
    c = np.empty((n + 1, p, width))
    tanh_c = np.empty((n, p, width))
    h[:, 0], c[0] = 0.0, 0.0
    # The logistic is 1 / (1 + exp(-a)); below about -709 the exp overflows
    # to inf, and 1 / inf is the correct 0.
    with np.errstate(over="ignore"):
        for t in range(n):
            a = gates[t]
            a += U @ h[:, t]
            s = a[:sig]
            np.negative(s, out=s)
            np.exp(s, out=s)
            s += 1.0
            np.reciprocal(s, out=s)
            np.tanh(a[sig:], out=a[sig:])
            f, i, o, z = a[:p], a[p : 2 * p], a[2 * p : sig], a[sig:]
            np.multiply(f, c[t], out=c[t + 1])
            np.multiply(i, z, out=tanh_c[t])
            c[t + 1] += tanh_c[t]
            np.tanh(c[t + 1], out=tanh_c[t])
            np.multiply(o, tanh_c[t], out=h[:, t + 1])
    return _Trace(gates, h, c, tanh_c)


def _lstm_backward(U, seq, trace: _Trace, dh_out):
    """Backpropagation through time for one ``_lstm_forward`` call.

    ``dh_out`` [n, p, batch] is the gradient into each step's hidden output.
    Returns the packed dW, dU, db and the gate gradients d_pre [4p, n * batch],
    from which ``W.T @ d_pre`` gives the input gradient.
    """
    n, rows, width = trace.gates.shape
    p = rows // 4
    sig = 3 * p
    d_pre = np.empty((rows, n, width))
    dh = np.zeros((p, width))
    dc = np.zeros((p, width))
    # The gate gradients of one step: contiguous, because a strided right
    # operand can change the bits of the dh product when batch is 1.
    g = np.empty((rows, width))
    for t in reversed(range(n)):
        a = trace.gates[t]
        f, i, o, z = a[:p], a[p : 2 * p], a[2 * p : sig], a[sig:]
        tc = trace.tanh_c[t]
        dh = dh + dh_out[t]
        dc = dc + dh * o * (1.0 - tc * tc)
        g[:p] = dc * trace.c[t] * f * (1.0 - f)
        g[p : 2 * p] = dc * z * i * (1.0 - i)
        g[2 * p : sig] = dh * tc * o * (1.0 - o)
        g[sig:] = dc * i * (1.0 - z * z)
        dc = dc * f
        d_pre[:, t] = g
        dh = U.T @ g
    d_pre = d_pre.reshape(rows, n * width)
    dW = d_pre @ seq.reshape(p, n * width).T
    dU = d_pre @ trace.h[:, :-1].reshape(p, n * width).T
    db = d_pre.sum(axis=1)
    return dW, dU, db, d_pre


def lstm_layer(params: LstmParams, seq: Tensor) -> Tensor:
    """Run the cell over columns oldest to newest; column t of the output is h_t.

    seq is [p, n] or [p, n, batch]; the output shape matches the input. The
    whole layer is one tape node whose backward closure runs BPTT, and
    computes the input gradient only when ``seq`` needs one. The output is a
    read-only view of the hidden states that BPTT reads.
    """
    shape = seq.data.shape
    if seq.data.ndim not in (2, 3):
        raise ValueError(f"lstm_layer input must be 2-D or 3-D, got {shape}")
    p, n = shape[0], shape[1]
    if n == 0:
        raise ValueError("lstm_layer needs at least one time column")
    width = 1 if seq.data.ndim == 2 else shape[2]
    x = seq.data.reshape(p, n, width)
    W, U = params.W.data, params.U.data
    trace = _lstm_forward(W, U, params.b.data, x)

    def bwd(g):
        dh_out = g.reshape(p, n, width).transpose(1, 0, 2)
        dW, dU, db, d_pre = _lstm_backward(U, x, trace, dh_out)
        _accumulate(params.W, dW)
        _accumulate(params.U, dU)
        _accumulate(params.b, db)
        if seq.requires_grad:
            _accumulate(seq, (W.T @ d_pre).reshape(shape))

    out = trace.h[:, 1:].reshape(shape)
    out.flags.writeable = False
    return Tensor(out, _parents=(seq, params.W, params.U, params.b), _backward=bwd)


def conv_stack(params: list[ConvLayerParams], seq: Tensor) -> Tensor:
    """Convolve each time column along the station axis, ReLU after each layer.

    seq is [p], [p, n] or [p, n, batch]; the output shape matches the input.
    Each layer is a same-length one-channel cross-correlation with kernel
    [1, 1, k] and bias [1], no kernel flip, zero-padded as left = (k-1)//2,
    right = k-1-left. Kernels are shared across time columns (and the batch
    axis, if present); the ReLU's subgradient at 0 is 0. The whole cascade
    is one tape node whose backward closure walks the layers in reverse, down
    to the input's gradient only when ``seq`` needs one.
    """
    shape = seq.data.shape
    for layer in params:
        if layer.kernel.data.ndim != 3 or layer.kernel.data.shape[:2] != (1, 1):
            raise ValueError(
                f"conv kernel must be [1, 1, k], got {layer.kernel.data.shape}"
            )
        if layer.bias.data.shape != (1,):
            raise ValueError(f"conv bias must be [1], got {layer.bias.data.shape}")
    p = shape[0]
    widest = max(layer.kernel.data.shape[-1] for layer in params)
    if p < widest:
        raise ValueError(f"station axis length {p} is shorter than kernel {widest}")
    # Each layer's padding offset, zero-padded input and ReLU mask, for backward.
    saved = []
    x = seq.data
    for layer in params:
        w = layer.kernel.data[0, 0]
        k = w.shape[0]
        left = (k - 1) // 2
        padded = np.zeros((p + k - 1,) + shape[1:])
        padded[left : left + p] = x
        out = np.full(shape, layer.bias.data[0])
        for j in range(k):
            out += w[j] * padded[j : j + p]
        keep = out > 0.0
        x = np.where(keep, out, 0.0)
        saved.append((left, padded, keep))

    def bwd(g):
        for layer, (left, padded, keep) in zip(reversed(params), reversed(saved)):
            g = np.where(keep, g, 0.0)
            w = layer.kernel.data[0, 0]
            kg = np.empty(w.shape[0])
            for j in range(w.shape[0]):
                kg[j] = (g * padded[j : j + p]).sum()
            _accumulate(layer.kernel, kg.reshape(1, 1, -1))
            _accumulate(layer.bias, np.array([g.sum()]))
            if layer is params[0] and not seq.requires_grad:
                return
            pg = np.zeros_like(padded)
            for j in range(w.shape[0]):
                pg[j : j + p] += w[j] * g
            g = pg[left : left + p]
        _accumulate(seq, g)

    parents = (seq,) + tuple(t for layer in params for _, t in layer.named())
    return Tensor(x, _parents=parents, _backward=bwd)


def dense(weights: Tensor, bias: Tensor, parts: list[Tensor]) -> Tensor:
    """Affine regression head, no activation: joins the parts along their
    leading axis, reads the result as columns x [in, batch] and returns
    ``weights @ x + bias`` [out, batch].

    One tape node: its closure adds ``g @ x.T`` into the weights, the row sums
    of ``g`` into the bias and each part's rows of ``weights.T @ g`` into that
    part.
    """
    x = np.concatenate([t.data for t in parts])
    batch = x.shape[-1]
    shape = weights.data.shape
    if len(shape) != 2 or bias.data.shape != shape[:1] or x.size != shape[1] * batch:
        raise ValueError(
            f"dense: weights {shape} and bias {bias.data.shape} "
            f"do not fit the joined rows {x.shape}"
        )
    x = x.reshape(shape[1], batch)
    out = weights.data @ x
    out += bias.data[:, None]

    def bwd(g):
        _accumulate(weights, g @ x.T)
        _accumulate(bias, g.sum(axis=1))
        dx = (weights.data.T @ g).reshape(-1, *parts[0].data.shape[1:])
        cuts = np.cumsum([t.data.shape[0] for t in parts])[:-1]
        for t, rows in zip(parts, np.split(dx, cuts)):
            _accumulate(t, rows)

    return Tensor(out, _parents=(weights, bias, *parts), _backward=bwd)


def glorot_uniform(
    rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int
) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_lstm_values(rng: np.random.Generator, size: int) -> list[np.ndarray]:
    """Packed W, U and b of a new layer.

    Glorot weights are drawn gate by gate (f, i, c, o; W before U); biases are
    zero except the forget gate's, which start at 1.
    """
    W, U = np.empty((2, 4 * size, size))
    b = np.zeros(4 * size)
    for gate in GATES:
        W[_rows(gate, size)] = glorot_uniform(rng, (size, size), size, size)
        U[_rows(gate, size)] = glorot_uniform(rng, (size, size), size, size)
    b[_rows("f", size)] = 1.0
    return [W, U, b]


def init_lstm(rng: np.random.Generator, size: int) -> LstmParams:
    """A new layer over a buffer of its own."""
    return LstmParams(*flat_leaves(init_lstm_values(rng, size))[2])
