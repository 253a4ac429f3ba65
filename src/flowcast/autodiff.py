"""Reverse-mode automatic differentiation over dense float64 arrays.

Every operation records its parents and a backward closure on the output
tensor. Node ids increase with creation order, so sorting a reachable set
by id gives a topological order for free: a backward pass seeds the loss
gradient and replays the closures in reverse creation order, visiting each
node exactly once and dropping its closure once it has run. Inside
``no_grad()`` ops record nothing, so inference builds no graph.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools

import numpy as np

_node_ids = itertools.count()

_recording = contextvars.ContextVar("flowcast_autodiff_recording", default=True)


@contextlib.contextmanager
def no_grad():
    """Within the block, op results keep no parents and no backward closure.

    Their values are unchanged; they just cannot be differentiated, and the
    intermediate arrays of a forward pass are freed as soon as it is done.
    """
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


class Tensor:
    """Dense float64 array participating in a computation graph.

    Leaf tensors wrap raw data; tensors produced by ops carry the parent
    references and backward closure needed for reverse-mode accumulation.
    ``backward`` drops each closure once it has run; the parents stay.
    A leaf from ``flat_leaves`` (every model parameter) has its ``grad`` view
    from the start, and backward and ``zero_grad`` write into it in place;
    any other tensor's ``grad`` stays ``None`` until backward touches it.
    """

    __slots__ = ("data", "grad", "requires_grad", "node_id", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        if not _recording.get():
            _parents, _backward = (), None
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self.node_id = next(_node_ids)
        self._parents = _parents
        self._backward = _backward

    def zero_grad(self):
        if self.grad is not None:
            self.grad.fill(0.0)

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add a gradient contribution, skipping constants the graph never needs."""
    if not t.requires_grad:
        return
    if g.shape != t.data.shape:
        raise ValueError(
            f"gradient contribution {g.shape} does not match tensor {t.data.shape}"
        )
    if t.grad is None:
        # A copy, never g itself: reshape hands on a view of its output's grad.
        t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def flat_leaves(arrays) -> tuple[np.ndarray, np.ndarray, list[Tensor]]:
    """Copy the arrays, in order, into one flat float64 vector; return it, a
    zero gradient vector of the same length and one trainable leaf per array
    whose ``data`` and ``grad`` are views of the two."""
    values = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
    grads = np.zeros_like(values)
    cuts = np.cumsum([np.size(a) for a in arrays])[:-1]
    leaves = []
    for a, data, grad in zip(arrays, np.split(values, cuts), np.split(grads, cuts)):
        leaves.append(Tensor(data.reshape(np.shape(a)), requires_grad=True))
        leaves[-1].grad = grad.reshape(np.shape(a))
    return values, grads, leaves


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tensor the scalar ``loss`` depends on.

    Gradients accumulate into existing ``grad`` buffers, so callers zero
    parameter gradients between passes. The pass consumes the graph: each
    node's closure, with the arrays it saved for backward, is dropped as
    soon as it has run. Parents and ``grad`` stay, so a caller holding an
    intermediate tensor still reads its gradient, but a second backward
    through any consumed node raises ``ValueError`` before adding anything.
    """
    if loss.data.ndim != 0:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    seen = set()
    stack = [loss]
    nodes = []
    while stack:
        t = stack.pop()
        if t.node_id in seen or not t.requires_grad:
            continue
        if t._parents and t._backward is None:
            raise ValueError("backward: the graph was consumed by an earlier backward")
        seen.add(t.node_id)
        nodes.append(t)
        stack.extend(t._parents)
    nodes.sort(key=lambda t: t.node_id, reverse=True)
    _accumulate(loss, np.ones_like(loss.data))
    if not loss.requires_grad:
        return
    for t in nodes:
        if t._backward is not None:
            t._backward(t.grad)
            t._backward = None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: incompatible shapes: {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data

    def bwd(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return Tensor(out, _parents=(a, b), _backward=bwd)


def mul(a, b) -> Tensor:
    """Element-wise product (the usual Hadamard product on equal shapes)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul: shapes differ: {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        _accumulate(a, b.data * g)
        _accumulate(b, a.data * g)

    return Tensor(a.data * b.data, _parents=(a, b), _backward=bwd)


def reshape(x, shape) -> Tensor:
    """A read-only view of x in a new shape (a copy where no view fits)."""
    x = _as_tensor(x)
    shape = tuple(shape)

    def bwd(g):
        _accumulate(x, g.reshape(x.data.shape))

    out = x.data.reshape(shape)
    out.flags.writeable = False
    return Tensor(out, _parents=(x,), _backward=bwd)


def tensor_sum(x) -> Tensor:
    x = _as_tensor(x)

    def bwd(g):
        _accumulate(x, np.broadcast_to(g, x.data.shape).copy())

    return Tensor(x.data.sum(), _parents=(x,), _backward=bwd)

