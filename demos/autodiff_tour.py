#!/usr/bin/env python3
"""A short tour of the reverse-mode engine underneath everything else.

Builds a tiny expression, runs backward, and cross-checks one gradient
against a central finite difference. No layers involved: just tensors.
"""

import numpy as np

from flowcast.autodiff import Tensor, backward, matmul, mul, tensor_sum


def squared_sum(W, x):
    """sum((W @ x) ** 2); a scalar, so backward needs no seed gradient."""
    y = matmul(W, x)
    return tensor_sum(mul(y, y))


rng = np.random.default_rng(3)
W = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
x = Tensor(rng.normal(size=(4, 2)))

loss = squared_sum(W, x)
backward(loss)
print(f"loss value        : {loss.item():.6f}")
print(f"dloss/dW          :\n{W.grad.round(4)}")

# central difference on one entry of W as an independent check
step = 1e-6
orig = W.data[1, 2]
W.data[1, 2] = orig + step
up = squared_sum(W, x).item()
W.data[1, 2] = orig - step
down = squared_sum(W, x).item()
W.data[1, 2] = orig
numeric = (up - down) / (2 * step)

print(f"\nanalytic dW[1,2]  : {W.grad[1, 2]:.10f}")
print(f"numeric  dW[1,2]  : {numeric:.10f}")
print(f"difference        : {abs(W.grad[1, 2] - numeric):.2e}")
