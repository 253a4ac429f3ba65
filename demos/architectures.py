#!/usr/bin/env python3
"""Walk the twelve named architectures: wiring, size, and output shape.

Each name encodes the wiring (S series, P parallel, SP series-parallel) and
the block depths. All of them map three [p, n] input blocks to a [p, h]
forecast; only the path between input and the dense head differs.
"""

import numpy as np

from flowcast import ARCHITECTURES, ModelSpec, build
from flowcast.hybrid import forward


class Blocks:
    def __init__(self, rng, p, n):
        self.s = rng.normal(size=(p, n))
        self.s_d = rng.normal(size=(p, n))
        self.s_w = rng.normal(size=(p, n))


rng = np.random.default_rng(0)
p, n, h = 8, 21, 9
sample = Blocks(rng, p, n)

print(f"{'name':<16} {'kind':<18} {'lstm':>4} {'cnn':>4} {'params':>8}  output")
for name, topo in ARCHITECTURES.items():
    model = build(ModelSpec(topology=topo, p=p, n=n, h=h), seed=1)
    out = forward(model, sample)
    print(
        f"{name:<16} {topo.kind:<18} {topo.lstm_depth:>4} {topo.cnn_depth:>4} "
        f"{model.values.size:>8}  {out.data.shape}"
    )

print(f"\nall twelve forecast {p} stations x {h} steps = 45 minutes ahead.")
