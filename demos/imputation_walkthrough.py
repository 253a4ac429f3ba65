#!/usr/bin/env python3
"""How the three fill methods treat the same hole, and how injection nests.

All methods work per (station, timestamp-of-day): a missing 08:15 reading is
reconstructed from other days' 08:15 readings, never from 08:10. The second
half shows that injection with one seed at growing ratios removes nested
supersets of cells, which keeps robustness curves comparable point to point.
"""

import datetime as dt

import numpy as np

from flowcast import FlowDataset, inject_missing
from flowcast.imputation import METHODS, fit, impute

rng = np.random.default_rng(8)
p, days, ppd = 3, 10, 24
flows = np.abs(rng.normal(loc=50.0, scale=10.0, size=(p, days * ppd)))
mask = np.ones_like(flows, dtype=bool)

# Knock out station 0 at hour 7 on three of the ten days.
for day in (2, 5, 6):
    mask[0, day * ppd + 7] = False
flows[~mask] = np.nan

ds = FlowDataset(
    flows=flows,
    mask=mask,
    station_ids=("a", "b", "c"),
    start_date=dt.date(2019, 4, 1),
    points_per_day=ppd,
)

observed = [flows[0, d * ppd + 7] for d in range(days) if mask[0, d * ppd + 7]]
print("station a, hour 7, observed on seven days:")
print("  " + "  ".join(f"{v:.2f}" for v in observed))
print("\nfill value for the day-2 hole under each method:")
for method in METHODS:
    filled = impute(fit(method, ds), ds)
    print(f"  {method:<7} {filled.flows[0, 2 * ppd + 7]:.4f}")
print(f"  (observed mean {np.mean(observed):.4f}, median {np.median(observed):.4f})")

print("\ninjection nests across ratios for a fixed seed:")
complete = FlowDataset(
    flows=np.abs(rng.normal(size=(4, 20 * ppd))) + 1.0,
    mask=np.ones((4, 20 * ppd), dtype=bool),
    station_ids=("a", "b", "c", "d"),
    start_date=dt.date(2019, 4, 1),
    points_per_day=ppd,
)
previous: set = set()
for ratio in (0.05, 0.10, 0.20):
    injected = inject_missing(complete, ratio, seed=0)
    cells = set(zip(*np.nonzero(complete.mask & ~injected.mask)))
    nested = previous <= cells
    print(
        f"  ratio {ratio:.2f}: {len(cells):>4} cells removed, "
        f"contains the previous set: {nested}"
    )
    previous = cells
