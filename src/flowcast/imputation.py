"""Missing-value imputation and controlled missing-value injection.

All three techniques work per station and per timestamp-of-day: statistics
are gathered across training dates at a fixed position inside the day, so a
filled 8:15 cell reflects other 8:15 readings rather than adjacent minutes.
``fit`` then ``fill`` is the one fill step the pipeline runs; ``impute`` is
``fill`` wrapped in a table, kept for library callers.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .dataset import FlowDataset, check_day_range
from .errors import DataError, check_seed

MEAN = "mean"
MEDIAN = "median"
INTERP = "interp"
METHODS = (MEAN, MEDIAN, INTERP)
MAX_RATIO = 0.5  # the largest share of cells an injection removes


def check_method(method: str) -> None:
    if method not in METHODS:
        raise DataError(f"unknown imputation method {method!r}, expected {METHODS}")


def check_ratio(ratio: float) -> float:
    if not 0.0 <= ratio <= MAX_RATIO:
        raise DataError(f"injection ratio {ratio} outside [0, {MAX_RATIO}]")
    return ratio


@dataclass(frozen=True)
class ImputationModel:
    """Fitted per-(station, timestamp-of-day) fill rules.

    ``table`` holds the fill statistic for the mean and median methods. For
    interpolation it holds the per-station fallback used when a slot has no
    training observations; the training values and mask live in
    ``train_flows``/``train_mask`` as [station, day, timestamp-of-day] views
    of the fitted table, with days counted from ``origin``.
    """

    method: str
    table: np.ndarray
    station_ids: tuple[str, ...]
    points_per_day: int
    origin: dt.date
    train_flows: np.ndarray | None = None
    train_mask: np.ndarray | None = None


# Bytes of one gather of slot rows: a block of slots is gathered and reduced
# at a time, so a fit's peak does not grow with the table.
_GATHER_BYTES = 2**18


def _median(rows: np.ndarray) -> np.ndarray:
    """np.median over the last axis, taken by a sort rather than a partition
    (several times faster on a block of slot rows): the mean of the middle one
    or two values, as np.median takes it, with the same bytes, tied zeros of
    either sign included."""
    k = rows.shape[-1]
    return np.mean(np.sort(rows, axis=-1)[..., (k - 1) // 2 : k // 2 + 1], axis=-1)


def fit(
    method: str, train: FlowDataset, days: tuple[int, int] | None = None
) -> ImputationModel:
    """Fit fill rules on a day range of a table (by default all of it).

    The range is read in place as a [station, day, timestamp-of-day] view;
    an interp model keeps views of the caller's table, not copies. A
    (station, timestamp-of-day) slot's statistic reduces that slot's
    observed training values in day order. Slots with the same number k of
    observed days are reduced together, a bounded block of [slots, k] rows
    at a time, row by row, which agrees bit-for-bit with reducing each slot
    on its own.
    """
    check_method(method)
    days = (0, train.num_days) if days is None else days
    start, stop = check_day_range(days, train.num_days)
    p = train.num_stations
    ppd = train.points_per_day
    span = stop - start
    cube = train.flows[:, start * ppd : stop * ppd].reshape(p, span, ppd)
    observed = train.mask[:, start * ppd : stop * ppd].reshape(p, span, ppd)
    reduce = _median if method == MEDIAN else partial(np.mean, axis=-1)
    counts = observed.sum(axis=1)
    table = np.empty((p, ppd))
    # A station's fallback, its statistic over all its observed training
    # entries, fills the slots no training day observed; an interp model's
    # table is all fallback.
    for s in np.flatnonzero((counts == 0).any(axis=1) | (method == INTERP)):
        values = cube[s][observed[s]]
        if values.size == 0:
            raise DataError(
                f"station {train.station_ids[s]} has no observed training values"
            )
        table[s] = reduce(values)
    if method != INTERP:
        step = max(1, _GATHER_BYTES // cube.itemsize // span)
        for k in np.unique(counts[counts > 0]):
            slots = np.nonzero(counts == k)
            for lo in range(0, slots[0].size, step):
                stations, taus = (index[lo : lo + step] for index in slots)
                rows = cube[stations, :, taus]
                if k < span:
                    rows = rows[observed[stations, :, taus]].reshape(stations.size, k)
                table[stations, taus] = reduce(rows)
    keep = method == INTERP
    return ImputationModel(
        method=method,
        table=table,
        station_ids=train.station_ids,
        points_per_day=ppd,
        origin=train.start_date + dt.timedelta(days=start),
        train_flows=cube if keep else None,
        train_mask=observed if keep else None,
    )


def _interpolate(model: ImputationModel, ds: FlowDataset, holes) -> np.ndarray:
    """np.interp over each hole's slot, evaluated for all holes at once.

    Outside the slot's observed training days the first or last observed
    value is used, an observed day takes its own value, and in between the
    value is ``(f1 - f0) / (x1 - x0) * (x - x0) + f0``, np.interp's formula,
    so results match it bit-for-bit. Slots never observed take the fallback.

    Day indices take the smallest signed type that holds -1 to ``days`` (one
    byte up to 127 training days, then two) and are scanned in place.
    """
    values, observed = model.train_flows, model.train_mask
    days = values.shape[1]
    day = np.arange(days, dtype=np.min_scalar_type(-days - 1))[:, None]
    # Last observed day at or before each day (-1 if none) and first observed
    # day at or after it (``days`` if none), per slot.
    before = np.where(observed, day, -1)
    np.maximum.accumulate(before, axis=1, out=before)
    after = np.where(observed, day, days)
    np.minimum.accumulate(after[:, ::-1], axis=1, out=after[:, ::-1])
    stations, columns = holes
    taus = columns % ds.points_per_day
    fill = model.table[stations, taus]
    seen = np.nonzero(before[stations, -1, taus] >= 0)[0]
    s, tau = stations[seen], taus[seen]
    x = columns[seen] // ds.points_per_day + (ds.start_date - model.origin).days
    x = np.clip(x, after[s, 0, tau], before[s, -1, tau])
    x0, x1 = before[s, x, tau], after[s, x, tau]
    value = values[s, x0, tau]
    inside = np.nonzero(x0 != x1)[0]
    f0 = value[inside]
    f1 = values[s[inside], x1[inside], tau[inside]]
    x0, x1, x = x0[inside], x1[inside], x[inside]
    value[inside] = (f1 - f0) / (x1 - x0) * (x - x0) + f0
    fill[seen] = value
    return fill


def fill(model: ImputationModel, ds: FlowDataset) -> np.ndarray:
    """The table's flows with every masked cell filled, as a new writable
    array; observed cells keep their values."""
    if ds.station_ids != model.station_ids:
        raise DataError(
            f"dataset stations {ds.station_ids} do not match model "
            f"{model.station_ids}"
        )
    if ds.points_per_day != model.points_per_day:
        raise DataError("points-per-day mismatch between dataset and model")
    filled = ds.flows.copy()
    if model.method in (MEAN, MEDIAN):
        shape = (ds.num_stations, ds.num_days, ds.points_per_day)
        np.copyto(
            filled.reshape(shape),
            model.table[:, None, :],
            where=~ds.mask.reshape(shape),
        )
    elif not ds.mask.all():
        holes = np.nonzero(~ds.mask)
        filled[holes] = _interpolate(model, ds, holes)
    return filled


def impute(model: ImputationModel, ds: FlowDataset) -> FlowDataset:
    """``fill`` wrapped in a table, for library callers: every masked cell
    filled, observed cells untouched, and a table with no masked cell
    returned as it is."""
    flows = fill(model, ds)
    return ds if ds.mask.all() else replace(ds, flows=flows, mask=np.ones_like(ds.mask))


def inject_missing(
    ds: FlowDataset,
    ratio: float,
    seed: int,
    day_range: tuple[int, int] | None = None,
) -> FlowDataset:
    """Force a random fraction of currently observed cells to missing.

    The count is round(ratio * cells-in-scope); sampling is uniform without
    replacement among observed cells. Scope is the whole table or, with a day
    range, a contiguous block of days (for test-set-only corruption). The
    removed cells are ``ds.mask & ~injected.mask``.
    """
    check_seed(seed)
    check_ratio(ratio)
    lo, hi = 0, ds.num_timestamps
    if day_range is not None:
        start, stop = check_day_range(day_range, ds.num_days)
        lo, hi = start * ds.points_per_day, stop * ds.points_per_day

    scoped_total = ds.num_stations * (hi - lo)
    count = round(ratio * scoped_total)
    observed_flat = np.nonzero(ds.mask[:, lo:hi].reshape(-1))[0]
    if count > observed_flat.size:
        raise DataError(
            f"cannot remove {count} cells: only {observed_flat.size} observed in scope"
        )
    if count == 0:
        return ds

    rng = np.random.default_rng(seed)
    # Prefix of a full shuffle: the same seed at a higher ratio removes a
    # superset of cells, so evaluation-cell counts shrink monotonically.
    chosen = rng.permutation(observed_flat)[:count]
    width = hi - lo
    stations = chosen // width
    timestamps = chosen % width + lo
    flows = ds.flows.copy()
    mask = ds.mask.copy()
    flows[stations, timestamps] = np.nan
    mask[stations, timestamps] = False
    return replace(ds, flows=flows, mask=mask)
