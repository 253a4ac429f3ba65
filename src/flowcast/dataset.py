"""Flow tables and window extraction.

A dataset is a stations-by-timestamps matrix at a fixed points-per-day
cadence, with a boolean observation mask. Windows are anchors at every
admissible in-day position; a batch gathers the three aligned input blocks
(near-term, one day back, one week back) plus the forecast target on demand.

CSV layout: first column an ISO-8601 timestamp, one column per station. A
cell is missing when it is empty, blank or NaN in any spelling (``nan``,
``-nan``, `` NaN ``); an observed value that is not finite is rejected.
``load_csv`` reads the body one day (``points_per_day`` rows) at a time, so
it holds one day of the file's text, never the whole file. A sidecar named
``<file>.meta.json`` carries the ordered station list, the lane label and
the cadence.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import DataError, check_field_types

POINTS_PER_DAY = 288


def _minutes_per_point(points_per_day: int) -> int:
    if points_per_day < 1 or 1440 % points_per_day:
        raise DataError(
            f"points_per_day {points_per_day} does not divide the 1440 minutes of a day"
        )
    return 1440 // points_per_day


def _check_last_day(start: dt.date, days: int) -> None:
    if days > (dt.date.max - start).days + 1:
        raise DataError(f"{days} days from {start} run past {dt.date.max}")


@dataclass(frozen=True)
class FlowDataset:
    """Immutable flow table: [p stations x T timestamps], NaN where unobserved."""

    flows: np.ndarray
    mask: np.ndarray
    station_ids: tuple[str, ...]
    start_date: dt.date
    points_per_day: int = POINTS_PER_DAY
    lane: str = "ML"

    def __post_init__(self) -> None:
        flows = np.ascontiguousarray(np.asarray(self.flows, dtype=float))
        mask = np.ascontiguousarray(np.asarray(self.mask, dtype=bool))
        if flows.ndim != 2 or mask.shape != flows.shape:
            raise DataError(
                f"flows {flows.shape} and mask {mask.shape} must be equal 2-D shapes"
            )
        if flows.shape[0] != len(self.station_ids):
            raise DataError(
                f"{flows.shape[0]} rows for {len(self.station_ids)} station ids"
            )
        _minutes_per_point(self.points_per_day)
        if flows.shape[1] % self.points_per_day != 0:
            raise DataError(
                f"{flows.shape[1]} timestamps is not a whole number of "
                f"{self.points_per_day}-point days"
            )
        _check_last_day(self.start_date, flows.shape[1] // self.points_per_day)
        bad = mask & ~np.isfinite(flows)
        if bad.any():
            s, t = np.argwhere(bad)[0]
            raise DataError(
                f"station {self.station_ids[s]}: observed flow {flows[s, t]} at "
                f"{self.timestamp(t).isoformat()} is not finite"
            )
        flows.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "flows", flows)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "station_ids", tuple(self.station_ids))

    @property
    def num_stations(self) -> int:
        return self.flows.shape[0]

    @property
    def num_timestamps(self) -> int:
        return self.flows.shape[1]

    @property
    def num_days(self) -> int:
        return self.flows.shape[1] // self.points_per_day

    def timestamp(self, index: int) -> dt.datetime:
        step = dt.timedelta(minutes=_minutes_per_point(self.points_per_day))
        return dt.datetime.combine(self.start_date, dt.time()) + index * step


@dataclass(frozen=True)
class WindowConfig:
    """Near-term length n, horizon h, daily and weekly half-widths.

    The daily and weekly blocks have widths 2*n_d + h and 2*n_w + h; with the
    defaults all three input blocks share the near-term width n.
    """

    n: int = 21
    h: int = 9
    n_d: int = 6
    n_w: int = 6

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.n < 1 or self.h < 1 or self.n_d < 0 or self.n_w < 0:
            raise DataError(f"invalid window config {self}")

    @property
    def daily_width(self) -> int:
        return 2 * self.n_d + self.h

    @property
    def weekly_width(self) -> int:
        return 2 * self.n_w + self.h


@dataclass(frozen=True)
class WindowSample:
    """One forecasting instance anchored at absolute timestamp t."""

    s: np.ndarray
    s_d: np.ndarray
    s_w: np.ndarray
    target: np.ndarray
    target_mask: np.ndarray
    t: int


@dataclass(frozen=True)
class StandardStats:
    """Per-station standardization parameters fitted on the training days."""

    mean: np.ndarray
    std: np.ndarray
    train_days: tuple[int, int]

    def to_json(self) -> dict:
        return {
            "mean": [float(v) for v in self.mean],
            "std": [float(v) for v in self.std],
            "train_days": list(self.train_days),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "StandardStats":
        return cls(
            mean=np.asarray(payload["mean"], dtype=float),
            std=np.asarray(payload["std"], dtype=float),
            train_days=tuple(payload["train_days"]),
        )


def _sidecar_path(path: Path) -> Path:
    return Path(str(path) + ".meta.json")


def save_csv(ds: FlowDataset, path) -> None:
    """Write the table plus its sidecar; floats use shortest round-trip form."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", *ds.station_ids])
        for index in range(ds.num_timestamps):
            cells = [
                repr(float(ds.flows[s, index])) if ds.mask[s, index] else ""
                for s in range(ds.num_stations)
            ]
            writer.writerow([ds.timestamp(index).isoformat(), *cells])
    sidecar = {
        "stations": list(ds.station_ids),
        "lane": ds.lane,
        "points_per_day": ds.points_per_day,
    }
    _sidecar_path(path).write_text(json.dumps(sidecar, indent=2))


def _read_sidecar(path: Path, station_ids: tuple[str, ...]) -> tuple[int, str]:
    """The cadence and lane from the table's sidecar, or the defaults without one."""
    points_per_day = POINTS_PER_DAY
    lane = "ML"
    sidecar = _sidecar_path(path)
    if sidecar.exists():
        try:
            meta = json.loads(sidecar.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"sidecar {sidecar} is not readable JSON: {exc}") from None
        if not isinstance(meta, dict):
            raise DataError(f"sidecar {sidecar} must hold a JSON object")
        lane = meta.get("lane", lane)
        points_per_day = meta.get("points_per_day", points_per_day)
        if not isinstance(points_per_day, int) or isinstance(points_per_day, bool):
            raise DataError(
                f"sidecar {sidecar}: points_per_day must be an integer, "
                f"got {points_per_day!r}"
            )
        stations = meta.get("stations", list(station_ids))
        if stations != list(station_ids):
            raise DataError(
                f"station columns {station_ids} do not match sidecar {stations}"
            )
    return points_per_day, lane


def _read(path: Path, rows, count: int) -> list[list[str]]:
    """The next ``count`` records of a csv reader, fewer at the end of the file."""
    try:
        return list(islice(rows, count))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from None


def _cell(path: Path, index: int, cell: str) -> float:
    """One cell, stripped: blank is missing (NaN), anything else a ``float``."""
    text = cell.strip()
    try:
        return float(text) if text else np.nan
    except ValueError:
        raise DataError(f"{path} row {index + 2}: bad flow value {cell!r}") from None


def _read_day(
    path: Path,
    rows: list,
    base: int,
    p: int,
    start: dt.datetime,
    step: dt.timedelta,
    clock: list[str],
) -> np.ndarray:
    """Flows [len(rows), p] of up to one day of body rows, from row ``base``.

    ``clock`` holds the canonical time-of-day part of each timestamp. Each row
    is checked for its field count, then its timestamp, then its cells, and
    the first row that fails raises. The checks run on the whole block; only
    a timestamp that is not canonical, or a block whose cells do not all
    convert, is looked at again row by row.
    """
    limit = next((k for k, row in enumerate(rows) if len(row) != p + 1), len(rows))
    error = None
    if limit < len(rows):
        error = f"{len(rows[limit])} fields, expected {p + 1}"
    try:
        midnight = start + base * step
    except OverflowError:
        raise DataError(
            f"{path} row {base + 2}: the table runs past {dt.date.max}"
        ) from None
    day = midnight.isoformat()[:10]
    expected = [day + time for time in clock[:limit]]
    stamps = [row[0] for row in rows[:limit]]
    if stamps != expected:
        for k, text in enumerate(stamps):
            if text == expected[k]:
                continue
            try:
                stamp = dt.datetime.fromisoformat(text)
            except ValueError:
                limit, error = k, f"bad timestamp {text!r}"
                break
            if stamp != midnight + k * step:
                limit, error = k, f"timestamp {stamp} out of cadence"
                break
    # float() rejects "", and an empty cell is missing: NaN, as "nan" reads
    cells = [cell or "nan" for row in rows[:limit] for cell in row[1:]]
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        values = np.array(
            [_cell(path, base + k, c) for k, row in enumerate(rows[:limit]) for c in row[1:]]
        )
    if error:
        raise DataError(f"{path} row {base + limit + 2}: {error}")
    return values.reshape(limit, p)


def load_csv(path) -> FlowDataset:
    """Read a flow table, one day (``points_per_day`` rows) at a time.

    A cell is missing when it is empty, blank or NaN in any spelling; an
    observed value must be finite. Each malformed row raises a DataError
    naming it, the first such row in the file first.
    """
    path = Path(path)
    try:
        handle = path.open(newline="")
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from None
    with handle:
        rows = csv.reader(handle)
        header = _read(path, rows, 1)
        if not header:
            raise DataError(f"{path} is empty")
        header = header[0]
        if not header or header[0] != "timestamp":
            raise DataError(f"{path} must start with a 'timestamp' column")
        station_ids = tuple(header[1:])
        if not station_ids:
            raise DataError(f"{path} has no station columns")
        points_per_day, lane = _read_sidecar(path, station_ids)

        block = _read(path, rows, 1)
        if not block:
            raise DataError(f"{path} has no data rows")
        p = len(station_ids)
        step = dt.timedelta(minutes=_minutes_per_point(points_per_day))
        first = block[0]
        if len(first) != p + 1:
            raise DataError(f"{path} row 2: {len(first)} fields, expected {p + 1}")
        try:
            start = dt.datetime.fromisoformat(first[0])
        except ValueError:
            raise DataError(f"{path} row 2: bad timestamp {first[0]!r}") from None
        if start.time() != dt.time():
            raise DataError(f"{path} must start at midnight, got {start}")
        clock = [(start + k * step).isoformat()[10:] for k in range(points_per_day)]
        block += _read(path, rows, points_per_day - 1)
        days = []
        while block:
            base = len(days) * points_per_day
            days.append(_read_day(path, block, base, p, start, step, clock))
            block = _read(path, rows, points_per_day)
    flows = np.empty((p, sum(len(day) for day in days)))
    np.concatenate([day.T for day in days], axis=1, out=flows)
    mask = ~np.isnan(flows)
    flows[~mask] = np.nan  # one NaN bit pattern, whichever spelling was read
    return FlowDataset(
        flows=flows,
        mask=mask,
        station_ids=station_ids,
        start_date=start.date(),
        points_per_day=points_per_day,
        lane=lane,
    )


def clean(ds: FlowDataset) -> FlowDataset:
    """Mark observed negative readings as missing; everything else unchanged."""
    bad = ds.mask & (ds.flows < 0)
    if not bad.any():
        return ds
    return replace(ds, mask=ds.mask & ~bad)


def standardize(
    ds: FlowDataset, train_days: tuple[int, int]
) -> tuple[FlowDataset, StandardStats]:
    """Shift and scale each station using statistics from the training days.

    Uses the sample standard deviation (N-1 denominator) over observed
    training entries; the whole dataset is transformed with those statistics.
    """
    start, stop = train_days
    if not (0 <= start < stop <= ds.num_days):
        raise DataError(f"train day range {train_days} outside 0..{ds.num_days}")
    lo = start * ds.points_per_day
    hi = stop * ds.points_per_day
    mean = np.empty(ds.num_stations)
    std = np.empty(ds.num_stations)
    for s in range(ds.num_stations):
        values = ds.flows[s, lo:hi][ds.mask[s, lo:hi]]
        if values.size < 2:
            raise DataError(
                f"station {ds.station_ids[s]}: {values.size} observed training "
                "values, need at least 2 to standardize"
            )
        mean[s] = values.mean()
        std[s] = values.std(ddof=1)
        if std[s] == 0.0:
            raise DataError(f"station {ds.station_ids[s]} has zero training variance")
    stats = StandardStats(mean=mean, std=std, train_days=(start, stop))
    return apply_standardization(ds, stats), stats


def apply_standardization(ds: FlowDataset, stats: StandardStats) -> FlowDataset:
    scaled = (ds.flows - stats.mean[:, None]) / stats.std[:, None]
    return replace(ds, flows=scaled)


def slice_days(ds: FlowDataset, day_range: tuple[int, int]) -> FlowDataset:
    """A standalone dataset covering the given day range."""
    start, stop = day_range
    if not (0 <= start < stop <= ds.num_days):
        raise DataError(f"day range {day_range} outside 0..{ds.num_days}")
    lo = start * ds.points_per_day
    hi = stop * ds.points_per_day
    return replace(
        ds,
        flows=ds.flows[:, lo:hi].copy(),
        mask=ds.mask[:, lo:hi].copy(),
        start_date=ds.start_date + dt.timedelta(days=start),
    )


def split(ds: FlowDataset) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """Chronological 80/10/10 day ranges (train, val, test): validation and
    test get a tenth of the days each, rounded down, and train the rest."""
    days = ds.num_days
    if days < 10:
        raise DataError(f"need at least 10 days to split, have {days}")
    held_out = int(0.1 * days)
    n_train = days - 2 * held_out
    return (0, n_train), (n_train, n_train + held_out), (n_train + held_out, days)


def window_positions(cfg: WindowConfig, points_per_day: int = POINTS_PER_DAY) -> range:
    """Admissible in-day anchor positions; every block stays inside its day."""
    lo = max(cfg.n, cfg.n_d, cfg.n_w)
    hi = points_per_day - cfg.h - max(cfg.n_d, cfg.n_w)
    return range(lo, hi + 1)


WEEK_DAYS = 7


@dataclass(frozen=True, eq=False)
class Windows:
    """Anchor timestamps into input and target tables that are never copied.

    ``stack_batch`` gathers a batch's blocks when it is used, so memory stays
    O(p x T); indexing and iteration gather one window as a batch of one.
    """

    inputs: FlowDataset
    targets: FlowDataset
    cfg: WindowConfig
    anchors: np.ndarray

    def __post_init__(self) -> None:
        shape = self.inputs.flows.shape
        if self.targets.flows.shape != shape:
            raise DataError(f"target shape {self.targets.flows.shape} is not {shape}")
        anchors = np.array(self.anchors, dtype=int)
        ppd, cfg = self.inputs.points_per_day, self.cfg
        lo = max(cfg.n, ppd + cfg.n_d, WEEK_DAYS * ppd + cfg.n_w)
        hi = shape[1] - cfg.h
        inside = anchors.size == 0 or lo <= anchors.min() <= anchors.max() <= hi
        if anchors.ndim != 1 or not inside:
            raise DataError(f"anchors must be 1-D and in [{lo}, {hi}] for {cfg}")
        anchors.setflags(write=False)
        object.__setattr__(self, "anchors", anchors)

    def __len__(self) -> int:
        return self.anchors.size

    def __getitem__(self, key: int | slice) -> Windows | WindowSample:
        if isinstance(key, slice):
            return replace(self, anchors=self.anchors[key])
        *blocks, ts = stack_batch(replace(self, anchors=self.anchors[[key]]))
        return WindowSample(*(block[..., 0] for block in blocks), t=int(ts[0]))

    def __add__(self, other: "Windows") -> "Windows":
        shared = other.inputs is self.inputs and other.targets is self.targets
        if not shared or other.cfg != self.cfg:
            raise DataError("only windows over the same tables and config concatenate")
        return replace(self, anchors=np.concatenate([self.anchors, other.anchors]))


def extract_windows(
    ds: FlowDataset,
    cfg: WindowConfig,
    day_range: tuple[int, int],
    target_from: FlowDataset | None = None,
) -> Windows:
    """All windows whose targets fall inside the given day range.

    Input blocks may reach back into earlier days; days lacking a full week
    of history are skipped. When ``target_from`` is given, target values and
    masks come from that aligned dataset while inputs come from ``ds``.
    """
    start, stop = day_range
    if not (0 <= start < stop <= ds.num_days):
        raise DataError(f"day range {day_range} outside 0..{ds.num_days}")
    ppd = ds.points_per_day
    positions = np.asarray(window_positions(cfg, ppd))
    if positions.size == 0:
        raise DataError(f"no admissible positions for {cfg} at {ppd} points/day")
    days = np.arange(max(start, WEEK_DAYS), stop)
    if days.size == 0:
        raise DataError(
            f"day range {day_range} has no day with a full week of history"
        )
    anchors = (days[:, None] * ppd + positions).ravel()
    return Windows(ds, ds if target_from is None else target_from, cfg, anchors)


def day_batches(windows: Windows) -> list[Windows]:
    """Split chronologically ordered windows into one batch per target day."""
    days = windows.anchors // windows.inputs.points_per_day
    starts = np.flatnonzero(np.diff(days, prepend=-1))
    return [windows[a:b] for a, b in zip(starts, [*starts[1:], len(windows)])]


def stack_batch(batch: Windows) -> tuple[np.ndarray, ...]:
    """Gather a batch of windows from its tables, stacked on a trailing axis.

    Returns (s, s_d, s_w, target, target_mask, ts): each block is a
    C-contiguous [p, width, batch] array and ts lists the anchor timestamps.
    """
    cfg, ppd, ts = batch.cfg, batch.inputs.points_per_day, np.array(batch.anchors)

    def take(table: np.ndarray, first: int, width: int) -> np.ndarray:
        # np.take keeps the batch axis innermost, where table[:, idx] would not
        return np.take(table, ts + np.arange(first, first + width)[:, None], axis=1)

    return (
        take(batch.inputs.flows, -cfg.n, cfg.n),
        take(batch.inputs.flows, -ppd - cfg.n_d, cfg.daily_width),
        take(batch.inputs.flows, -WEEK_DAYS * ppd - cfg.n_w, cfg.weekly_width),
        take(batch.targets.flows, 0, cfg.h),
        take(batch.targets.mask, 0, cfg.h),
        ts,
    )
