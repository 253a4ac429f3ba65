"""Error metrics, aggregation views, baselines, and robustness sweeps.

Scoring is mask-aware throughout: a target cell participates only where its
mask is set, so injected or natively missing readings are never treated as
ground truth. Buckets that end up with zero scored cells report NaN and are
flagged as undefined rather than silently contributing zeros.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import imputation
from .autodiff import no_grad
from .dataset import (
    WEEK_DAYS,
    FlowDataset,
    WindowConfig,
    Windows,
    clean,
    day_batches,
    slice_days,
    stack_batch,
)
from .errors import DataError
from .hybrid import Model, forward_batch

VIEWS = ("overall", "horizon", "timestamp", "weekday", "station")
WEEKDAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")

# Ratio grid for robustness curves; 0.21 anchors the degradation readout.
DEFAULT_RATIOS = tuple(round(0.03 * i, 2) for i in range(11))
DEFAULT_INJECTION_SEEDS = (0, 1, 2, 3, 4)


def _paired(pred, actual) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(pred, dtype=float)
    b = np.asarray(actual, dtype=float)
    if a.shape != b.shape:
        raise DataError(f"series shapes differ: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise DataError("cannot score an empty series")
    return a, b


def mae(pred, actual) -> float:
    """Mean absolute difference over all entries."""
    a, b = _paired(pred, actual)
    return float(np.mean(np.abs(a - b)))


def rmse(pred, actual) -> float:
    """Root mean squared difference over all entries."""
    a, b = _paired(pred, actual)
    return float(np.sqrt(np.mean((a - b) ** 2)))


@dataclass(frozen=True)
class ViewMetrics:
    """Per-bucket MAE/RMSE for one aggregation view."""

    view: str
    labels: tuple
    mae: np.ndarray
    rmse: np.ndarray
    counts: np.ndarray

    @property
    def undefined(self) -> np.ndarray:
        """Buckets with no scored cells; their metrics are NaN, not zero."""
        return self.counts == 0


@dataclass(frozen=True)
class EvalReport:
    """Metrics for every requested view plus run metadata."""

    views: dict[str, ViewMetrics]
    metadata: dict = field(default_factory=dict)

    @property
    def mae(self) -> float:
        return float(self.views["overall"].mae[0])

    @property
    def rmse(self) -> float:
        return float(self.views["overall"].rmse[0])

    @property
    def cells(self) -> int:
        return int(self.views["overall"].counts[0])

    def to_json(self) -> str:
        def scrub(values: np.ndarray) -> list:
            return [None if math.isnan(v) else float(v) for v in values]

        payload = {
            "metadata": self.metadata,
            "views": {
                name: {
                    "labels": [str(label) for label in vm.labels],
                    "count": [int(c) for c in vm.counts],
                    "mae": scrub(vm.mae),
                    "rmse": scrub(vm.rmse),
                }
                for name, vm in self.views.items()
            },
        }
        return json.dumps(payload, indent=2, allow_nan=False)

    def csv_rows(self) -> list[tuple]:
        """One (view, bucket, count, mae, rmse) row per bucket; None when undefined."""
        rows = []
        for name, vm in self.views.items():
            for j, label in enumerate(vm.labels):
                count = int(vm.counts[j])
                rows.append(
                    (
                        name,
                        str(label),
                        count,
                        float(vm.mae[j]) if count else None,
                        float(vm.rmse[j]) if count else None,
                    )
                )
        return rows


def as_predictor(subject) -> Callable:
    """Adapt a model, trained bundle, or callable to the predictor protocol.

    A predictor maps batched blocks (s, s_d, s_w, ts) to a [p, h, batch]
    prediction array.
    """
    if isinstance(subject, Model):
        return lambda s, s_d, s_w, ts: forward_batch(subject, s, s_d, s_w).data
    inner = getattr(subject, "model", None)
    if isinstance(inner, Model):
        return as_predictor(inner)
    if callable(subject):
        return subject
    raise DataError(f"cannot use a {type(subject).__name__} as a predictor")


def _view_rules(
    p: int, h: int, ppd: int, start_date, station_ids
) -> dict[str, tuple[tuple, Callable]]:
    """Each view's bucket labels and the rule that buckets a cell by its
    station, horizon step and absolute time index, given as arrays that
    broadcast to the [p, h, batch] target block."""
    return {
        "overall": (("all",), lambda st, hz, t: 0),
        "horizon": (tuple(range(1, h + 1)), lambda st, hz, t: hz),
        "timestamp": (tuple(range(ppd)), lambda st, hz, t: t % ppd),
        "weekday": (
            WEEKDAY_NAMES,
            lambda st, hz, t: (t // ppd + start_date.weekday()) % WEEK_DAYS,
        ),
        "station": (
            tuple(range(p)) if station_ids is None else tuple(station_ids),
            lambda st, hz, t: st,
        ),
    }


def evaluate(
    subject,
    samples: Windows,
    views: Sequence[str] = ("overall",),
    points_per_day: int | None = None,
    start_date=None,
    station_ids: Sequence[str] | None = None,
    metadata: dict | None = None,
) -> EvalReport:
    """Score a predictor over windows, bucketed into the given views.

    The overall view is always included. Residuals enter a bucket only where
    the target mask is set; the weekday view needs the dataset start date to
    anchor day-of-week (reported Monday-first). The cadence comes from the
    windows' table; a given ``points_per_day`` or ``start_date`` must agree
    with that table.
    """
    requested = tuple(dict.fromkeys(("overall",) + tuple(views)))
    for name in requested:
        if name not in VIEWS:
            raise DataError(f"unknown view {name!r}, expected one of {VIEWS}")
    if not samples:
        raise DataError("no samples to evaluate")
    if "weekday" in requested and start_date is None:
        raise DataError("the weekday view needs the dataset start date")
    table = samples.inputs
    if points_per_day not in (None, table.points_per_day):
        raise DataError(
            f"points_per_day {points_per_day} disagrees with the windows' "
            f"{table.points_per_day}"
        )
    if start_date not in (None, table.start_date):
        raise DataError(
            f"start date {start_date} disagrees with the windows' {table.start_date}"
        )
    points_per_day = table.points_per_day
    p, h = samples.targets.num_stations, samples.cfg.h
    if station_ids is not None and len(station_ids) != p:
        raise DataError(f"{len(station_ids)} station ids for {p} stations")
    rules = _view_rules(p, h, points_per_day, start_date, station_ids)
    sizes = {name: len(rules[name][0]) for name in requested}
    abs_sums = {name: np.zeros(sizes[name]) for name in requested}
    sq_sums = {name: np.zeros(sizes[name]) for name in requested}
    counts = {name: np.zeros(sizes[name], dtype=int) for name in requested}
    st, hz = np.arange(p)[:, None, None], np.arange(h)[:, None]
    predict = as_predictor(subject)

    for batch in day_batches(samples):
        s, s_d, s_w, target, target_mask, ts = stack_batch(batch)
        with no_grad():
            pred = np.asarray(predict(s, s_d, s_w, ts), dtype=float)
        if pred.shape != target.shape:
            raise DataError(
                f"predictor returned shape {pred.shape}, expected {target.shape}"
            )
        diff = (pred - target)[target_mask]
        abs_err = np.abs(diff)
        sq_err = diff * diff
        t = ts + hz
        for name in requested:
            idx = np.broadcast_to(rules[name][1](st, hz, t), target.shape)[target_mask]
            abs_sums[name] += np.bincount(idx, weights=abs_err, minlength=sizes[name])
            sq_sums[name] += np.bincount(idx, weights=sq_err, minlength=sizes[name])
            counts[name] += np.bincount(idx, minlength=sizes[name])

    out = {}
    for name in requested:
        c = counts[name]
        safe = np.maximum(c, 1)
        out[name] = ViewMetrics(
            view=name,
            labels=rules[name][0],
            mae=np.where(c > 0, abs_sums[name] / safe, np.nan),
            rmse=np.where(c > 0, np.sqrt(sq_sums[name] / safe), np.nan),
            counts=c,
        )
    return EvalReport(views=out, metadata=dict(metadata or {}))


def persistence_predictor(h: int) -> Callable:
    """Baseline that repeats the latest near-term reading across the horizon."""

    def predict(s, s_d, s_w, ts):
        last = s[:, -1, :]
        return np.repeat(last[:, None, :], h, axis=1)

    return predict


def historical_mean_predictor(
    ds: FlowDataset, train_range: tuple[int, int], h: int
) -> Callable:
    """Baseline that predicts the per-(station, timestamp-of-day) training mean."""
    table = imputation.fit(imputation.MEAN, slice_days(ds, train_range)).table
    ppd = ds.points_per_day

    def predict(s, s_d, s_w, ts):
        taus = (ts[None, :] + np.arange(h)[:, None]) % ppd
        return table[:, taus]

    return predict


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated metrics at one injected-missing ratio."""

    ratio: float
    mae_mean: float
    mae_sd: float
    rmse_mean: float
    rmse_sd: float
    seed_mae: tuple[float, ...]
    seed_rmse: tuple[float, ...]
    seed_cells: tuple[int, ...]


@dataclass(frozen=True)
class SweepResult:
    """Robustness curve: metrics per ratio plus the 21% degradation readout."""

    method: str
    scope: str
    points: tuple[SweepPoint, ...]
    metadata: dict = field(default_factory=dict)

    def point(self, ratio: float) -> SweepPoint:
        for pt in self.points:
            if math.isclose(pt.ratio, ratio, abs_tol=1e-9):
                return pt
        raise DataError(f"ratio {ratio} not in sweep grid {self.ratios}")

    @property
    def ratios(self) -> tuple[float, ...]:
        return tuple(pt.ratio for pt in self.points)

    def degradation(self, at: float = 0.21) -> float:
        """MAE at the given ratio relative to the clean-data MAE."""
        return self.point(at).mae_mean / self.point(0.0).mae_mean


def _aggregate(ratio: float, reports: Sequence[EvalReport]) -> SweepPoint:
    maes = np.array([r.mae for r in reports])
    rmses = np.array([r.rmse for r in reports])
    return SweepPoint(
        ratio=ratio,
        mae_mean=float(maes.mean()),
        mae_sd=float(maes.std(ddof=0)),
        rmse_mean=float(rmses.mean()),
        rmse_sd=float(rmses.std(ddof=0)),
        seed_mae=tuple(r.mae for r in reports),
        seed_rmse=tuple(r.rmse for r in reports),
        seed_cells=tuple(r.cells for r in reports),
    )


def _check_ratios(ratios: Sequence[float]) -> tuple[float, ...]:
    grid = tuple(float(r) for r in ratios)
    if not all(0.0 <= r <= 0.5 for r in grid):
        raise DataError(f"ratios must be finite and within [0, 0.5], got {grid}")
    if not grid or grid[0] != 0.0:
        raise DataError(f"ratio grid must start at 0, got {grid}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DataError(f"ratio grid must be strictly ascending, got {grid}")
    return grid


def robustness_sweep(
    subject,
    dataset: FlowDataset,
    method: str,
    ratios: Sequence[float] = DEFAULT_RATIOS,
    scope: str = "test",
    injection_seeds: Sequence[int] = DEFAULT_INJECTION_SEEDS,
    cfg=None,
    window_cfg: WindowConfig | None = None,
) -> SweepResult:
    """Prediction error as a function of the injected missing ratio.

    scope="test" corrupts only the test days and reuses one already-trained
    model (``subject`` must be a TrainedModel); scope="all" corrupts the whole
    table and retrains from scratch per ratio and seed, pairing each injection
    seed with the same build seed. Metrics are aggregated over the injection
    seeds, which must be distinct; targets are scored at cells still observed
    after injection.
    """
    from . import training

    grid = _check_ratios(ratios)
    seeds = tuple(injection_seeds)
    if not seeds:
        raise DataError("need at least one injection seed")
    if len(set(seeds)) != len(seeds):
        raise DataError(f"injection seeds {seeds} repeat; each must be its own draw")
    if scope not in ("test", "all"):
        raise DataError(f"unknown sweep scope {scope!r}")
    if method not in imputation.METHODS:
        raise DataError(
            f"unknown imputation method {method!r}, expected {imputation.METHODS}"
        )
    cleaned = clean(dataset)

    if scope == "test":
        if not isinstance(subject, training.TrainedModel):
            raise DataError("scope 'test' reuses a trained model; pass a TrainedModel")
        arch = subject.arch
        test_range = subject.ranges[2]
        # Test-scope injection never touches the training days, so one rule
        # fitted on the clean table serves every injected one; at ratio 0 every
        # seed leaves the table clean, so it is scored once.
        imputer = training._fit_test_fill(subject, cleaned, method)
        at_zero = training._score_test(subject, cleaned, imputer)

        def score(ratio: float, seed: int) -> EvalReport:
            if ratio == 0.0:
                return at_zero
            injected, _ = imputation.inject_missing(
                cleaned, ratio, seed, scope="test", day_range=test_range
            )
            return training._score_test(subject, injected, imputer)

    else:
        arch = subject.arch if isinstance(subject, training.TrainedModel) else subject
        if not isinstance(arch, str):
            raise DataError("scope 'all' needs an architecture name or TrainedModel")
        if cfg is None:
            raise DataError("scope 'all' retrains models and needs a TrainConfig")
        wcfg = window_cfg or WindowConfig()

        def score(ratio: float, seed: int) -> EvalReport:
            injected, _ = imputation.inject_missing(cleaned, ratio, seed)
            trained, _, prepared = training.train_once(
                arch, injected, method, cfg, wcfg, seed=seed
            )
            return evaluate(trained.model, prepared.test_samples)

    points = tuple(
        _aggregate(ratio, [score(ratio, seed) for seed in seeds]) for ratio in grid
    )
    return SweepResult(
        method=method,
        scope=scope,
        points=points,
        metadata={"arch": arch, "seeds": list(seeds)},
    )
