"""Error metrics, aggregation views, baselines, and robustness sweeps.

Scoring is mask-aware throughout: a target cell participates only where its
mask is set, so injected or natively missing readings are never treated as
ground truth. Buckets that end up with zero scored cells report NaN and are
flagged as undefined rather than silently contributing zeros.

Views are scored by reduction. Per day batch, the residual is taken in C
order, whatever the predictor's layout, and zeroed where the target mask is
off; then its absolute value, its square and the mask are summed over the
station axis once, into an [h, batch] plane. The overall, horizon, timestamp
and weekday views bucket only that plane; the station view sums each
station's block. Sums therefore accumulate in numpy's reduction order, not
cell by cell, and the same predictions score the same bits in any layout;
counts are exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from . import imputation
from .autodiff import Tensor, no_grad
from .dataset import (
    STREAM_DAY_LAGS,
    WEEK_DAYS,
    FlowDataset,
    WindowConfig,
    Windows,
    day_batches,
    stack_batch,
)
from .errors import DataError, NumericError, check_seeds
from .hybrid import Model, apply_topology, forward_batch, head

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


def _view_rules(
    p: int, h: int, ppd: int, start_date, station_ids
) -> dict[str, tuple[tuple, Callable | None]]:
    """Each view's bucket labels and the rule that buckets a cell of the
    station-summed [h, batch] plane by its horizon step and absolute time
    index, given as arrays that broadcast to that plane. The station view is
    the only one that reads the station axis, so it has no plane rule: each
    station's cells form its bucket."""
    return {
        "overall": (("all",), lambda hz, t: 0),
        "horizon": (tuple(range(1, h + 1)), lambda hz, t: hz),
        "timestamp": (tuple(range(ppd)), lambda hz, t: t % ppd),
        "weekday": (
            WEEKDAY_NAMES,
            lambda hz, t: (t // ppd + start_date.weekday()) % WEEK_DAYS,
        ),
        "station": (
            tuple(range(p)) if station_ids is None else tuple(station_ids),
            None,
        ),
    }


# An overflow or an invalid operation (``inf - inf``) in a scored cell leaves
# a non-finite sum, which evaluate reports as a NumericError; one in a
# masked-off cell is zeroed before it is scored.
@np.errstate(over="ignore", invalid="ignore")
def evaluate(
    subject,
    samples: Windows,
    views: Sequence[str] = ("overall",),
    points_per_day: int | None = None,
    start_date=None,
    station_ids: Sequence[str] | None = None,
    metadata: dict | None = None,
) -> EvalReport:
    """Score a model or a predictor over windows, bucketed into the given views.

    A predictor maps batched blocks (s, s_d, s_w, ts) to a [p, h, batch]
    prediction array. The blocks are read-only views of the windows' table
    (see ``stack_batch``); writing into one raises ``ValueError``. Anything
    else is a DataError.

    The overall view is always included. Residuals enter a bucket only where
    the target mask is set. The cadence and the start date that anchors the
    weekday view (reported Monday-first) come from the windows' table; a
    given ``points_per_day`` or ``start_date`` must agree with that table.
    Raises NumericError when the scored cells' error sums are not finite.
    """
    requested = tuple(dict.fromkeys(("overall",) + tuple(views)))
    for name in requested:
        if name not in VIEWS:
            raise DataError(f"unknown view {name!r}, expected one of {VIEWS}")
    if not samples:
        raise DataError("no samples to evaluate")
    table = samples.table
    if points_per_day not in (None, table.points_per_day):
        raise DataError(
            f"points_per_day {points_per_day} disagrees with the windows' "
            f"{table.points_per_day}"
        )
    if start_date not in (None, table.start_date):
        raise DataError(
            f"start date {start_date} disagrees with the windows' {table.start_date}"
        )
    points_per_day, start_date = table.points_per_day, table.start_date
    p, h = table.num_stations, samples.cfg.h
    if station_ids is not None and len(station_ids) != p:
        raise DataError(f"{len(station_ids)} station ids for {p} stations")
    rules = _view_rules(p, h, points_per_day, start_date, station_ids)
    # Rows: summed absolute error, summed squared error, cells scored.
    sums = {name: np.zeros((3, len(rules[name][0]))) for name in requested}
    hz = np.arange(h)[:, None]
    if isinstance(subject, Model):

        def predict(s, s_d, s_w, ts):
            return forward_batch(subject, s, s_d, s_w).data

    elif callable(subject):
        predict = subject
    else:
        raise DataError(f"cannot use a {type(subject).__name__} as a predictor")

    for batch in day_batches(samples):
        s, s_d, s_w, target, target_mask, ts = stack_batch(batch)
        with no_grad():
            pred = np.asarray(predict(s, s_d, s_w, ts), dtype=float)
        if pred.shape != target.shape:
            raise DataError(
                f"predictor returned shape {pred.shape}, expected {target.shape}"
            )
        # A C-order residual is reduced in one order whatever the predictor's
        # layout; masked-off cells are zeroed, so whatever the predictor or the
        # table holds there never leaks in.
        resid = np.subtract(pred, target, order="C")
        np.copyto(resid, 0.0, where=~target_mask)
        blocks = (np.abs(resid), resid * resid, target_mask)
        plane = [block.sum(axis=0) for block in blocks]
        t = ts + hz
        for name in requested:
            labels, rule = rules[name]
            if rule is None:
                sums[name] += [block.sum(axis=(1, 2)) for block in blocks]
            else:
                idx = np.broadcast_to(rule(hz, t), t.shape).ravel()
                sums[name] += [
                    np.bincount(idx, weights=w.ravel(), minlength=len(labels))
                    for w in plane
                ]

    abs_total, sq_total, _ = sums["overall"][:, 0]
    if not (math.isfinite(abs_total) and math.isfinite(sq_total)):
        raise NumericError(
            f"scored cells give non-finite error sums: absolute {abs_total}, "
            f"squared {sq_total}"
        )
    out = {}
    for name in requested:
        abs_sum, sq_sum, cells = sums[name]
        # Cell counts are sums of small integers, exact in float64.
        c = cells.astype(int)
        safe = np.maximum(c, 1)
        out[name] = ViewMetrics(
            view=name,
            labels=rules[name][0],
            mae=np.where(c > 0, abs_sum / safe, np.nan),
            rmse=np.where(c > 0, np.sqrt(sq_sum / safe), np.nan),
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
    table = imputation.fit(imputation.MEAN, ds, train_range).table
    ppd = ds.points_per_day

    def predict(s, s_d, s_w, ts):
        taus = (ts[None, :] + np.arange(h)[:, None]) % ppd
        return np.take(table, taus, axis=1)

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


def mean_sd(values: Sequence[float]) -> tuple[float, float]:
    """Mean and population standard deviation of one metric over seeds."""
    array = np.array(values, dtype=float)
    return float(array.mean()), float(array.std(ddof=0))


def _aggregate(ratio: float, reports: Sequence[EvalReport]) -> SweepPoint:
    maes, rmses = tuple(r.mae for r in reports), tuple(r.rmse for r in reports)
    cells = tuple(r.cells for r in reports)
    return SweepPoint(ratio, *mean_sd(maes), *mean_sd(rmses), maes, rmses, cells)


def _check_ratios(ratios: Sequence[float]) -> tuple[float, ...]:
    try:
        grid = tuple(imputation.check_ratio(float(r)) for r in ratios)
    except (TypeError, ValueError, OverflowError) as exc:  # a DataError is a ValueError
        bound = imputation.MAX_RATIO
        raise DataError(f"ratios must be numbers within [0, {bound}]: {exc}") from None
    if not grid or grid[0] != 0.0 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise DataError(f"ratio grid must start at 0, ascending strictly, got {grid}")
    return grid


def _reusing_predictor(model: Model, points_per_day: int, first_day: int) -> Callable:
    """The model as a predictor that keeps the stream parts of each block
    reading only days before ``first_day``, and reuses them for an equal block.

    Stream k of a day-d batch reads only day ``d - STREAM_DAY_LAGS[k]``. Such
    a block's input and parts are kept when they are computed, and the parts
    are reused only for an input equal to the kept one; any other block is
    computed. Each stream runs on its own, so a reused part has the bytes a
    computed one would.
    """
    topology = model.spec.topology
    kept: dict[tuple[int, int], tuple[np.ndarray, list[Tensor]]] = {}

    def predict(s, s_d, s_w, ts):
        day = int(ts[0]) // points_per_day
        parts = []
        for stream, (blocks, x) in enumerate(zip(model.blocks, (s, s_d, s_w))):
            key = (day, stream)
            if key in kept and np.array_equal(kept[key][0], x):
                parts += kept[key][1]
                continue
            out = apply_topology(topology, blocks, Tensor(x))
            if day - STREAM_DAY_LAGS[stream] < first_day:
                kept[key] = (x, out)
            parts += out
        return head(model, parts).data

    return predict


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
    seed with the same build seed, at ``window_cfg`` (by default a
    TrainedModel's own window, else the default one). The grid, the seeds
    (``check_seeds``) and the rule are checked before any point is scored;
    metrics are aggregated over the seeds, at cells still observed after injection.
    """
    from . import training

    grid = _check_ratios(ratios)
    seeds = check_seeds(injection_seeds)
    if scope not in ("test", "all"):
        raise DataError(f"unknown sweep scope {scope!r}")
    if scope == "test":
        if not isinstance(subject, training.TrainedModel):
            raise DataError("scope 'test' reuses a trained model; pass a TrainedModel")
        arch = subject.arch
        # Test-scope injection never touches the training days, so one rule
        # fitted on the clean table serves every injected one; at ratio 0 every
        # seed leaves the table clean, so it is scored once. Every point reads
        # only the test days and the week before them, and the blocks that
        # read only that week are computed once, at ratio 0.
        table, test_range, imputer = training._test_days(subject, dataset, method)
        predict = _reusing_predictor(subject.model, table.points_per_day, test_range[0])
        at_zero = training._score_test(subject, table, test_range, imputer, predict)

        def score(ratio: float, seed: int) -> EvalReport:
            if ratio == 0.0:
                return at_zero
            injected = imputation.inject_missing(table, ratio, seed, test_range)
            return training._score_test(subject, injected, test_range, imputer, predict)

        reports = (score(ratio, seed) for ratio in grid for seed in seeds)
    else:
        trained = isinstance(subject, training.TrainedModel)
        arch = subject.arch if trained else subject
        if not isinstance(arch, str):
            raise DataError("scope 'all' needs an architecture name or TrainedModel")
        if cfg is None:
            raise DataError("scope 'all' retrains models and needs a TrainConfig")
        tasks = [training.RunTask(arch, method, r, s) for r in grid for s in seeds]
        wcfg = window_cfg or (subject.window_cfg if trained else WindowConfig())
        runs = training.run_tasks(dataset, tasks, cfg, wcfg)
        reports = (run.test for run in runs)

    points = tuple(
        _aggregate(ratio, list(islice(reports, len(seeds)))) for ratio in grid
    )
    return SweepResult(
        method=method,
        scope=scope,
        points=points,
        metadata={"arch": arch, "seeds": list(seeds)},
    )
