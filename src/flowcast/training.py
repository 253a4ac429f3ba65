"""Adam optimization over day-sized batches with multi-seed experiments.

One optimizer step per day of training samples, epochs in chronological
order, validation scored every epoch, and the parameters from the best
validation epoch restored at the end. Experiments repeat the whole loop
across seeds and report mean and standard deviation per metric.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autodiff import Tensor, backward, mul, sub, tensor_mean
from .dataset import (
    POINTS_PER_DAY,
    FlowDataset,
    StandardStats,
    WindowConfig,
    Windows,
    apply_standardization,
    clean,
    day_batches,
    extract_windows,
    slice_days,
    split,
    stack_batch,
    standardize,
)
from .errors import DataError, NumericError, check_field_types
from .evaluation import evaluate
from .hybrid import (
    ARCHITECTURES,
    Model,
    ModelSpec,
    build,
    forward_batch,
    named_parameters,
)
from . import imputation


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and experiment settings."""

    lr: float = 1e-3
    l2: float = 1e-4
    max_epochs: int = 30
    runs: int = 5
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(self.seeds))
        check_field_types(self)
        if not 0 <= self.lr < math.inf:
            raise ValueError(f"learning rate must be finite and nonnegative, got {self.lr}")
        if not 0 <= self.l2 < math.inf:
            raise ValueError(f"l2 factor must be finite and nonnegative, got {self.l2}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0 <= value < 1:
                raise ValueError(f"{name} must lie in [0, 1), got {value}")
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be finite and positive, got {self.eps}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if self.runs < 1:
            raise ValueError(f"runs must be at least 1, got {self.runs}")
        if len(self.seeds) < self.runs:
            raise ValueError(
                f"need at least {self.runs} seeds for {self.runs} runs, "
                f"got {len(self.seeds)}"
            )
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds {self.seeds} repeat; each run needs its own seed")


@dataclass(frozen=True)
class EpochEntry:
    epoch: int
    train_loss: float
    val_mae: float
    val_rmse: float


@dataclass
class TrainLog:
    """Per-epoch history plus wall time and the final parameter digest."""

    entries: list[EpochEntry] = field(default_factory=list)
    wall_time: float = 0.0
    checkpoint_id: str = ""

    @property
    def best_entry(self) -> EpochEntry:
        """The first epoch with the lowest validation MAE, whose weights train restores."""
        if not self.entries:
            raise DataError("empty training log")
        return min(self.entries, key=lambda e: e.val_mae)

    def to_json_lines(self) -> str:
        lines = [
            json.dumps(
                {
                    "epoch": e.epoch,
                    "train_loss": e.train_loss,
                    "val_mae": e.val_mae,
                    "val_rmse": e.val_rmse,
                }
            )
            for e in self.entries
        ]
        lines.append(
            json.dumps(
                {"wall_time": self.wall_time, "checkpoint_id": self.checkpoint_id}
            )
        )
        return "\n".join(lines) + "\n"


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error over every entry of the prediction block."""
    data = target.data if isinstance(target, Tensor) else np.asarray(target, float)
    if pred.data.shape != data.shape:
        raise ValueError(
            f"prediction shape {pred.data.shape} does not match target {data.shape}"
        )
    diff = sub(pred, Tensor(data))
    return tensor_mean(mul(diff, diff))


@dataclass
class AdamState:
    """First and second moment estimates plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def adam_init(values: np.ndarray) -> AdamState:
    return AdamState(m=np.zeros_like(values), v=np.zeros_like(values))


def adam_step(
    values: np.ndarray, grads: np.ndarray, state: AdamState, cfg: TrainConfig
) -> None:
    """One in-place Adam update; L2 regularization folds into the gradient."""
    shapes = (values.shape, grads.shape, state.m.shape, state.v.shape)
    if len(set(shapes)) != 1:
        raise ValueError(f"parameter, gradient and moment counts differ: shapes {shapes}")
    state.step += 1
    t = state.step
    c1 = 1.0 - cfg.beta1**t
    c2 = 1.0 - cfg.beta2**t
    if not np.isfinite(grads).all():
        raise NumericError(f"non-finite gradient at step {t}")
    g = grads + cfg.l2 * values
    state.m[...] = cfg.beta1 * state.m + (1.0 - cfg.beta1) * g
    state.v[...] = cfg.beta2 * state.v + (1.0 - cfg.beta2) * g * g
    values -= cfg.lr * (state.m / c1) / (np.sqrt(state.v / c2) + cfg.eps)


def parameter_digest(model: Model) -> str:
    """Stable content hash over parameter names, shapes, and values."""
    digest = hashlib.sha256()
    for name, tensor in named_parameters(model):
        digest.update(name.encode())
        digest.update(str(tensor.data.shape).encode())
        digest.update(np.ascontiguousarray(tensor.data).tobytes())
    return digest.hexdigest()


def model_spec_for(arch: str, p: int, wcfg: WindowConfig) -> ModelSpec:
    """Resolve an architecture name into a model spec for p stations."""
    if arch not in ARCHITECTURES:
        raise DataError(
            f"unknown architecture {arch!r}; choose from "
            f"{', '.join(sorted(ARCHITECTURES))}"
        )
    if not (wcfg.n == wcfg.daily_width == wcfg.weekly_width):
        raise DataError(
            f"stream widths differ (recent {wcfg.n}, daily {wcfg.daily_width}, "
            f"weekly {wcfg.weekly_width}); the model needs equal-width streams"
        )
    topology = ARCHITECTURES[arch]
    conv_spec = topology.conv_spec
    if conv_spec is not None and p < max(conv_spec.kernel_sizes):
        raise DataError(
            f"{arch} convolves along the station axis with kernels up to "
            f"{max(conv_spec.kernel_sizes)} wide; the dataset has only {p} stations"
        )
    return ModelSpec(topology=topology, p=p, n=wcfg.n, h=wcfg.h)


@dataclass(frozen=True)
class PreparedData:
    """Windowed, imputed, standardized splits of one dataset."""

    dataset: FlowDataset
    stats: StandardStats
    window_cfg: WindowConfig
    ranges: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    train_samples: Windows
    val_samples: Windows
    test_samples: Windows


def prepare_data(
    ds: FlowDataset,
    method: str = imputation.MEAN,
    wcfg: WindowConfig = WindowConfig(),
) -> PreparedData:
    """Run the full preprocessing pipeline on a raw dataset.

    Cleans, splits chronologically 80/10/10, fits imputation on the training
    days, fills the whole table, standardizes it and the cleaned truth with
    statistics of the filled training days, and extracts windows over the
    standardized tables. Training targets come from the filled table;
    validation and test targets keep the original values and masks so
    scoring never trusts an imputed reading.
    """
    ranges = split(ds)
    train_range, val_range, test_range = ranges
    cleaned = clean(ds)
    imputer = imputation.fit(method, slice_days(cleaned, train_range))
    filled_std, stats = standardize(imputation.impute(imputer, cleaned), train_range)
    truth_std = apply_standardization(cleaned, stats)
    return PreparedData(
        dataset=filled_std,
        stats=stats,
        window_cfg=wcfg,
        ranges=ranges,
        train_samples=extract_windows(filled_std, wcfg, train_range),
        val_samples=extract_windows(filled_std, wcfg, val_range, target_from=truth_std),
        test_samples=extract_windows(
            filled_std, wcfg, test_range, target_from=truth_std
        ),
    )


def train(
    model: Model,
    train_samples: Windows,
    val_samples: Windows,
    cfg: TrainConfig,
    points_per_day: int | None = None,
) -> tuple[Model, TrainLog]:
    """Optimize the model in place; returns it with best-validation weights.

    Day batches run in chronological order, one Adam step each. Validation
    MAE/RMSE are logged per epoch and the parameters of the epoch with the
    lowest validation MAE are restored before returning. A given
    ``points_per_day`` must agree with the validation windows' table.
    """
    if not train_samples:
        raise DataError("no training samples")
    if not val_samples:
        raise DataError("no validation samples")
    if not any(stack_batch(batch)[4].any() for batch in day_batches(val_samples)):
        raise DataError(
            "validation has no observed target cells, so there is no score "
            "to select the best epoch by"
        )
    started = time.perf_counter()
    state = adam_init(model.values)
    batches = day_batches(train_samples)
    log = TrainLog()
    best_mae = math.inf
    best_values = None
    for epoch in range(1, cfg.max_epochs + 1):
        total = 0.0
        count = 0
        for batch in batches:
            s, s_d, s_w, target, _mask, _ts = stack_batch(batch)
            model.grads.fill(0.0)
            loss = mse_loss(forward_batch(model, s, s_d, s_w), target)
            value = loss.item()
            if not math.isfinite(value):
                raise NumericError(f"training diverged: loss {value} at epoch {epoch}")
            backward(loss)
            adam_step(model.values, model.grads, state, cfg)
            size = target.shape[-1]
            total += value * size
            count += size
        report = evaluate(model, val_samples, points_per_day=points_per_day)
        entry = EpochEntry(
            epoch=epoch,
            train_loss=total / count,
            val_mae=report.mae,
            val_rmse=report.rmse,
        )
        log.entries.append(entry)
        if entry.val_mae < best_mae:
            best_mae = entry.val_mae
            best_values = model.values.copy()
    if best_values is not None:
        model.values[...] = best_values
    log.wall_time = time.perf_counter() - started
    log.checkpoint_id = parameter_digest(model)
    return model, log


@dataclass
class TrainedModel:
    """A trained model plus everything needed to reuse it on aligned data."""

    model: Model
    arch: str
    impute_method: str
    stats: StandardStats
    window_cfg: WindowConfig
    ranges: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    start_date: dt.date
    points_per_day: int = POINTS_PER_DAY


def evaluate_on(
    trained: TrainedModel,
    ds: FlowDataset,
    views: Sequence[str] = ("overall",),
    method: str | None = None,
):
    """Score a trained model on the test days of a raw dataset.

    Rebuilds the inference pipeline around the stored statistics: fill rules
    are fitted on the dataset's training days, inputs imputed, everything
    standardized with the checkpointed stats, and targets scored only where
    the raw dataset has observations. The dataset must have the model's
    station count and cadence.
    """
    cleaned = clean(ds)
    imputer = _fit_test_fill(trained, cleaned, method or trained.impute_method)
    return _score_test(trained, cleaned, imputer, views)


def _fit_test_fill(
    trained: TrainedModel, cleaned: FlowDataset, method: str
) -> imputation.ImputationModel:
    """Check that the model fits the table; fit the rule on its training days."""
    fits = (trained.model.spec.p, trained.points_per_day)
    if (cleaned.num_stations, cleaned.points_per_day) != fits:
        raise DataError(
            f"the model fits {fits[0]} stations at {fits[1]} points per day; "
            f"the dataset has {cleaned.num_stations} at {cleaned.points_per_day}"
        )
    return imputation.fit(method, slice_days(cleaned, trained.ranges[0]))


def _score_test(
    trained: TrainedModel,
    cleaned: FlowDataset,
    imputer: imputation.ImputationModel,
    views: Sequence[str] = ("overall",),
):
    """Score the model on the test days of a cleaned table under a fitted rule,
    standardized with the model's stats."""
    samples = extract_windows(
        apply_standardization(imputation.impute(imputer, cleaned), trained.stats),
        trained.window_cfg,
        trained.ranges[2],
        target_from=apply_standardization(cleaned, trained.stats),
    )
    return evaluate(
        trained.model,
        samples,
        views,
        start_date=cleaned.start_date,
        station_ids=cleaned.station_ids,
        metadata={"arch": trained.arch, "impute": imputer.method},
    )


def _bundle(model: Model, arch: str, method: str, prep: PreparedData) -> TrainedModel:
    """A trained model plus the preprocessing that produced its data."""
    return TrainedModel(
        model=model,
        arch=arch,
        impute_method=method,
        stats=prep.stats,
        window_cfg=prep.window_cfg,
        ranges=prep.ranges,
        start_date=prep.dataset.start_date,
        points_per_day=prep.dataset.points_per_day,
    )


def train_once(
    arch: str,
    ds: FlowDataset,
    method: str,
    cfg: TrainConfig,
    wcfg: WindowConfig = WindowConfig(),
    seed: int = 0,
) -> tuple[TrainedModel, TrainLog, PreparedData]:
    """Prepare the dataset and train a single model from one seed."""
    spec = model_spec_for(arch, ds.num_stations, wcfg)
    prepared = prepare_data(ds, method, wcfg)
    model = build(spec, seed)
    model, log = train(model, prepared.train_samples, prepared.val_samples, cfg)
    return _bundle(model, arch, method, prepared), log, prepared


@dataclass(frozen=True)
class RunResult:
    """Metrics and artifacts from one seeded training run."""

    seed: int
    val_mae: float
    val_rmse: float
    test_mae: float
    test_rmse: float
    log: TrainLog
    trained: TrainedModel


METRIC_NAMES = ("val_mae", "val_rmse", "test_mae", "test_rmse")


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated multi-seed outcome for one architecture and fill method."""

    arch: str
    impute_method: str
    runs: tuple[RunResult, ...]

    def summary(self) -> dict[str, float]:
        """Mean and population SD of each metric over the runs."""
        out = {}
        for name in METRIC_NAMES:
            values = np.array([getattr(run, name) for run in self.runs])
            out[f"{name}_mean"] = float(values.mean())
            out[f"{name}_sd"] = float(values.std(ddof=0))
        return out


def run_experiment(
    arch: str,
    ds: FlowDataset,
    method: str,
    cfg: TrainConfig = TrainConfig(),
    wcfg: WindowConfig = WindowConfig(),
) -> ExperimentResult:
    """Train cfg.runs independent models and aggregate their metrics."""
    spec = model_spec_for(arch, ds.num_stations, wcfg)
    prepared = prepare_data(ds, method, wcfg)
    runs = []
    for seed in cfg.seeds[: cfg.runs]:
        model = build(spec, seed)
        model, log = train(model, prepared.train_samples, prepared.val_samples, cfg)
        # The restored weights score exactly what their epoch logged on validation.
        best = log.best_entry
        test = evaluate(model, prepared.test_samples)
        runs.append(
            RunResult(
                seed=seed,
                val_mae=best.val_mae,
                val_rmse=best.val_rmse,
                test_mae=test.mae,
                test_rmse=test.rmse,
                log=log,
                trained=_bundle(model, arch, method, prepared),
            )
        )
    return ExperimentResult(arch=arch, impute_method=method, runs=tuple(runs))
