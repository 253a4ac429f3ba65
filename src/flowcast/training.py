"""Adam optimization over day-sized batches, and the runner of training runs.

One optimizer step per day of training samples, epochs in chronological
order, validation scored every epoch, and the parameters from the best
validation epoch restored at the end. The runner trains and scores a list
of (architecture, fill rule, injected ratio, seed) tasks in order.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .autodiff import Tensor, _accumulate, backward
from .dataset import (
    POINTS_PER_DAY,
    WEEK_DAYS,
    FlowDataset,
    StandardStats,
    WindowConfig,
    Windows,
    clean,
    day_batches,
    extract_windows,
    slice_days,
    split,
    stack_batch,
    standard_stats,
    standardize_in_place,
)
from .errors import DataError, NumericError, check_field_types, check_seed, check_seeds
from .evaluation import EvalReport, evaluate
from .hybrid import (
    ARCHITECTURES,
    STREAMS,
    Model,
    ModelSpec,
    apply_topology,
    build,
    forward_batch,
    named_parameters,
    stream_slice,
)
from .workers import _fork_cores, _Worker
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
        check_seeds(self.seeds)
        if not 1 <= self.runs <= len(self.seeds):
            raise ValueError(f"runs {self.runs} not in 1..{len(self.seeds)}, one per seed")


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
        lines = [json.dumps(asdict(e)) for e in self.entries]
        lines.append(
            json.dumps(
                {"wall_time": self.wall_time, "checkpoint_id": self.checkpoint_id}
            )
        )
        return "\n".join(lines) + "\n"


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error of the prediction block against a target array, as
    one tape node whose closure adds ``2 * diff * g / n`` into ``pred``."""
    data = np.asarray(target, float)
    if pred.data.shape != data.shape:
        raise ValueError(
            f"prediction shape {pred.data.shape} does not match target {data.shape}"
        )
    diff = pred.data - data

    def bwd(g):
        # Exactly diff * (g / n) added twice (2.0 * x == x + x), so trained
        # weights keep their bits.
        _accumulate(pred, 2.0 * (diff * (g / diff.size)))

    return Tensor((diff * diff).mean(), _parents=(pred,), _backward=bwd)


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
    state.m *= cfg.beta1
    state.m += (1.0 - cfg.beta1) * g
    state.v *= cfg.beta2
    state.v += (1.0 - cfg.beta2) * g * g
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
    widest = max(topology.kernels, default=0)
    if p < widest:
        raise DataError(
            f"{arch} convolves along the station axis with kernels up to "
            f"{widest} wide; the dataset has only {p} stations"
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
    days, fills the whole table and standardizes it with statistics of the
    filled training days. Training windows read that table, so training
    targets include the fill. Validation and test windows read one scored
    table, its values under the cleaned mask, so scoring never trusts an
    imputed reading; at every observed cell the values are the cleaned
    readings, standardized.
    """
    ranges = split(ds)
    train_range, val_range, test_range = ranges
    cleaned = clean(ds)
    imputer = imputation.fit(method, cleaned, train_range)
    # The fill is this call's own array: its stats are read through a frozen
    # view of it, and then it is standardized in place.
    flows = imputation.fill(imputer, cleaned)
    full = cleaned.mask if cleaned.mask.all() else np.ones_like(cleaned.mask)
    stats = standard_stats(replace(cleaned, flows=flows.view(), mask=full), train_range)
    filled_std = replace(cleaned, flows=standardize_in_place(flows, stats), mask=full)
    scored = replace(filled_std, mask=cleaned.mask)
    return PreparedData(
        dataset=filled_std,
        stats=stats,
        window_cfg=wcfg,
        ranges=ranges,
        train_samples=extract_windows(filled_std, wcfg, train_range),
        val_samples=extract_windows(scored, wcfg, val_range),
        test_samples=extract_windows(scored, wcfg, test_range),
    )


class _LastStream(_Worker):
    """The last (weekly) stream of each step of one ``train`` call.

    When a second core is usable (``workers._fork_cores``) and ``os.fork``
    succeeds, a forked worker computes it in lock-step: ``start`` tells the
    worker the batch index and the stream's values and returns a function,
    for ``forward_batch``, that takes the stream's parts joined as one
    tape node; that node's closure tells the worker its gradient rows, and
    ``finish`` writes the stream's gradients that the worker replies into
    ``model.grads``. Otherwise ``start`` returns the input block, which
    ``forward_batch`` computes here, and ``finish`` does nothing. The bytes
    are the same either way: the stream's parameters take gradient only from
    the stream's own nodes, which run in the same order in both processes.
    """

    def __init__(self, model: Model, batches: list[Windows]):
        self.model = model
        self.span = stream_slice(model, STREAMS - 1)
        self.pid = None
        if _fork_cores() > 1:
            super().__init__(lambda worker: _serve_last_stream(model, batches, worker))

    def start(self, index: int, x: np.ndarray) -> np.ndarray | Callable[[], list[Tensor]]:
        if self.pid is None:
            return x
        self.tell((index, self.model.values[self.span]))
        return lambda: [Tensor(self.reply(), requires_grad=True, _backward=self.tell)]

    def finish(self) -> None:
        if self.pid is not None:
            self.model.grads[self.span] = self.reply()


def _serve_last_stream(model: Model, batches: list[Windows], worker: _Worker) -> None:
    """In a forked worker: per step, compute the last stream of the batch whose
    index arrives, under the values that arrive with it, and reply its parts
    joined; then take their gradient rows, as ``dense`` splits them, through
    the stream's own tape and reply the stream's gradients. A failing step
    replies its exception. The worker returns when the parent closes its
    pipe."""
    span = stream_slice(model, STREAMS - 1)
    while True:
        try:
            index, values = worker.reply()
        except ChildProcessError:  # the parent is done with the stream
            return
        try:
            model.values[span] = values
            x = Tensor(stack_batch(batches[index])[2])
            parts = apply_topology(model.spec.topology, model.blocks[-1], x)
            worker.tell(np.concatenate([t.data for t in parts]))
            cuts = np.cumsum([t.data.shape[0] for t in parts])[:-1]
            rows = np.split(worker.reply(), cuts)

            # A scalar root over the parts hands each its rows, as dense
            # does; then the stream's nodes run in the parent's order.
            def seed(_unit):
                for t, g in zip(parts, rows):
                    _accumulate(t, g)

            model.grads[span] = 0.0
            backward(Tensor(0.0, _parents=tuple(parts), _backward=seed))
            worker.tell(model.grads[span])
        except Exception as exc:
            worker.tell(exc)
            return


# Weights a divergent step drives huge overflow in the next forward pass; the
# loss and gradient checks report that as a NumericError.
@np.errstate(over="ignore", invalid="ignore")
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
    ``points_per_day`` must agree with the validation windows' table. When a
    second core is usable, a forked worker computes the last (weekly) stream
    of every step in lock-step with this process, with the same bytes.
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
    with _LastStream(model, batches) as weekly:
        for epoch in range(1, cfg.max_epochs + 1):
            total = 0.0
            count = 0
            for index, batch in enumerate(batches):
                s, s_d, s_w, target, _mask, _ts = stack_batch(batch)
                model.grads.fill(0.0)
                pred = forward_batch(model, s, s_d, weekly.start(index, s_w))
                loss = mse_loss(pred, target)
                value = loss.item()
                if not math.isfinite(value):
                    raise NumericError(f"training diverged: loss {value} at epoch {epoch}")
                backward(loss)
                weekly.finish()
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
    the raw dataset has observations. The dataset must be the model's own
    table: its station count, cadence, start date and day count.
    """
    method = method or trained.impute_method
    return _score_test(trained, *_test_days(trained, ds, method), trained.model, views)


def _test_days(
    trained: TrainedModel, ds: FlowDataset, method: str
) -> tuple[FlowDataset, tuple[int, int], imputation.ImputationModel]:
    """The model's own table, cleaned: the days its test windows read (the
    test range and the week before it) as a table of their own, the test
    range counted in those days, and the rule fitted on the training days."""
    cleaned = clean(ds)
    fits = (trained.model.spec.p, trained.points_per_day)
    if (cleaned.num_stations, cleaned.points_per_day) != fits:
        raise DataError(
            f"the model fits {fits[0]} stations at {fits[1]} points per day; "
            f"the dataset has {cleaned.num_stations} at {cleaned.points_per_day}"
        )
    days = trained.ranges[2][1]
    if (cleaned.start_date, cleaned.num_days) != (trained.start_date, days):
        raise DataError(
            f"the model was trained on {days} days from {trained.start_date}; "
            f"the dataset has {cleaned.num_days} days from {cleaned.start_date}"
        )
    imputer = imputation.fit(method, cleaned, trained.ranges[0])
    start, stop = trained.ranges[2]
    first = max(0, start - WEEK_DAYS)
    return slice_days(cleaned, (first, stop)), (start - first, stop - first), imputer


def _score_test(
    trained: TrainedModel,
    table: FlowDataset,
    test_range: tuple[int, int],
    imputer: imputation.ImputationModel,
    subject,
    views: Sequence[str] = ("overall",),
):
    """Score the model, or a predictor standing in for it, on the test range
    of a cleaned table under a fitted rule, standardized with the model's
    stats; the windows read the filled values under the cleaned table's mask."""
    flows = standardize_in_place(imputation.fill(imputer, table), trained.stats)
    samples = extract_windows(replace(table, flows=flows), trained.window_cfg, test_range)
    return evaluate(
        subject,
        samples,
        views,
        station_ids=table.station_ids,
        metadata={"arch": trained.arch, "impute": imputer.method},
    )


@dataclass(frozen=True)
class RunTask:
    """Train ``arch`` from build seed ``seed`` under fill rule ``method`` on the
    table with ``ratio`` of its cleaned cells injected by the same seed. The
    rule, ratio and seed are checked on construction, before any run."""

    arch: str
    method: str
    ratio: float
    seed: int

    def __post_init__(self) -> None:
        imputation.check_method(self.method)
        imputation.check_ratio(self.ratio)
        check_seed(self.seed)


@dataclass(frozen=True)
class RunResult:
    """One run's task, training log, trained model and test-window report."""

    task: RunTask
    log: TrainLog
    trained: TrainedModel
    test: EvalReport

    seed = property(lambda self: self.task.seed)
    # The restored weights score exactly what their epoch logged on validation.
    val_mae = property(lambda self: self.log.best_entry.val_mae)
    val_rmse = property(lambda self: self.log.best_entry.val_rmse)
    test_mae = property(lambda self: self.test.mae)
    test_rmse = property(lambda self: self.test.rmse)


def run_tasks(
    ds: FlowDataset, tasks: Sequence[RunTask], cfg: TrainConfig, wcfg: WindowConfig
) -> Iterator[RunResult]:
    """Train and score each task on ``ds``, yielding its result in task order.

    Every architecture is checked against the table before the first run.
    Consecutive tasks that share a fill rule, ratio and (above ratio 0)
    seed share one prepared table, and at most one is held at a time.
    """
    specs = {t.arch: model_spec_for(t.arch, ds.num_stations, wcfg) for t in tasks}
    shared = prepared = None
    for task in tasks:
        table = (task.method, task.ratio, task.seed if task.ratio else None)
        if table != shared:
            shared, prepared = table, None
            injected = imputation.inject_missing(clean(ds), task.ratio, task.seed)
            prepared = prepare_data(injected, task.method, wcfg)
        yield _run(task, specs[task.arch], prepared, cfg)


def _run(
    task: RunTask, spec: ModelSpec, prepared: PreparedData, cfg: TrainConfig
) -> RunResult:
    """Build the task's model, train it on the prepared table and score it on
    the test windows."""
    model = build(spec, task.seed)
    model, log = train(model, prepared.train_samples, prepared.val_samples, cfg)
    trained = TrainedModel(
        model=model,
        arch=task.arch,
        impute_method=task.method,
        stats=prepared.stats,
        window_cfg=prepared.window_cfg,
        ranges=prepared.ranges,
        start_date=prepared.dataset.start_date,
        points_per_day=prepared.dataset.points_per_day,
    )
    return RunResult(task, log, trained, evaluate(model, prepared.test_samples))


def train_once(
    arch: str,
    ds: FlowDataset,
    method: str,
    cfg: TrainConfig,
    wcfg: WindowConfig = WindowConfig(),
    seed: int = 0,
) -> tuple[TrainedModel, TrainLog, PreparedData]:
    """Prepare the dataset and train a single model from one seed."""
    task = RunTask(arch, method, 0.0, seed)
    spec = model_spec_for(arch, ds.num_stations, wcfg)
    prepared = prepare_data(ds, method, wcfg)
    run = _run(task, spec, prepared, cfg)
    return run.trained, run.log, prepared
