"""The three workloads of the flowcast benchmark, one per fresh process.

run.py starts this script after setting the BLAS thread count in its
environment, so the count is fixed before numpy loads:

    python3 perfbench/bench.py generate --workload W --seed N --dir D
    python3 perfbench/bench.py run --workload W --seed N --dir D --seconds S --trace 0|1

``generate`` writes the workload's inputs (a flow CSV, plus a checkpoint for
sweep-p8) from the seed. ``run`` reads only those files, times the public
functions of ``dataset``, ``imputation``, ``hybrid``, ``training``,
``evaluation`` and ``checkpoint`` from outside, checks every job's outputs
against ``references.json`` and prints a JSON result as its last line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import flowcast  # noqa: E402
from flowcast import (  # noqa: E402
    autodiff,
    checkpoint,
    dataset,
    evaluation,
    hybrid,
    imputation,
    synthgen,
    training,
)
from run import REFERENCES, VARIANTS, WORKLOADS  # noqa: E402
from tracer import Binding, Tracer  # noqa: E402

# Loose enough for last-digit changes in summation order, tight enough that
# a wrong gradient (which moves the trained loss in the second or third
# digit) or a wrong fill rule fails.
REL_TOL = 1e-6

ARCH = "LSTM2-SP-CNN3"
MODEL_SEED = 0
EPOCHS = 1
TRAIN_VIEWS = ("overall", "station", "horizon")
SWEEP_RATIOS = (0.0, 0.03, 0.09, 0.21)
INJECTION_SEEDS = (0, 1, 2)
# Days of training windows behind the sweep checkpoint: a fitted model,
# generated cheaply.
CHECKPOINT_DAYS = 5
SETUP_REPEATS = 15
SETUP_GROUPS = 5
# Share of the budget that set-ups may take, so that costly set-ups
# (baselines-p64 parses a 20 MB CSV) leave the jobs enough of the run.
SETUP_SHARE = 1 / 3
CSV = "flows.csv"
CHECKPOINT = "model.npz"


@dataclass(frozen=True)
class Size:
    small_p: int
    large_p: int
    days: int


SIZES = {"full": Size(small_p=8, large_p=64, days=60), "tiny": Size(4, 6, 20)}

SPANS = (
    "dataset.load_csv",
    "dataset.extract_windows",
    "dataset.stack_batch",
    "imputation.fit",
    "imputation.impute",
    "imputation.inject_missing",
    "autodiff.backward",
    "layers.lstm_layer",
    "layers.conv_stack",
    "layers.dense",
    "hybrid.forward_batch",
    "training.prepare_data",
    "training.train",
    "training.mse_loss",
    "training.adam_step",
    "training.evaluate_on",
    "evaluation.evaluate",
    "evaluation.robustness_sweep",
    "checkpoint.load_checkpoint",
)
MODULES = tuple(dict.fromkeys(name.split(".")[0] for name in SPANS))


def _nbytes(samples) -> int:
    """Bytes of the numpy arrays held by a list of window samples."""
    return sum(
        v.nbytes for s in samples for v in vars(s).values() if isinstance(v, np.ndarray)
    )


def bindings() -> list[Binding]:
    """Every place a traced function is looked up at call time."""

    def windows(result) -> dict:
        # Every window of one call has the same shapes, so one window's size
        # gives them all without walking the list inside the parent's span.
        return {"windows": len(result), "bytes": len(result) * _nbytes(result[:1])}

    def cells(report) -> dict:
        return {"cells": report.cells}

    return [
        Binding("dataset.load_csv", dataset, "load_csv"),
        Binding("dataset.extract_windows", training, "extract_windows", windows),
        Binding("dataset.stack_batch", training, "stack_batch"),
        Binding("dataset.stack_batch", evaluation, "stack_batch"),
        Binding("imputation.fit", imputation, "fit"),
        Binding("imputation.impute", imputation, "impute"),
        Binding("imputation.inject_missing", imputation, "inject_missing"),
        Binding("autodiff.backward", training, "backward"),
        Binding("layers.lstm_layer", hybrid, "lstm_layer"),
        Binding("layers.conv_stack", hybrid, "conv_stack"),
        Binding("layers.dense", hybrid, "dense"),
        Binding("hybrid.forward_batch", training, "forward_batch"),
        Binding("hybrid.forward_batch", evaluation, "forward_batch"),
        Binding("training.prepare_data", training, "prepare_data"),
        Binding("training.train", training, "train"),
        Binding("training.mse_loss", training, "mse_loss"),
        Binding("training.adam_step", training, "adam_step"),
        Binding("training.evaluate_on", training, "evaluate_on"),
        Binding("evaluation.evaluate", evaluation, "evaluate", cells),
        Binding("evaluation.evaluate", training, "evaluate", cells),
        Binding("evaluation.robustness_sweep", evaluation, "robustness_sweep"),
        Binding("checkpoint.load_checkpoint", checkpoint, "load_checkpoint"),
    ]


def node_counter() -> Callable[[], int]:
    """Reads the autodiff node-id counter without advancing it.

    Raises when the counter cannot be read, so that a refactored autodiff
    fails the traced run instead of reporting 0 nodes per step.
    """
    counter = autodiff._node_ids

    def read() -> int:
        text = repr(counter)
        if not (text.startswith("count(") and text.endswith(")")):
            raise TypeError(f"autodiff._node_ids is not an itertools.count: {text}")
        return int(text[len("count(") : -1])

    read()
    return read


# -- inputs -----------------------------------------------------------------


def synth_config(workload: str, size: Size, variant: int) -> synthgen.SynthConfig:
    if workload == "train-p8":
        return synthgen.SynthConfig(
            p=size.small_p, days=size.days, native_missing_ratio=0.0, seed=variant
        )
    if workload == "sweep-p8":
        return synthgen.SynthConfig(
            p=size.small_p, days=size.days, native_missing_ratio=0.02, seed=variant
        )
    return synthgen.SynthConfig(
        p=size.large_p, days=size.days, native_missing_ratio=0.05, seed=variant
    )


def generate(workload: str, size: Size, variant: int, directory: Path) -> None:
    ds = synthgen.generate(synth_config(workload, size, variant))
    dataset.save_csv(ds, directory / CSV)
    if workload != "sweep-p8":
        return
    prep = training.prepare_data(ds, imputation.MEAN)
    spec = training.model_spec_for(ARCH, ds.num_stations, prep.window_cfg)
    model = hybrid.build(spec, MODEL_SEED)
    per_day = len(dataset.window_positions(prep.window_cfg, ds.points_per_day))
    cfg = training.TrainConfig(max_epochs=1, runs=1, seeds=(MODEL_SEED,))
    training.train(
        model,
        prep.train_samples[: CHECKPOINT_DAYS * per_day],
        prep.val_samples,
        cfg,
        ds.points_per_day,
    )
    trained = training.TrainedModel(
        model=model,
        arch=ARCH,
        impute_method=imputation.MEAN,
        stats=prep.stats,
        window_cfg=prep.window_cfg,
        ranges=prep.ranges,
        start_date=ds.start_date,
        points_per_day=ds.points_per_day,
    )
    checkpoint.save_checkpoint(directory / CHECKPOINT, trained)


def csv_digest(directory: Path) -> str:
    """sha256 over the generated flow table: the CSV and the sidecar that
    ``save_csv`` writes next to it. They are made without running the
    forecaster, so they must match the pinned hash exactly."""
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        if path.name == CHECKPOINT:
            continue
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def checkpoint_fingerprint(directory: Path) -> dict:
    """What the sweep checkpoint holds, for comparison at REL_TOL.

    The checkpoint comes out of ``training.train`` on the commit being
    measured, so its bytes move with any change of float rounding in the
    forecaster. Its manifest (less the parameter byte hashes and the package
    version) and the count, absolute sum and squared sum of all
    parameters are compared instead, which lets summation-order changes
    through and catches a wrong gradient.
    """
    path = directory / CHECKPOINT
    if not path.exists():
        return {}
    with np.load(path, allow_pickle=False) as archive:
        manifest = json.loads(str(archive["manifest"]))
        params = [archive[k] for k in archive.files if k.startswith("param/")]
    for key in ("params", "digest", "flowcast_version"):
        manifest.pop(key, None)
    out = {}

    def flatten(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key, item in value.items():
                flatten(f"{prefix}.{key}", item)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                flatten(f"{prefix}.{i}", item)
        else:
            out[prefix] = value

    flatten("manifest", manifest)
    flat = np.concatenate([np.ravel(a) for a in params]) if params else np.zeros(0)
    out["params.count"] = int(flat.size)
    out["params.abs_sum"] = float(np.abs(flat).sum())
    out["params.sq_sum"] = float(np.square(flat).sum())
    return out


# -- workloads ----------------------------------------------------------------


def windows_in(day_range, wcfg, points_per_day: int) -> int:
    """Window count for a day range, from the window arithmetic alone."""
    start, stop = day_range
    days = max(0, stop - max(start, dataset.WEEK_DAYS))
    return days * len(dataset.window_positions(wcfg, points_per_day))


@dataclass
class Work:
    """One workload after set-up: a repeatable job and what it costs."""

    job: Callable[[], dict]
    windows: int  # windows passed through a forecaster per job
    ops: int  # steps, evaluate/evaluate_on and prepare_data calls per job
    setup_outputs: dict
    setup_ops: int = 0


def setup_train(directory: Path) -> Work:
    ds = dataset.load_csv(directory / CSV)
    prep = training.prepare_data(ds, imputation.MEAN)
    spec = training.model_spec_for(ARCH, ds.num_stations, prep.window_cfg)
    model = hybrid.build(spec, MODEL_SEED)
    ppd = ds.points_per_day
    cfg = training.TrainConfig(max_epochs=EPOCHS, runs=1, seeds=(MODEL_SEED,))
    train_range = prep.ranges[0]
    counts = {
        name: windows_in(r, prep.window_cfg, ppd)
        for name, r in zip(("train", "val", "test"), prep.ranges)
    }
    # One Adam step per training day that has a week of history.
    steps = max(0, train_range[1] - max(train_range[0], dataset.WEEK_DAYS))

    def job() -> dict:
        _, log = training.train(model, prep.train_samples, prep.val_samples, cfg, ppd)
        report = evaluation.evaluate(model, prep.test_samples, TRAIN_VIEWS, ppd)
        return {
            "train_loss": log.entries[-1].train_loss,
            "best_val_mae": min(e.val_mae for e in log.entries),
            "test_mae": report.mae,
            "test_rmse": report.rmse,
            "test_cells": report.cells,
        }

    return Work(
        job=job,
        windows=EPOCHS * (counts["train"] + counts["val"]) + counts["test"],
        ops=EPOCHS * (steps + 1) + 1,
        setup_outputs={
            "train_windows": len(prep.train_samples),
            "val_windows": len(prep.val_samples),
            "test_windows": len(prep.test_samples),
        },
        setup_ops=1,
    )


def setup_sweep(directory: Path) -> Work:
    ds = dataset.load_csv(directory / CSV)
    trained = checkpoint.load_checkpoint(directory / CHECKPOINT)
    per_call = windows_in(trained.ranges[2], trained.window_cfg, ds.points_per_day)
    calls = 1 + (len(SWEEP_RATIOS) - 1) * len(INJECTION_SEEDS)

    def job() -> dict:
        out = {}
        for method in imputation.METHODS:
            result = evaluation.robustness_sweep(
                trained,
                ds,
                method,
                ratios=SWEEP_RATIOS,
                scope="test",
                injection_seeds=INJECTION_SEEDS,
            )
            for pt in result.points:
                key = f"{method}.{pt.ratio:g}"
                out[f"{key}.mae"] = pt.mae_mean
                out[f"{key}.rmse"] = pt.rmse_mean
                for i, cells in enumerate(pt.seed_cells):
                    out[f"{key}.cells{i}"] = cells
        return out

    n = len(imputation.METHODS)
    return Work(
        job=job,
        windows=n * calls * per_call,
        ops=n * calls,
        setup_outputs={"checkpoint_arch": trained.arch, "test_windows": per_call},
    )


def setup_baselines(directory: Path) -> Work:
    ds = dataset.load_csv(directory / CSV)
    ppd = ds.points_per_day
    where = {"start_date": ds.start_date, "station_ids": ds.station_ids}
    views = evaluation.VIEWS

    def job() -> dict:
        out = {}
        for method in imputation.METHODS:
            prep = training.prepare_data(ds, method)
            h = prep.window_cfg.h
            persistence = evaluation.evaluate(
                evaluation.persistence_predictor(h), prep.test_samples, views, ppd, **where
            )
            history = evaluation.historical_mean_predictor(
                prep.dataset, prep.ranges[0], h
            )
            hist = evaluation.evaluate(
                history, prep.val_samples + prep.test_samples, views, ppd, **where
            )
            out[f"{method}.train_windows"] = len(prep.train_samples)
            out[f"{method}.val_windows"] = len(prep.val_samples)
            out[f"{method}.test_windows"] = len(prep.test_samples)
            for name, report in (("persistence", persistence), ("history", hist)):
                out[f"{method}.{name}.mae"] = report.mae
                out[f"{method}.{name}.rmse"] = report.rmse
                out[f"{method}.{name}.cells"] = report.cells
                for view, vm in report.views.items():
                    out[f"{method}.{name}.{view}.mae_sum"] = float(np.nansum(vm.mae))
            # Free this method's windows before the next prepare_data builds its own.
            del prep
        return out

    wcfg = dataset.WindowConfig()
    ranges = dataset.split(ds)
    test = windows_in(ranges[2], wcfg, ppd)
    windows = len(imputation.METHODS) * (2 * test + windows_in(ranges[1], wcfg, ppd))
    return Work(job=job, windows=windows, ops=3 * len(imputation.METHODS), setup_outputs={})


SETUPS = {"train-p8": setup_train, "sweep-p8": setup_sweep, "baselines-p64": setup_baselines}


# -- measurement ---------------------------------------------------------------


@dataclass
class Phase:
    setup_seconds: list
    setup_outputs: list
    job_seconds: list
    outputs: list
    windows: int
    attempted: int
    failed_ops: int  # operations of jobs that raised

    @property
    def windows_per_s(self) -> float:
        return self.windows / sum(self.job_seconds)


def measure(
    setup, directory: Path, budget: float, setups: int, tracer: Tracer | None = None
) -> Phase:
    """Closed loop for about ``budget`` seconds, set-ups included.

    A round sets the workload up and runs one job on that fresh set-up, so
    jobs share no state. The set-up target is ``setups``, or fewer (but at
    least SETUP_GROUPS) when the first set-up shows that so many would take
    more than SETUP_SHARE of the budget. After each job, extra set-ups keep
    the set-up count in step with the share of the budget spent, so that the
    set-up samples spread over the whole run instead of sharing one slow
    moment of the machine. Another round starts only while its expected end,
    at the mean round time so far, overruns the budget by less than half a
    round. Set-ups are topped up to the target after the last job.
    """
    clock = time.perf_counter
    phase = Phase([], [], [], [], 0, 0, 0)

    def set_up() -> Work:
        gc.collect()
        began = clock()
        work = setup(directory)
        phase.setup_seconds.append(clock() - began)
        phase.setup_outputs.append(work.setup_outputs)
        phase.attempted += work.setup_ops
        return work

    start = clock()
    target = setups
    while True:
        work = set_up()
        if len(phase.setup_seconds) == 1 and budget > 0:
            fit = int(SETUP_SHARE * budget / phase.setup_seconds[0])
            target = min(setups, max(fit, SETUP_GROUPS))
        if tracer is not None:
            tracer.job = len(phase.job_seconds)
        began = clock()
        try:
            phase.outputs.append(work.job())
        except Exception:
            traceback.print_exc()
            phase.failed_ops += work.ops
        phase.job_seconds.append(clock() - began)
        phase.windows += work.windows
        phase.attempted += work.ops
        work = None
        share = (clock() - start) / budget if budget > 0 else 1.0
        while len(phase.setup_seconds) < min(math.ceil(target * share), target):
            set_up()
        elapsed = clock() - start
        if elapsed + 0.5 * elapsed / len(phase.job_seconds) >= budget:
            break
    while len(phase.setup_seconds) < target:
        set_up()
    return phase


def setup_seconds(samples: list[float]) -> float:
    """Median over SETUP_GROUPS groups of the mean set-up time, where group i
    takes set-ups i, i + SETUP_GROUPS, ... so that each spans the whole run.

    On a shared machine set-up times are bimodal: a set-up runs either fast
    or up to twice as slow, in spells. The median of single set-ups snaps to
    whichever mode held the majority of a run; group means average the modes
    as ``windows_per_s`` averages its jobs, and their median drops a group
    that one outlier moved.
    """
    groups = [samples[i::SETUP_GROUPS] for i in range(SETUP_GROUPS)]
    return statistics.median(statistics.fmean(g) for g in groups)


def mismatches(expected: dict, actual: dict, where: str) -> list[str]:
    """Exact for integers and strings, REL_TOL for floats."""
    problems = []
    for key, want in expected.items():
        got = actual.get(key)
        if isinstance(want, float):
            ok = isinstance(got, (int, float)) and math.isclose(
                got, want, rel_tol=REL_TOL, abs_tol=1e-12
            )
        else:
            ok = got == want
        if not ok:
            problems.append(f"{where}.{key}: expected {want!r}, got {got!r}")
    for key in actual.keys() - expected.keys():
        problems.append(f"{where}.{key}: no reference value")
    return problems


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer: Tracer, traced: Phase, untraced: Phase) -> dict:
    stats = tracer.by_name()
    empty = {"self_s": 0.0, "calls": 0, "p50_ms": 0.0, "p90_ms": 0.0}
    units = {"self_s": "s", "calls": "count", "p50_ms": "ms", "p90_ms": "ms"}
    m = {}
    for name in SPANS:
        for key, value in stats.get(name, empty).items():
            m[f"{name}.{key}"] = (value, units[key])

    spans = tracer.spans
    extract = [s for s in spans if s.name == "dataset.extract_windows"]
    per_parent: dict[int, int] = {}
    for s in extract:
        per_parent[s.parent] = per_parent.get(s.parent, 0) + s.counts.get("bytes", 0)
    m["dataset.extract_windows.windows"] = (
        sum(s.counts.get("windows", 0) for s in extract),
        "count",
    )
    m["dataset.window_mb"] = (max(per_parent.values(), default=0) / 2**20, "MiB")

    step_ms, nodes = [], []
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    for index, s in enumerate(spans):
        if s.name != "training.train":
            continue
        first = None
        for child in children.get(index, []):
            if child.name == "hybrid.forward_batch":
                first = child
            elif child.name == "training.adam_step" and first is not None:
                step_ms.append((child.end - first.start) * 1e3)
                nodes.append(child.mark_end - first.mark_start)
                first = None
    m["training.steps"] = (len(step_ms), "count")
    m["training.step_ms.p50"] = (float(np.percentile(step_ms, 50)) if step_ms else 0.0, "ms")
    m["training.step_ms.p90"] = (float(np.percentile(step_ms, 90)) if step_ms else 0.0, "ms")
    m["autodiff.nodes_per_step"] = (float(np.median(nodes)) if nodes else 0.0, "count")
    m["evaluation.evaluate.cells"] = (
        sum(s.counts.get("cells", 0) for s in spans if s.name == "evaluation.evaluate"),
        "count",
    )
    m["runtime.gc_s"] = (tracer.gc_s, "s")
    m["runtime.gc_collections"] = (tracer.gc_collections, "count")
    errors = tracer.errors_by_module()
    for module in MODULES:
        m[f"{module}.errors"] = (errors.get(module, 0), "count")
    m["traced_wall_s"] = (tracer.stopped - tracer.started, "s")
    m["untracked_s"] = (tracer.untracked_s(), "s")
    m["trace_overhead_ratio"] = (traced.windows_per_s / untraced.windows_per_s, "ratio")
    return m


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run(args) -> dict:
    directory = Path(args.dir)
    variant = args.seed % VARIANTS
    inputs = csv_digest(directory)
    fingerprint = checkpoint_fingerprint(directory)
    refs = json.loads(REFERENCES.read_text()).get(args.workload, {})
    ref = refs.get(args.size, {}).get(str(variant))
    setup = SETUPS[args.workload]
    budget = args.seconds / 2 if args.trace else args.seconds
    if args.trace:
        mark = node_counter()
        # An unmeasured round first, so that neither half of the overhead
        # ratio carries the process's cold start.
        setup(directory).job()
    # setup_s needs many set-up samples; the traced run reports no setup_s,
    # so its halves set up once per round and spend their budget on jobs.
    setups = 1 if args.trace else SETUP_REPEATS
    phases = [measure(setup, directory, budget, setups)]
    tracer = None
    if args.trace:
        gc.collect()
        tracer = Tracer(mark=mark)
        tracer.install(bindings())
        try:
            phases.append(measure(setup, directory, budget, setups, tracer))
        finally:
            tracer.uninstall()

    problems = []
    if ref is None:
        problems.append(f"no reference for {args.workload}/{args.size}/{variant}")
        ref = {"inputs_sha256": inputs, "checkpoint": fingerprint, "setup": {}, "outputs": {}}
    if ref["inputs_sha256"] != inputs:
        problems.append(
            f"inputs_sha256: expected {ref['inputs_sha256']}, got {inputs}; "
            "the generator changed, so results are not comparable"
        )
    attempted = failed = 0
    found = mismatches(ref["checkpoint"], fingerprint, "checkpoint")
    problems += found
    failed += len(found)
    for p in phases:
        attempted += p.attempted
        failed += p.failed_ops
        for i, outputs in enumerate(p.setup_outputs):
            found = mismatches(ref["setup"], outputs, f"setup{i}")
            problems += found
            failed += len(found)
        for i, outputs in enumerate(p.outputs):
            found = mismatches(ref["outputs"], outputs, f"job{i}")
            problems += found
            failed += len(found)
    if problems and failed == 0:
        failed = 1
    failed = min(failed, attempted)

    if tracer is None:
        metrics = {
            "windows_per_s": (phases[0].windows_per_s, "1/s"),
            "setup_s": (setup_seconds(phases[0].setup_seconds), "s"),
            "peak_rss_mb": (peak_rss_mib(), "MiB"),
        }
    else:
        metrics = layer_metrics(tracer, phases[1], phases[0])
        metrics["ops_failed_ratio"] = (failed / attempted, "ratio")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "variant": variant,
        "size": args.size,
        "trace": args.trace,
        "inputs_sha256": inputs,
        "checkpoint": fingerprint,
        "env": environment(),
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "job_seconds": [p.job_seconds for p in phases],
        "setup_seconds": [p.setup_seconds for p in phases],
        "setup_outputs": phases[-1].setup_outputs[0],
        "outputs": phases[-1].outputs[:1],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": [
            [s.name, s.start, s.end, s.parent, s.job, s.error]
            for s in (tracer.spans if tracer else [])
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("generate", "run"))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(flowcast.__file__).resolve().parent != SRC / "flowcast":
        print(f"flowcast imported from {flowcast.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.mode == "generate":
        generate(args.workload, SIZES[args.size], args.seed % VARIANTS, Path(args.dir))
        print(json.dumps({"inputs_sha256": csv_digest(Path(args.dir))}))
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
