"""Command-line interface: synth, train, eval, and sweep subcommands.

Every command is a pure function of its config file and input files; metric
outputs carry a provenance header (artifact version plus the config hash) so
reruns are byte-comparable. Exit codes: 0 success, 1 usage, 2 data error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .dataset import WindowConfig, load_csv, save_csv
from .errors import DataError, NumericError, UsageError, check_seeds
from .evaluation import DEFAULT_RATIOS, VIEWS, _check_ratios, mean_sd, robustness_sweep
from .hybrid import ARCHITECTURES
from .imputation import MEAN, METHODS
from .synthgen import SynthConfig, generate
from .training import RunTask, TrainConfig, evaluate_on, run_tasks
from .version import VERSION

CONFIG_VERSION = 1

METRICS = ("val_mae", "val_rmse", "test_mae", "test_rmse")
SUMMARY_KEYS = tuple(f"{name}_{stat}" for name in METRICS for stat in ("mean", "sd"))


class _Parser(argparse.ArgumentParser):
    """Argparse that reports bad invocations as UsageError (exit code 1)."""

    def error(self, message):
        raise UsageError(message)


def _list(kind: type, what: str):
    """Argparse type for a comma-separated list of values of one kind."""

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(v) for v in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}"
            ) from None

    return parse


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise UsageError(f"config {path} must be a JSON object")
    if payload.get("config_version") != CONFIG_VERSION:
        raise UsageError(
            f"config_version must be {CONFIG_VERSION}, "
            f"got {payload.get('config_version')!r}"
        )
    return payload


def _is_number(value, kinds: tuple[type, ...]) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


def _section(config: dict, name: str) -> dict:
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise UsageError(f"config {name} must be an object, got {section!r}")
    return dict(section)


def _text(value, what: str):
    if value is not None and not isinstance(value, str):
        raise UsageError(f"{what} must be a string, got {value!r}")
    return value


def _choose(value, valid, what: str) -> list[str]:
    """The names a comma string or a list of strings gives, in order.

    ``all`` stands for every valid name; an unknown or repeated name, or
    none at all, is a usage error.
    """
    if isinstance(value, str):
        names = [v for v in value.split(",") if v]
    elif isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value):
        names = list(value)
    else:
        raise UsageError(f"{what} must be a name, a comma list or a list, got {value!r}")
    if names == ["all"]:
        return list(valid)
    for name in names:
        if name not in valid:
            raise UsageError(f"unknown {what} {name!r}; choose from {', '.join(valid)}")
    repeated = [name for name in dict.fromkeys(names) if names.count(name) > 1]
    if repeated:
        raise UsageError(f"the {what} list names {', '.join(repeated)} more than once")
    if not names:
        raise UsageError(f"no {what} given")
    return names


def _one(value, valid, what: str) -> str:
    """The single name ``value`` chooses."""
    names = _choose(value, valid, what)
    if len(names) != 1:
        raise UsageError(f"give one {what}, got {', '.join(names)}")
    return names[0]


def _numbers(value, kinds: tuple[type, ...], what: str) -> tuple:
    """A list of numbers of the given JSON types, as a tuple of the values read."""
    if isinstance(value, (list, tuple)) and all(_is_number(v, kinds) for v in value):
        return tuple(value)
    raise UsageError(f"{what} must be a list of numbers, got {value!r}")


def _file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _config_digest(resolved: dict) -> str:
    """Hash of the effective settings: config file and flags, resolved."""
    blob = json.dumps(resolved, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _provenance(digest: str) -> list[str]:
    return [f"# flowcast {VERSION}", f"# config sha256 {digest}"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, digest: str, header: list[str], rows) -> None:
    lines = _provenance(digest)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _require_dataset(args, config: dict) -> str:
    path = args.dataset or _text(config.get("dataset"), "dataset")
    if not path:
        raise UsageError("a dataset is required (--dataset or config dataset)")
    return path


def _window_config(config: dict) -> WindowConfig:
    section = _section(config, "window")
    try:
        return WindowConfig(**section)
    except (TypeError, DataError) as exc:
        raise UsageError(f"invalid window settings: {exc}") from None


def _checkpoint_window(config: dict, trained, checkpoint_path) -> None:
    """Reject a config window section that is invalid or unlike the
    checkpoint's window, which ``eval`` and test-scope sweeps score with."""
    if "window" not in config:
        return
    have = dataclasses.asdict(trained.window_cfg)
    try:
        wcfg = _window_config(config)
    except UsageError as exc:
        raise UsageError(f"{exc}; checkpoint {checkpoint_path} has window {have}") from None
    if wcfg != trained.window_cfg:
        raise UsageError(
            f"config window {dataclasses.asdict(wcfg)} differs from checkpoint "
            f"{checkpoint_path} window {have}, which eval and test sweeps use"
        )


def _train_config(config: dict, **flags) -> TrainConfig:
    """The config's train section with the flags that are set laid over it."""
    section = _section(config, "train")
    section.update((key, value) for key, value in flags.items() if value is not None)
    if "seeds" not in section:
        raise UsageError(
            "training seeds must be explicit (--seed or config train.seeds)"
        )
    section["seeds"] = _numbers(section["seeds"], (int,), "train seeds")
    section.setdefault("runs", len(section["seeds"]))
    try:
        return TrainConfig(**section)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"invalid train settings: {exc}") from None


def _claim(*paths: Path) -> None:
    """Make the directories the result files go in, before any work is done.

    A result path taken by a directory, or a directory that cannot be made,
    is a usage error, raised before anything is made.
    """
    for path in paths:
        if path.is_dir():
            raise UsageError(f"result path {path} is a directory")
    for folder in dict.fromkeys(path.parent for path in paths):
        try:
            folder.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(
                f"cannot make output directory {folder}: {exc.strerror}"
            ) from None


def _out(args, config: dict, default: str = ".") -> Path:
    """The result path: ``--out``, else config ``out``, else ``default``
    (a null ``out`` is no value, as for every other config path)."""
    out = args.out or _text(config.get("out"), "out")
    return Path(default if out is None else out)


def cmd_synth(args, config: dict) -> None:
    section = _section(config, "synth")
    if args.seed is not None:
        section["seed"] = args.seed
    if "seed" not in section:
        raise UsageError("synth needs an explicit seed (--seed or config synth.seed)")
    try:
        if "start_date" in section:
            section["start_date"] = dt.date.fromisoformat(section["start_date"])
        if "base_profile" in section:
            section["base_profile"] = np.asarray(section["base_profile"], dtype=float)
        cfg = SynthConfig(**section)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"invalid synth settings: {exc}") from None
    out = _out(args, config, "synth.csv")
    _claim(out)
    ds = generate(cfg)
    save_csv(ds, out)
    print(
        f"wrote {ds.num_stations} stations x {ds.num_timestamps} timestamps to {out}"
    )


def cmd_train(args, config: dict) -> None:
    dataset_path = _require_dataset(args, config)
    arch_value = args.arch or config.get("arch")
    if not arch_value:
        raise UsageError("an architecture is required (--arch or config arch)")
    archs = _choose(arch_value, ARCHITECTURES, "architecture")
    method = _one(args.impute or config.get("impute", MEAN), METHODS, "imputation method")
    cfg = _train_config(config, seeds=args.seed, runs=args.runs)
    wcfg = _window_config(config)
    tasks = [RunTask(a, method, 0.0, s) for a in archs for s in cfg.seeds[: cfg.runs]]
    out = _out(args, config)
    names = [f"{task.arch}_{method}_seed{task.seed}" for task in tasks]
    checkpoints = [out / "checkpoints" / f"{name}.npz" for name in names]
    logs = [out / "logs" / f"{name}.jsonl" for name in names]
    _claim(out / "metrics.csv", *checkpoints, *logs)
    ds = load_csv(dataset_path)
    digest = _config_digest(
        {
            "command": "train",
            "dataset_sha256": _file_sha256(dataset_path),
            "arch": archs,
            "impute": method,
            "window": dataclasses.asdict(wcfg),
            "train": dataclasses.asdict(cfg),
        }
    )

    scores = {arch: [] for arch in archs}
    for run, checkpoint, log in zip(run_tasks(ds, tasks, cfg, wcfg), checkpoints, logs):
        save_checkpoint(checkpoint, run.trained)
        log.write_text(run.log.to_json_lines())
        scores[run.task.arch].append([getattr(run, metric) for metric in METRICS])
    rows = [
        [arch, method, *(x for column in zip(*runs) for x in mean_sd(column))]
        for arch, runs in scores.items()
    ]

    _write_csv(out / "metrics.csv", digest, ["arch", "impute", *SUMMARY_KEYS], rows)
    for row in rows:
        print(
            f"{row[0]:<16} val MAE {row[2]:.4f}±{row[3]:.4f} "
            f"RMSE {row[4]:.4f}±{row[5]:.4f} | "
            f"test MAE {row[6]:.4f}±{row[7]:.4f} RMSE {row[8]:.4f}±{row[9]:.4f}"
        )


def cmd_eval(args, config: dict) -> None:
    checkpoint_path = args.checkpoint or _text(config.get("checkpoint"), "checkpoint")
    if not checkpoint_path:
        raise UsageError("a checkpoint is required (--checkpoint or config checkpoint)")
    dataset_path = _require_dataset(args, config)
    views = _choose(args.views or config.get("views", "overall"), VIEWS, "view")
    method = args.impute
    if method is not None:
        method = _one(method, METHODS, "imputation method")
    trained = load_checkpoint(checkpoint_path)
    _checkpoint_window(config, trained, checkpoint_path)
    out = _out(args, config)
    _claim(out / "eval_report.json", out / "eval_report.csv")
    ds = load_csv(dataset_path)
    digest = _config_digest(
        {
            "command": "eval",
            "checkpoint_sha256": _file_sha256(checkpoint_path),
            "dataset_sha256": _file_sha256(dataset_path),
            "views": views,
            "impute": method,
        }
    )
    report = evaluate_on(trained, ds, views=views, method=method)
    report.metadata["provenance"] = {"flowcast": VERSION, "config_sha256": digest}
    (out / "eval_report.json").write_text(report.to_json() + "\n")
    rows = [row for row in report.csv_rows() if row[0] in views]
    _write_csv(
        out / "eval_report.csv",
        digest,
        ["view", "bucket", "count", "mae", "rmse"],
        rows,
    )
    print(f"overall MAE {report.mae:.6f} RMSE {report.rmse:.6f} ({report.cells} cells)")


def cmd_sweep(args, config: dict) -> None:
    section = _section(config, "sweep")
    dataset_path = _require_dataset(args, config)
    ratios = args.ratios or _numbers(
        section.get("ratios", DEFAULT_RATIOS), (int, float), "sweep ratios"
    )
    scope = args.scope or section.get("scope", "test")
    if scope not in ("test", "all"):
        raise UsageError(f"unknown sweep scope {scope!r}; choose test or all")
    methods = _choose(
        args.impute or section.get("impute", "all"), METHODS, "imputation method"
    )
    seeds = args.seed or _numbers(section.get("seeds", ()), (int,), "sweep seeds")
    if not seeds:
        raise UsageError(
            "injection seeds must be explicit (--seed or config sweep.seeds)"
        )
    resolved = {"command": "sweep", "scope": scope, "methods": methods, "seeds": seeds}
    # The grid, and a test-scope sweep's seeds, are checked as the sweep
    # would check them, before anything is read or made; the checked grid is
    # hashed, alike however it was written.
    resolved["ratios"] = _check_ratios(ratios)

    cfg = wcfg = None
    if scope == "test":
        check_seeds(seeds)
        checkpoint_path = args.checkpoint or _text(
            section.get("checkpoint"), "sweep checkpoint"
        )
        if not checkpoint_path:
            raise UsageError(
                "sweep scope 'test' needs a checkpoint "
                "(--checkpoint or config sweep.checkpoint)"
            )
        subject = load_checkpoint(checkpoint_path)
        _checkpoint_window(config, subject, checkpoint_path)
        resolved["checkpoint_sha256"] = _file_sha256(checkpoint_path)
    else:
        arch_value = args.arch or config.get("arch")
        if not arch_value:
            raise UsageError("sweep scope 'all' needs an architecture (--arch)")
        subject = _one(arch_value, ARCHITECTURES, "architecture")
        cfg = _train_config(config, seeds=seeds, runs=len(seeds))
        wcfg = _window_config(config)
        resolved["arch"] = subject
        resolved["window"] = dataclasses.asdict(wcfg)
        resolved["train"] = dataclasses.asdict(cfg)

    out = _out(args, config)
    _claim(out / "sweep.csv")
    ds = load_csv(dataset_path)
    resolved["dataset_sha256"] = _file_sha256(dataset_path)
    rows = []
    for method in methods:
        sweep = robustness_sweep(
            subject,
            ds,
            method,
            ratios=ratios,
            scope=scope,
            injection_seeds=seeds,
            cfg=cfg,
            window_cfg=wcfg,
        )
        for pt in sweep.points:
            rows.append(
                [pt.ratio, method, pt.mae_mean, pt.mae_sd, pt.rmse_mean, pt.rmse_sd]
            )
        if 0.21 in sweep.ratios:
            print(f"{method}: degradation at 21% = {sweep.degradation():.4f}")

    _write_csv(
        out / "sweep.csv",
        _config_digest(resolved),
        ["ratio", "method", "mae_mean", "mae_sd", "rmse_mean", "rmse_sd"],
        rows,
    )
    print(f"wrote {len(rows)} sweep rows to {out / 'sweep.csv'}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flowcast",
        description="Hybrid LSTM/CNN traffic-flow forecasting experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    seeds = _list(int, "integers")

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON experiment config file")
        p.add_argument("--out", help="output file or directory")
        p.set_defaults(func=func)
        return p

    synth = command("synth", cmd_synth, "generate a synthetic dataset CSV")
    synth.add_argument("--seed", type=int, help="generator seed")

    train = command("train", cmd_train, "train architectures; write metrics CSV")
    train.add_argument("--dataset", help="dataset CSV path")
    train.add_argument("--arch", help="architecture name, comma list, or 'all'")
    train.add_argument("--impute", help="imputation method: mean, median, interp")
    train.add_argument("--seed", type=seeds, help="comma-separated training seeds")
    train.add_argument("--runs", type=int, help="number of training runs")

    eval_p = command("eval", cmd_eval, "score a checkpoint on a dataset")
    eval_p.add_argument("--dataset", help="dataset CSV path")
    eval_p.add_argument("--checkpoint", help="checkpoint npz path")
    eval_p.add_argument("--impute", help="override the checkpoint's fill method")
    eval_p.add_argument("--views", help=f"comma list from {', '.join(VIEWS)}, or 'all'")

    sweep = command("sweep", cmd_sweep, "missing-ratio robustness curves")
    sweep.add_argument("--dataset", help="dataset CSV path")
    sweep.add_argument("--checkpoint", help="trained model (scope test)")
    sweep.add_argument("--arch", help="architecture to retrain (scope all)")
    sweep.add_argument("--impute", help="method, comma list, or 'all'")
    sweep.add_argument("--seed", type=seeds, help="comma-separated injection seeds")
    sweep.add_argument(
        "--ratios", type=_list(float, "numbers"), help="comma-separated ratios"
    )
    sweep.add_argument("--scope", choices=("test", "all"))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args, _load_config(args.config) if args.config else {})
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except ChildProcessError as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
