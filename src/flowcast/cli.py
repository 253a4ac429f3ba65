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
from .errors import DataError, NumericError, UsageError
from .evaluation import (
    DEFAULT_RATIOS,
    EvalReport,
    VIEWS,
    robustness_sweep,
)
from .hybrid import ARCHITECTURES
from .imputation import MEAN, METHODS
from .synthgen import SynthConfig, generate
from .training import TrainConfig, evaluate_on, run_experiment
from .version import VERSION

CONFIG_VERSION = 1

SUMMARY_KEYS = (
    "val_mae_mean",
    "val_mae_sd",
    "val_rmse_mean",
    "val_rmse_sd",
    "test_mae_mean",
    "test_mae_sd",
    "test_rmse_mean",
    "test_rmse_sd",
)


class _Parser(argparse.ArgumentParser):
    """Argparse that reports bad invocations as UsageError (exit code 1)."""

    def error(self, message):
        raise UsageError(message)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(v for v in text.split(",") if v)


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


def _names(value, what: str) -> list[str]:
    """A comma-separated string or a list of strings, as a list of names."""
    if isinstance(value, str):
        return [v for v in value.split(",") if v]
    if isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value):
        return list(value)
    raise UsageError(f"{what} must be a name, a comma list or a list, got {value!r}")


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
    path = getattr(args, "dataset", None) or _text(config.get("dataset"), "dataset")
    if not path:
        raise UsageError("a dataset is required (--dataset or config dataset)")
    return path


def _distinct(names: list[str], what: str) -> list[str]:
    repeated = [name for name in dict.fromkeys(names) if names.count(name) > 1]
    if repeated:
        raise UsageError(f"{what} lists {', '.join(repeated)} more than once")
    return names


def _resolve_archs(value) -> list[str]:
    names = _names(value, "arch")
    if names == ["all"]:
        return list(ARCHITECTURES)
    for name in names:
        if name not in ARCHITECTURES:
            raise UsageError(
                f"unknown architecture {name!r}; valid names: "
                f"{', '.join(ARCHITECTURES)}"
            )
    if not names:
        raise UsageError("no architecture given")
    return _distinct(names, "arch")


def _resolve_method(value: str) -> str:
    if value not in METHODS:
        raise UsageError(
            f"unknown imputation method {value!r}; choose from {', '.join(METHODS)}"
        )
    return value


def _resolve_methods(value) -> list[str]:
    names = _names(value, "impute")
    if names == ["all"]:
        return list(METHODS)
    return _distinct([_resolve_method(name) for name in names], "impute")


def _window_config(config: dict) -> WindowConfig:
    section = _section(config, "window")
    try:
        return WindowConfig(**section)
    except (TypeError, DataError) as exc:
        raise UsageError(f"invalid window settings: {exc}") from None


def _train_config(args, config: dict, seeds_override=None) -> TrainConfig:
    section = _section(config, "train")
    if getattr(args, "runs", None) is not None:
        section["runs"] = args.runs
    if seeds_override is not None:
        section["seeds"] = seeds_override
    elif args.seed is not None:
        section["seeds"] = args.seed
    if "seeds" not in section:
        raise UsageError(
            "training seeds must be explicit (--seed or config train.seeds)"
        )
    section["seeds"] = _numbers(section["seeds"], (int,), "train seeds")
    section.setdefault("runs", len(section["seeds"]))
    try:
        return TrainConfig(**section)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid train settings: {exc}") from None


def _out_dir(args, config: dict) -> Path:
    out = Path(args.out or _text(config.get("out", "."), "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_synth(args) -> None:
    config = _load_config(args.config) if args.config else {}
    section = _section(config, "synth")
    if args.seed is not None:
        section["seed"] = args.seed[0]
    if "seed" not in section:
        raise UsageError("synth needs an explicit seed (--seed or config synth.seed)")
    try:
        if "start_date" in section:
            section["start_date"] = dt.date.fromisoformat(section["start_date"])
        if "base_profile" in section:
            section["base_profile"] = np.asarray(section["base_profile"], dtype=float)
        cfg = SynthConfig(**section)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid synth settings: {exc}") from None
    ds = generate(cfg)
    out = Path(args.out or _text(config.get("out", "synth.csv"), "out"))
    if out.parent != Path():
        out.parent.mkdir(parents=True, exist_ok=True)
    save_csv(ds, out)
    print(
        f"wrote {ds.num_stations} stations x {ds.num_timestamps} timestamps to {out}"
    )


def cmd_train(args) -> None:
    config = _load_config(args.config) if args.config else {}
    dataset_path = _require_dataset(args, config)
    arch_value = args.arch or config.get("arch")
    if not arch_value:
        raise UsageError("an architecture is required (--arch or config arch)")
    archs = _resolve_archs(arch_value)
    method = _resolve_method(args.impute or config.get("impute", MEAN))
    cfg = _train_config(args, config)
    wcfg = _window_config(config)
    out = _out_dir(args, config)
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

    rows = []
    for arch in archs:
        result = run_experiment(arch, ds, method, cfg, wcfg)
        for run in result.runs:
            name = f"{arch}_{method}_seed{run.seed}"
            save_checkpoint(out / "checkpoints" / f"{name}.npz", run.trained)
            log_path = out / "logs" / f"{name}.jsonl"
            log_path.parent.mkdir(parents=True, exist_ok=True)
            log_path.write_text(run.log.to_json_lines())
        summary = result.summary()
        rows.append([arch, method] + [summary[key] for key in SUMMARY_KEYS])

    _write_csv(out / "metrics.csv", digest, ["arch", "impute", *SUMMARY_KEYS], rows)
    for row in rows:
        print(
            f"{row[0]:<16} val MAE {row[2]:.4f}±{row[3]:.4f} "
            f"RMSE {row[4]:.4f}±{row[5]:.4f} | "
            f"test MAE {row[6]:.4f}±{row[7]:.4f} RMSE {row[8]:.4f}±{row[9]:.4f}"
        )


def cmd_eval(args) -> None:
    config = _load_config(args.config) if args.config else {}
    checkpoint_path = args.checkpoint or _text(config.get("checkpoint"), "checkpoint")
    if not checkpoint_path:
        raise UsageError("a checkpoint is required (--checkpoint or config checkpoint)")
    dataset_path = _require_dataset(args, config)
    views = tuple(args.views or _names(config.get("views", ["overall"]), "views"))
    for view in views:
        if view not in VIEWS:
            raise UsageError(f"unknown view {view!r}; choose from {', '.join(VIEWS)}")
    method = args.impute
    if method is not None:
        method = _resolve_method(method)
    out = _out_dir(args, config)
    trained = load_checkpoint(checkpoint_path)
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
    stamped = EvalReport(
        views=report.views,
        metadata={
            **report.metadata,
            "provenance": {"flowcast": VERSION, "config_sha256": digest},
        },
    )
    (out / "eval_report.json").write_text(stamped.to_json() + "\n")
    wanted = set(views)
    rows = [row for row in stamped.csv_rows() if row[0] in wanted]
    _write_csv(
        out / "eval_report.csv",
        digest,
        ["view", "bucket", "count", "mae", "rmse"],
        rows,
    )
    print(f"overall MAE {report.mae:.6f} RMSE {report.rmse:.6f} ({report.cells} cells)")


def cmd_sweep(args) -> None:
    config = _load_config(args.config) if args.config else {}
    section = _section(config, "sweep")
    dataset_path = _require_dataset(args, config)
    ratios = args.ratios or _numbers(
        section.get("ratios", DEFAULT_RATIOS), (int, float), "sweep ratios"
    )
    scope = args.scope or section.get("scope", "test")
    if scope not in ("test", "all"):
        raise UsageError(f"unknown sweep scope {scope!r}; choose test or all")
    methods = _resolve_methods(args.impute or section.get("impute", "all"))
    seeds = args.seed or _numbers(section.get("seeds", ()), (int,), "sweep seeds")
    if not seeds:
        raise UsageError(
            "injection seeds must be explicit (--seed or config sweep.seeds)"
        )
    wcfg = _window_config(config)
    out = _out_dir(args, config)
    resolved = {
        "command": "sweep",
        "scope": scope,
        "methods": methods,
        "ratios": ratios,
        "seeds": seeds,
    }

    cfg = None
    if scope == "test":
        checkpoint_path = args.checkpoint or _text(
            section.get("checkpoint"), "sweep checkpoint"
        )
        if not checkpoint_path:
            raise UsageError(
                "sweep scope 'test' needs a checkpoint "
                "(--checkpoint or config sweep.checkpoint)"
            )
        subject = load_checkpoint(checkpoint_path)
        resolved["checkpoint_sha256"] = _file_sha256(checkpoint_path)
    else:
        arch_value = args.arch or config.get("arch")
        if not arch_value:
            raise UsageError("sweep scope 'all' needs an architecture (--arch)")
        archs = _resolve_archs(arch_value)
        if len(archs) != 1:
            raise UsageError("sweep retrains exactly one architecture")
        subject = archs[0]
        cfg = _train_config(args, config, seeds_override=seeds)
        resolved["arch"] = subject
        resolved["window"] = dataclasses.asdict(wcfg)
        resolved["train"] = dataclasses.asdict(cfg)

    ds = load_csv(dataset_path)
    resolved["dataset_sha256"] = _file_sha256(dataset_path)
    digest = _config_digest(resolved)
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
        digest,
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

    def common(p):
        p.add_argument("--config", help="JSON experiment config file")
        p.add_argument("--seed", type=_int_list, help="comma-separated seeds")
        p.add_argument("--out", help="output file or directory")

    synth = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    common(synth)
    synth.set_defaults(func=cmd_synth)

    train = sub.add_parser("train", help="train architectures; write metrics CSV")
    common(train)
    train.add_argument("--dataset", help="dataset CSV path")
    train.add_argument("--arch", help="architecture name, comma list, or 'all'")
    train.add_argument("--impute", help="imputation method: mean, median, interp")
    train.add_argument("--runs", type=int, help="number of training runs")
    train.set_defaults(func=cmd_train)

    eval_p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    common(eval_p)
    eval_p.add_argument("--dataset", help="dataset CSV path")
    eval_p.add_argument("--checkpoint", help="checkpoint npz path")
    eval_p.add_argument("--impute", help="override the checkpoint's fill method")
    eval_p.add_argument(
        "--views", type=_str_list, help=f"comma list from {', '.join(VIEWS)}"
    )
    eval_p.set_defaults(func=cmd_eval)

    sweep = sub.add_parser("sweep", help="missing-ratio robustness curves")
    common(sweep)
    sweep.add_argument("--dataset", help="dataset CSV path")
    sweep.add_argument("--checkpoint", help="trained model (scope test)")
    sweep.add_argument("--arch", help="architecture to retrain (scope all)")
    sweep.add_argument("--impute", help="method, comma list, or 'all'")
    sweep.add_argument("--ratios", type=_float_list, help="comma-separated ratios")
    sweep.add_argument("--scope", choices=("test", "all"))
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
