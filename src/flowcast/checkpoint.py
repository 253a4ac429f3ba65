"""Checkpoint archives: parameters plus a JSON manifest in one npz file.

The manifest records the architecture, window and imputation settings, split
ranges, standardization statistics, and a sha256 per parameter array. Loading
checks every manifest field's shape and consistency, verifies every array's
dtype and hash and refuses silently corrupted files, reporting exactly which
entries diverged.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import tokenize
import zipfile
from pathlib import Path

import numpy as np

from .dataset import StandardStats, WindowConfig
from .errors import DataError
from .hybrid import STREAMS, ModelSpec, Topology, blank, named_parameters
from .training import TrainedModel, model_spec_for, parameter_digest
from .version import VERSION

FORMAT_VERSION = 1
_PARAM_PREFIX = "param/"
# Manifest spec entries every model has: three streams, each with its own weights.
_SPEC_CONSTANTS = {"streams": STREAMS, "share_weights": False}
# What np.load and zipfile raise on a damaged archive, header or array.
_UNREADABLE = (
    zipfile.BadZipFile,
    OSError,
    ValueError,
    EOFError,
    NotImplementedError,
    RuntimeError,
    SyntaxError,
    tokenize.TokenError,
)


def _array_sha(data: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(data).tobytes()).hexdigest()


def build_manifest(trained: TrainedModel) -> dict:
    """Everything needed to rebuild and verify the model, minus the arrays."""
    spec = trained.model.spec
    wcfg = trained.window_cfg
    return {
        "format_version": FORMAT_VERSION,
        "flowcast_version": VERSION,
        "arch": trained.arch,
        "impute_method": trained.impute_method,
        "topology": {
            "kind": spec.topology.kind,
            "lstm_depth": spec.topology.lstm_depth,
            "cnn_depth": spec.topology.cnn_depth,
        },
        "spec": {
            "p": spec.p,
            "n": spec.n,
            "h": spec.h,
            **_SPEC_CONSTANTS,
        },
        "window": {"n": wcfg.n, "h": wcfg.h, "n_d": wcfg.n_d, "n_w": wcfg.n_w},
        "ranges": [list(r) for r in trained.ranges],
        "stats": trained.stats.to_json(),
        "start_date": trained.start_date.isoformat(),
        "points_per_day": trained.points_per_day,
        "params": [
            {
                "name": name,
                "shape": list(tensor.data.shape),
                "sha256": _array_sha(tensor.data),
            }
            for name, tensor in named_parameters(trained.model)
        ],
        "digest": parameter_digest(trained.model),
    }


def save_checkpoint(path, trained: TrainedModel) -> str:
    """Write the archive; returns the parameter digest (the checkpoint id)."""
    manifest = build_manifest(trained)
    arrays = {
        _PARAM_PREFIX + name: np.ascontiguousarray(tensor.data)
        for name, tensor in named_parameters(trained.model)
    }
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "wb") as handle:
        np.savez(handle, manifest=json.dumps(manifest), **arrays)
    return manifest["digest"]


def _read_archive(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The structurally validated manifest and every stored parameter array.

    Any failure to read the file as an npz archive is a DataError.
    """
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
    except FileNotFoundError:
        raise DataError(f"checkpoint {path} not found") from None
    except _UNREADABLE as exc:
        raise DataError(f"{path} is not a checkpoint archive: {exc}") from None
    if "manifest" not in arrays:
        raise DataError(f"{path} has no manifest; not a checkpoint")
    try:
        manifest = json.loads(str(arrays.pop("manifest")))
    except json.JSONDecodeError as exc:
        raise DataError(f"checkpoint manifest is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise DataError("checkpoint manifest is not a JSON object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise DataError(
            f"checkpoint format {manifest.get('format_version')!r} unsupported, "
            f"expected {FORMAT_VERSION}"
        )
    return manifest, arrays


def read_manifest(path) -> dict:
    """Parse and structurally validate the embedded manifest."""
    return _read_archive(path)[0]


def _matches(value, schema) -> bool:
    """Whether a parsed JSON value has the shape ``schema`` describes.

    A type is a leaf (``int`` takes no bools), a dict an object with exactly
    these keys, a one-item list a list of any length and a tuple a list of
    exactly that length.
    """
    if isinstance(schema, dict):
        return isinstance(value, dict) and value.keys() == schema.keys() and all(
            _matches(value[key], sub) for key, sub in schema.items()
        )
    if isinstance(schema, list):
        return isinstance(value, list) and all(_matches(item, schema[0]) for item in value)
    if isinstance(schema, tuple):
        return (
            isinstance(value, list)
            and len(value) == len(schema)
            and all(map(_matches, value, schema))
        )
    if isinstance(value, bool):
        return schema is bool
    return isinstance(value, schema)


# Every manifest field load_checkpoint reads and the JSON shape it must have.
_MANIFEST_SCHEMA = {
    "arch": str,
    "impute_method": str,
    "topology": {"kind": str, "lstm_depth": int, "cnn_depth": int},
    "spec": {"p": int, "n": int, "h": int, "streams": int, "share_weights": bool},
    "window": {"n": int, "h": int, "n_d": int, "n_w": int},
    "ranges": ((int, int),) * 3,
    "stats": {"mean": [float], "std": [float], "train_days": (int, int)},
    "start_date": str,
    "points_per_day": int,
    "params": [{"name": str, "shape": [int], "sha256": str}],
    "digest": str,
}


def _parse_manifest(manifest: dict) -> tuple[ModelSpec, dict]:
    """The model spec and the other TrainedModel fields a manifest records.

    Raises DataError naming the first field that is missing, malformed or
    inconsistent with the rest.
    """
    for key, schema in _MANIFEST_SCHEMA.items():
        if key not in manifest or not _matches(manifest[key], schema):
            raise DataError(f"checkpoint manifest field {key!r} is missing or malformed")
    spec_fields = dict(manifest["spec"])
    constants = {key: spec_fields.pop(key) for key in _SPEC_CONSTANTS}
    if constants != _SPEC_CONSTANTS:
        raise DataError(f"manifest spec has {constants}; models have {_SPEC_CONSTANTS}")
    try:
        spec = ModelSpec(topology=Topology(**manifest["topology"]), **spec_fields)
    except ValueError as exc:
        raise DataError(f"manifest does not describe a valid model: {exc}") from None
    window = WindowConfig(**manifest["window"])
    if model_spec_for(manifest["arch"], spec.p, window) != spec:
        raise DataError(
            f"manifest arch {manifest['arch']!r} and window {window} do not give {spec}"
        )
    stats = StandardStats.from_json(manifest["stats"])
    if not (
        stats.mean.shape == stats.std.shape == (spec.p,)
        and np.all(np.isfinite(stats.mean))
        and np.all(np.isfinite(stats.std) & (stats.std > 0))
    ):
        raise DataError(
            f"manifest stats need {spec.p} finite means and positive finite deviations"
        )
    try:
        start_date = dt.date.fromisoformat(manifest["start_date"])
    except ValueError:
        raise DataError(f"manifest start date {manifest['start_date']!r} is not a date") from None
    return spec, {
        "arch": manifest["arch"],
        "impute_method": manifest["impute_method"],
        "stats": stats,
        "window_cfg": window,
        "ranges": tuple(tuple(r) for r in manifest["ranges"]),
        "start_date": start_date,
        "points_per_day": manifest["points_per_day"],
    }


def load_checkpoint(path) -> TrainedModel:
    """Rebuild a TrainedModel, verifying every manifest field and parameter hash.

    The model starts at zero and every parameter is filled from its verified
    array; one the manifest does not name is an error, not a zero.
    """
    manifest, arrays = _read_archive(path)
    spec, fields = _parse_manifest(manifest)
    model = blank(spec)
    by_name = dict(named_parameters(model))
    listed = {entry["name"] for entry in manifest["params"]}
    problems = [f"{name}: not in the manifest" for name in by_name if name not in listed]
    for entry in manifest["params"]:
        key = _PARAM_PREFIX + entry["name"]
        if entry["name"] not in by_name:
            problems.append(f"{entry['name']}: not a parameter of {spec}")
            continue
        if key not in arrays:
            problems.append(f"{entry['name']}: missing from archive")
            continue
        data = arrays[key]
        expected = list(by_name[entry["name"]].data.shape)
        if data.dtype != np.float64:
            problems.append(f"{entry['name']}: dtype {data.dtype}, expected float64")
            continue
        if not list(data.shape) == entry["shape"] == expected:
            problems.append(
                f"{entry['name']}: shape {list(data.shape)}, "
                f"manifest {entry['shape']}, model {expected}"
            )
            continue
        actual = _array_sha(data)
        if actual != entry["sha256"]:
            problems.append(
                f"{entry['name']}: sha256 {actual[:12]}... != "
                f"manifest {entry['sha256'][:12]}..."
            )
            continue
        by_name[entry["name"]].data[...] = data
    if problems:
        raise DataError(
            "checkpoint integrity check failed:\n  " + "\n  ".join(problems)
        )
    digest = parameter_digest(model)
    if digest != manifest["digest"]:
        raise DataError(
            f"checkpoint digest mismatch: parameters hash to {digest[:12]}..., "
            f"manifest says {manifest['digest'][:12]}..."
        )
    return TrainedModel(model=model, **fields)
