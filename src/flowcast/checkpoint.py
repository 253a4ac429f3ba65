"""Checkpoint archives: parameters plus a JSON manifest in one npz file.

The manifest records the architecture, window and imputation settings, split
ranges, standardization statistics, and a sha256 per parameter array. Loading
verifies every hash and refuses silently corrupted files, reporting exactly
which entries diverged.
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
from .hybrid import STREAMS, ModelSpec, Topology, build, named_parameters
from .training import TrainedModel, parameter_digest
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


def load_checkpoint(path) -> TrainedModel:
    """Rebuild a TrainedModel, verifying every parameter hash."""
    manifest, arrays = _read_archive(path)
    try:
        spec_fields = dict(manifest["spec"])
        constants = {key: spec_fields.pop(key, None) for key in _SPEC_CONSTANTS}
        spec = ModelSpec(topology=Topology(**manifest["topology"]), **spec_fields)
    except (TypeError, ValueError, KeyError) as exc:
        raise DataError(f"manifest does not describe a valid model: {exc}") from None
    if constants != _SPEC_CONSTANTS:
        raise DataError(f"manifest spec has {constants}; models have {_SPEC_CONSTANTS}")
    model = build(spec, seed=0)
    by_name = dict(named_parameters(model))
    problems = []
    for entry in manifest["params"]:
        key = _PARAM_PREFIX + entry["name"]
        if entry["name"] not in by_name:
            problems.append(f"{entry['name']}: not a parameter of {spec}")
            continue
        if key not in arrays:
            problems.append(f"{entry['name']}: missing from archive")
            continue
        data = np.ascontiguousarray(arrays[key], dtype=float)
        if list(data.shape) != entry["shape"]:
            problems.append(
                f"{entry['name']}: shape {list(data.shape)} != "
                f"manifest {entry['shape']}"
            )
            continue
        actual = _array_sha(data)
        if actual != entry["sha256"]:
            problems.append(
                f"{entry['name']}: sha256 {actual[:12]}... != "
                f"manifest {entry['sha256'][:12]}..."
            )
            continue
        by_name[entry["name"]].data = data
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
    return TrainedModel(
        model=model,
        arch=manifest["arch"],
        impute_method=manifest["impute_method"],
        stats=StandardStats.from_json(manifest["stats"]),
        window_cfg=WindowConfig(**manifest["window"]),
        ranges=tuple(tuple(r) for r in manifest["ranges"]),
        start_date=dt.date.fromisoformat(manifest["start_date"]),
        points_per_day=manifest["points_per_day"],
    )
