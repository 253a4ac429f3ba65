"""Tests for checkpoint save/load and integrity verification."""

import datetime as dt
import json

import numpy as np
import pytest

from flowcast.checkpoint import (
    build_manifest,
    load_checkpoint,
    read_manifest,
    save_checkpoint,
)
from flowcast.dataset import StandardStats, WindowConfig
from flowcast.errors import DataError
from flowcast.hybrid import build, forward_batch, named_parameters, parameters
from flowcast.training import TrainedModel, model_spec_for, parameter_digest


def fake_trained(seed=0, arch="LSTM1-SP-CNN1", p=4):
    spec = model_spec_for(arch, p, WindowConfig())
    model = build(spec, seed)
    stats = StandardStats(
        mean=np.arange(p, dtype=float),
        std=np.ones(p) + 0.5,
        train_days=(0, 12),
    )
    return TrainedModel(
        model=model,
        arch=arch,
        impute_method="median",
        stats=stats,
        window_cfg=WindowConfig(),
        ranges=((0, 12), (12, 13), (13, 14)),
        start_date=dt.date(2019, 1, 7),
    )


def rewrite(src, dst, mutate):
    """Copy an npz archive through a mutation of its payload dict."""
    with np.load(src, allow_pickle=False) as archive:
        payload = {key: archive[key] for key in archive.files}
    payload = mutate(payload)
    with open(dst, "wb") as handle:
        np.savez(handle, **payload)


class TestRoundTrip:
    def test_parameters_survive_exactly(self, tmp_path):
        trained = fake_trained(seed=3)
        path = tmp_path / "model.npz"
        digest = save_checkpoint(path, trained)
        loaded = load_checkpoint(path)
        assert digest == parameter_digest(trained.model)
        assert parameter_digest(loaded.model) == digest
        originals = dict(named_parameters(trained.model))
        for name, tensor in named_parameters(loaded.model):
            np.testing.assert_array_equal(tensor.data, originals[name].data)

    def test_metadata_survives(self, tmp_path):
        trained = fake_trained()
        path = tmp_path / "model.npz"
        save_checkpoint(path, trained)
        loaded = load_checkpoint(path)
        assert loaded.arch == trained.arch
        assert loaded.impute_method == "median"
        assert loaded.window_cfg == trained.window_cfg
        assert loaded.ranges == trained.ranges
        assert loaded.start_date == trained.start_date
        assert loaded.points_per_day == trained.points_per_day
        assert loaded.model.spec == trained.model.spec
        np.testing.assert_array_equal(loaded.stats.mean, trained.stats.mean)
        np.testing.assert_array_equal(loaded.stats.std, trained.stats.std)
        assert loaded.stats.train_days == trained.stats.train_days

    def test_predictions_identical(self, tmp_path):
        trained = fake_trained(seed=8)
        path = tmp_path / "model.npz"
        save_checkpoint(path, trained)
        loaded = load_checkpoint(path)
        rng = np.random.default_rng(0)
        blocks = [rng.normal(size=(4, 21, 3)) for _ in range(3)]
        want = forward_batch(trained.model, *blocks).data
        got = forward_batch(loaded.model, *blocks).data
        np.testing.assert_array_equal(got, want)

    def test_manifest_lists_every_parameter(self, tmp_path):
        trained = fake_trained()
        manifest = build_manifest(trained)
        assert len(manifest["params"]) == len(parameters(trained.model))
        assert manifest["topology"]["kind"] == "series-parallel-d"
        path = tmp_path / "model.npz"
        save_checkpoint(path, trained)
        assert read_manifest(path) == manifest


class TestIntegrity:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_checkpoint(tmp_path / "nope.npz")

    def test_not_an_archive(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_text("this is not a zip")
        with pytest.raises(DataError, match="not a checkpoint archive"):
            load_checkpoint(path)

    def test_archive_without_manifest(self, tmp_path):
        path = tmp_path / "plain.npz"
        with open(path, "wb") as handle:
            np.savez(handle, weights=np.zeros(3))
        with pytest.raises(DataError, match="no manifest"):
            load_checkpoint(path)

    def test_malformed_manifest_json(self, tmp_path):
        path = tmp_path / "bad.npz"
        with open(path, "wb") as handle:
            np.savez(handle, manifest="{not json")
        with pytest.raises(DataError, match="not valid JSON"):
            load_checkpoint(path)

    def test_unsupported_format_version(self, tmp_path):
        trained = fake_trained()
        src = tmp_path / "model.npz"
        dst = tmp_path / "future.npz"
        save_checkpoint(src, trained)

        def bump(payload):
            manifest = json.loads(str(payload["manifest"]))
            manifest["format_version"] = 99
            payload["manifest"] = np.asarray(json.dumps(manifest))
            return payload

        rewrite(src, dst, bump)
        with pytest.raises(DataError, match="unsupported"):
            load_checkpoint(dst)

    def test_corrupted_parameter_named_in_error(self, tmp_path):
        trained = fake_trained()
        src = tmp_path / "model.npz"
        dst = tmp_path / "tampered.npz"
        save_checkpoint(src, trained)
        victim = "param/stream1.lstm0.W_f"

        def corrupt(payload):
            payload[victim] = payload[victim] + 1e-6
            return payload

        rewrite(src, dst, corrupt)
        with pytest.raises(DataError, match="stream1.lstm0.W_f.*sha256"):
            load_checkpoint(dst)

    def test_missing_parameter_array(self, tmp_path):
        trained = fake_trained()
        src = tmp_path / "model.npz"
        dst = tmp_path / "dropped.npz"
        save_checkpoint(src, trained)

        def drop(payload):
            del payload["param/head.W"]
            return payload

        rewrite(src, dst, drop)
        with pytest.raises(DataError, match="head.W: missing"):
            load_checkpoint(dst)

    def test_wrong_shape_reported(self, tmp_path):
        trained = fake_trained()
        src = tmp_path / "model.npz"
        dst = tmp_path / "reshaped.npz"
        save_checkpoint(src, trained)

        def squash(payload):
            payload["param/head.b"] = payload["param/head.b"][:-1]
            return payload

        rewrite(src, dst, squash)
        with pytest.raises(DataError, match="head.b: shape"):
            load_checkpoint(dst)

    def test_digest_mismatch(self, tmp_path):
        trained = fake_trained()
        src = tmp_path / "model.npz"
        dst = tmp_path / "redigested.npz"
        save_checkpoint(src, trained)

        def relabel(payload):
            manifest = json.loads(str(payload["manifest"]))
            manifest["digest"] = "0" * 64
            payload["manifest"] = np.asarray(json.dumps(manifest))
            return payload

        rewrite(src, dst, relabel)
        with pytest.raises(DataError, match="digest mismatch"):
            load_checkpoint(dst)

    def test_invalid_spec_in_manifest(self, tmp_path):
        trained = fake_trained()
        src = tmp_path / "model.npz"
        dst = tmp_path / "mangled.npz"
        save_checkpoint(src, trained)

        def mangle(payload):
            manifest = json.loads(str(payload["manifest"]))
            manifest["topology"]["kind"] = "octopus"
            payload["manifest"] = np.asarray(json.dumps(manifest))
            return payload

        rewrite(src, dst, mangle)
        with pytest.raises(DataError, match="valid model"):
            load_checkpoint(dst)

    @pytest.mark.parametrize("field,value", [("share_weights", True), ("streams", 2)])
    def test_spec_constants_enforced(self, tmp_path, field, value):
        src = tmp_path / "model.npz"
        dst = tmp_path / "altered.npz"
        save_checkpoint(src, fake_trained())

        def alter(payload):
            manifest = json.loads(str(payload["manifest"]))
            manifest["spec"][field] = value
            payload["manifest"] = np.asarray(json.dumps(manifest))
            return payload

        rewrite(src, dst, alter)
        with pytest.raises(DataError, match=f"'{field}': {value}"):
            load_checkpoint(dst)
