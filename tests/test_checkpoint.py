"""Tests for checkpoint save/load and integrity verification."""

import datetime as dt
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from flowcast.checkpoint import (
    _read_archive,
    build_manifest,
    load_checkpoint,
    save_checkpoint,
)
from flowcast.dataset import StandardStats, WindowConfig
from flowcast import hybrid, layers
from flowcast.errors import DataError
from flowcast.hybrid import (
    ARCHITECTURES,
    ModelSpec,
    build,
    forward_batch,
    named_parameters,
)
from flowcast.training import TrainedModel, model_spec_for, parameter_digest

from test_hybrid import assert_on_buffer


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


# parameter_digest and the sha256 of the manifest's [name, shape] list for
# every architecture at p=5, n=7, h=2, seed 0, with the number of arrays.
# Architectures with the same layout share values. A change here means
# existing checkpoints would no longer load.
FORMAT_PINS = [
    ("LSTM1", "ee878ab12c428e0bb42cdf61f7a00652fa9db3239577e91de894288816006d5d",
     "3b1eb329651044b1ae9d4cdeb51e307ea5d17c0ba32f852f4cc98bd9e83a2ffd", 38),
    ("LSTM2", "6e1ab6bafb905f1951f966bc003a85fc6b246f54e92dba2ca5c17914b5e27d84",
     "63a4ef2196cecee1b0537b56733549584ba63298d95111f54722a206545d5759", 74),
    ("LSTM1-S-CNN1", "aa6c1598c8c91743f083c18b864bb409690476edf143eeb219a736246edb3262",
     "9e97a0f3574e645cd2d41a5f6d27aa002ec0fff0a0731bb5a016b4e8741ff454", 44),
    ("LSTM2-S-CNN3", "db614a189b2d5edeb7c4a6c3d2cd820b3462672a49a9791fa733fb29e47b1a6b",
     "da275d1e3fa33811a1fe523bb22833e43389e393c2d4e88bc14b46d27d782764", 92),
    ("CNN1-S-LSTM1", "aa6c1598c8c91743f083c18b864bb409690476edf143eeb219a736246edb3262",
     "9e97a0f3574e645cd2d41a5f6d27aa002ec0fff0a0731bb5a016b4e8741ff454", 44),
    ("CNN3-S-LSTM2", "db614a189b2d5edeb7c4a6c3d2cd820b3462672a49a9791fa733fb29e47b1a6b",
     "da275d1e3fa33811a1fe523bb22833e43389e393c2d4e88bc14b46d27d782764", 92),
    ("LSTM1-P-CNN1", "cebb76a04fbf47301c26094870f0adb3ec7ab3f41c22db6d56d0305f8d7745f0",
     "f37b35d49a3949dc4c418cea70e752b3e3bbeac702df6f36544d7c4c6d90d160", 44),
    ("LSTM2-P-CNN3", "624f36a87231e321ecee92d59661daad8eb10ff8879dba4b0ba7172957c12ee7",
     "ff21061f38b79a5c15e24ba8ce23bcbd9004560055d2511d59dd0cd017fc896c", 92),
    ("LSTM1-SP-CNN1", "cebb76a04fbf47301c26094870f0adb3ec7ab3f41c22db6d56d0305f8d7745f0",
     "f37b35d49a3949dc4c418cea70e752b3e3bbeac702df6f36544d7c4c6d90d160", 44),
    ("LSTM2-SP-CNN3", "624f36a87231e321ecee92d59661daad8eb10ff8879dba4b0ba7172957c12ee7",
     "ff21061f38b79a5c15e24ba8ce23bcbd9004560055d2511d59dd0cd017fc896c", 92),
    ("CNN1-SP-LSTM1", "cebb76a04fbf47301c26094870f0adb3ec7ab3f41c22db6d56d0305f8d7745f0",
     "f37b35d49a3949dc4c418cea70e752b3e3bbeac702df6f36544d7c4c6d90d160", 44),
    ("CNN3-SP-LSTM2", "624f36a87231e321ecee92d59661daad8eb10ff8879dba4b0ba7172957c12ee7",
     "ff21061f38b79a5c15e24ba8ce23bcbd9004560055d2511d59dd0cd017fc896c", 92),
]


@pytest.mark.parametrize("arch,digest,layout,count", FORMAT_PINS, ids=[p[0] for p in FORMAT_PINS])
def test_checkpoint_format_pinned(arch, digest, layout, count):
    model = build(ModelSpec(topology=ARCHITECTURES[arch], p=5, n=7, h=2), seed=0)
    assert parameter_digest(model) == digest
    params = build_manifest(replace(fake_trained(arch=arch, p=5), model=model))["params"]
    names_and_shapes = [[entry["name"], entry["shape"]] for entry in params]
    assert len(names_and_shapes) == count
    assert hashlib.sha256(json.dumps(names_and_shapes).encode()).hexdigest() == layout


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

    def test_loaded_parameters_are_views_of_one_buffer(self, tmp_path):
        trained = fake_trained(seed=3)
        path = tmp_path / "model.npz"
        save_checkpoint(path, trained)
        loaded = load_checkpoint(path)
        assert_on_buffer(loaded.model)
        np.testing.assert_array_equal(loaded.model.values, trained.model.values)

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
        assert len(manifest["params"]) == len(list(named_parameters(trained.model)))
        assert manifest["topology"]["kind"] == "series-parallel-d"
        path = tmp_path / "model.npz"
        save_checkpoint(path, trained)
        assert _read_archive(path)[0] == manifest


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

    @pytest.mark.parametrize(
        "convert",
        [
            lambda a: a.astype(np.int64),
            lambda a: a.astype(np.complex128),
            lambda a: a.astype(str),
        ],
        ids=["int", "complex", "numeric_text"],
    )
    def test_parameter_dtype_must_be_float64(self, tmp_path, convert):
        # head.b starts at zero, so every conversion keeps its values and,
        # read back as floats, its sha256
        trained = fake_trained()
        path = tmp_path / "model.npz"
        save_checkpoint(path, trained)

        def retype(payload):
            payload["param/head.b"] = convert(payload["param/head.b"])
            return payload

        bad = tmp_path / "retyped.npz"
        rewrite(path, bad, retype)
        with pytest.raises(DataError, match="integrity check failed") as info:
            load_checkpoint(bad)
        assert "head.b: dtype" in str(info.value)
        assert "expected float64" in str(info.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, value):
        # saved through save_checkpoint, so every hash agrees with the values
        trained = fake_trained()
        trained.model.head.W.data[0, 1] = value
        path = tmp_path / "model.npz"
        save_checkpoint(path, trained)
        with pytest.raises(DataError, match="integrity check failed") as info:
            load_checkpoint(path)
        assert "head.W: holds non-finite values" in str(info.value)

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

    def test_parameter_missing_from_manifest_rejected(self, tmp_path):
        # head.b of a fresh build is zero, and so is a blank model's: leaving
        # it unfilled would load a model that matches the digest.
        src = tmp_path / "model.npz"
        dst = tmp_path / "unlisted.npz"
        save_checkpoint(src, fake_trained())

        def unlist(payload):
            manifest = json.loads(str(payload["manifest"]))
            manifest["params"] = [e for e in manifest["params"] if e["name"] != "head.b"]
            payload["manifest"] = np.asarray(json.dumps(manifest))
            del payload["param/head.b"]
            return payload

        rewrite(src, dst, unlist)
        with pytest.raises(DataError, match="head.b: not in the manifest"):
            load_checkpoint(dst)

    def test_load_draws_no_initialisation(self, tmp_path, monkeypatch):
        trained = fake_trained(seed=3, arch="LSTM2-SP-CNN3")
        path = tmp_path / "model.npz"
        save_checkpoint(path, trained)

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint drew an initialisation")

        monkeypatch.setattr(hybrid, "glorot_uniform", refuse)
        monkeypatch.setattr(layers, "glorot_uniform", refuse)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.model.values, trained.model.values)

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

    def test_parameter_shape_must_fit_the_model(self, tmp_path):
        # Archive and manifest agree on a two-channel kernel; the model has one.
        src = tmp_path / "model.npz"
        dst = tmp_path / "widened.npz"
        save_checkpoint(src, fake_trained())

        def widen(payload):
            name = "stream0.conv0.kernel"
            kernel = np.concatenate([payload["param/" + name]] * 2)
            payload["param/" + name] = kernel
            manifest = json.loads(str(payload["manifest"]))
            entry = next(e for e in manifest["params"] if e["name"] == name)
            entry["shape"] = list(kernel.shape)
            entry["sha256"] = hashlib.sha256(kernel.tobytes()).hexdigest()
            payload["manifest"] = np.asarray(json.dumps(manifest))
            return payload

        rewrite(src, dst, widen)
        with pytest.raises(DataError, match=r"conv0.kernel: shape \[2, 1, 4\].*model \[1, 1, 4\]"):
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

    def test_ranges_must_agree_with_the_stats(self, tmp_path):
        src = tmp_path / "a.npz"
        save_checkpoint(src, fake_trained())

        def load_with(ranges, train_days):
            def alter(payload):
                manifest = json.loads(str(payload["manifest"]))
                manifest["ranges"] = ranges
                manifest["stats"]["train_days"] = train_days
                payload["manifest"] = np.asarray(json.dumps(manifest))
                return payload

            rewrite(src, tmp_path / "b.npz", alter)
            return load_checkpoint(tmp_path / "b.npz")

        # Checkpoints written before the 80/10/10 split was fixed may hold
        # other fractions.
        loaded = load_with([[0, 10], [10, 12], [12, 14]], [0, 10])
        assert loaded.ranges == ((0, 10), (10, 12), (12, 14))
        for ranges, train_days in [
            ([[0, 8], [8, 10], [10, 14]], [0, 12]),  # the stats disagree
            ([[1, 12], [12, 13], [13, 14]], [1, 12]),  # not from day 0
            ([[0, 12], [12, 12], [12, 14]], [0, 12]),  # an empty range
            ([[0, 12], [13, 14], [14, 15]], [0, 12]),  # a gap
            ([[0, 12], [11, 13], [13, 14]], [0, 12]),  # an overlap
        ]:
            with pytest.raises(DataError, match="manifest ranges"):
                load_with(ranges, train_days)

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
