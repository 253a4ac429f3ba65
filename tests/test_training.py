"""Tests for the optimizer, training loop, and experiment aggregation."""

import dataclasses
import math

import numpy as np
import pytest

from flowcast.autodiff import Tensor, backward
from flowcast.dataset import WindowConfig
from flowcast.errors import DataError, NumericError
from flowcast.evaluation import evaluate
from flowcast.hybrid import ARCHITECTURES, ModelSpec, build, parameters
from flowcast.synthgen import SynthConfig, generate
from flowcast.training import (
    AdamState,
    TrainConfig,
    adam_init,
    adam_step,
    model_spec_for,
    mse_loss,
    parameter_digest,
    prepare_data,
    run_experiment,
    train,
    train_once,
)

from gradcheck import finite_difference
from test_hybrid import assert_on_buffer


@pytest.fixture(scope="module")
def synth():
    return generate(SynthConfig(p=3, days=14, seed=7))


@pytest.fixture(scope="module")
def prepared(synth):
    return prepare_data(synth, "mean")


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.lr == 1e-3
        assert cfg.l2 == 1e-4
        assert cfg.max_epochs == 30
        assert cfg.runs == 5
        assert cfg.seeds == (0, 1, 2, 3, 4)
        assert (cfg.beta1, cfg.beta2, cfg.eps) == (0.9, 0.999, 1e-8)

    def test_seed_list_normalized(self):
        cfg = TrainConfig(runs=2, seeds=[4, 5])
        assert cfg.seeds == (4, 5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr": -0.1},
            {"l2": -1e-6},
            {"beta1": 1.0},
            {"beta2": -0.2},
            {"eps": 0.0},
            {"max_epochs": 0},
            {"runs": 0},
            {"runs": 3, "seeds": (0, 1)},
            {"runs": 2, "seeds": (0, 0)},
            {"runs": 1, "seeds": (4, 5, 4)},
            {"lr": math.nan},
            {"lr": math.inf},
            {"l2": math.nan},
            {"eps": math.nan},
            {"eps": math.inf},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


@pytest.mark.parametrize(
    "settings, kwargs",
    [
        (TrainConfig, {"max_epochs": 1.5}),
        (TrainConfig, {"runs": True}),
        (TrainConfig, {"lr": "0.1"}),
        (TrainConfig, {"runs": 1, "seeds": (0.5,)}),
        (TrainConfig, {"runs": 1, "seeds": (False,)}),
        (WindowConfig, {"n": 1.5}),
        (WindowConfig, {"h": None}),
        (SynthConfig, {"p": 2.5}),
        (SynthConfig, {"seed": "a"}),
        (SynthConfig, {"noise_std": [0.1]}),
        (SynthConfig, {"start_date": "2019-01-07"}),
        (SynthConfig, {"start_date": 20190107}),
    ],
)
def test_settings_reject_wrong_field_types(settings, kwargs):
    with pytest.raises(TypeError):
        settings(**kwargs)


def test_settings_take_numpy_numbers():
    cfg = TrainConfig(lr=np.float64(0.01), max_epochs=np.int64(2), seeds=np.arange(5))
    assert cfg.seeds == tuple(range(5))
    assert SynthConfig(p=np.int32(2), noise_std=1).p == 2
    assert WindowConfig(n=np.int64(4)).n == 4


class TestMseLoss:
    def test_equal_blocks_zero(self):
        pred = Tensor(np.full((2, 3), 1.5))
        assert mse_loss(pred, np.full((2, 3), 1.5)).item() == 0.0

    def test_constant_residual(self):
        pred = Tensor(np.full((4, 2), 3.0))
        assert mse_loss(pred, np.full((4, 2), 1.0)).item() == pytest.approx(4.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            mse_loss(Tensor(np.zeros((2, 2))), np.zeros((2, 3)))

    def test_gradient_formula(self):
        rng = np.random.default_rng(0)
        pred = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        target = rng.normal(size=(2, 3))
        loss = mse_loss(pred, target)
        backward(loss)
        want = 2.0 * (pred.data - target) / pred.data.size
        np.testing.assert_allclose(pred.grad, want, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        pred = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        target = rng.normal(size=(3, 2))
        loss = mse_loss(pred, target)
        backward(loss)
        numeric = finite_difference(lambda: mse_loss(pred, target), [pred])[0]
        np.testing.assert_allclose(pred.grad, numeric, atol=1e-7)


def single_param(value: float) -> np.ndarray:
    return np.array([value])


class TestAdamStep:
    def test_zero_gradient_zero_moments_unchanged(self):
        cfg = TrainConfig(l2=0.0)
        values = single_param(2.5)
        state = adam_init(values)
        adam_step(values, np.zeros(1), state, cfg)
        assert values[0] == 2.5

    def test_single_step_hand_value(self):
        cfg = TrainConfig(lr=0.1, l2=0.0)
        values = single_param(1.0)
        state = adam_init(values)
        adam_step(values, np.array([0.5]), state, cfg)
        # m_hat = 0.5, v_hat = 0.25 after bias correction
        want = 1.0 - 0.1 * 0.5 / (math.sqrt(0.25) + cfg.eps)
        assert values[0] == pytest.approx(want, abs=1e-15)
        assert state.step == 1

    @pytest.mark.parametrize("g", [0.3, -0.7])
    def test_constant_gradient_limit(self, g):
        cfg = TrainConfig(lr=0.05, l2=0.0)
        values = single_param(0.0)
        state = adam_init(values)
        expected_delta = -cfg.lr * g / (abs(g) + cfg.eps)
        for _ in range(60):
            before = values[0]
            adam_step(values, np.array([g]), state, cfg)
            delta = values[0] - before
            assert delta == pytest.approx(expected_delta, abs=1e-12)

    def test_l2_decays_parameter_norm(self):
        cfg = TrainConfig(lr=1e-3, l2=0.01)
        values = single_param(5.0)
        state = adam_init(values)
        norms = [abs(values[0])]
        for _ in range(10):
            adam_step(values, np.zeros(1), state, cfg)
            norms.append(abs(values[0]))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_non_finite_gradient_aborts(self):
        cfg = TrainConfig()
        values = single_param(1.0)
        state = adam_init(values)
        with pytest.raises(NumericError, match="non-finite"):
            adam_step(values, np.array([np.inf]), state, cfg)

    def test_count_mismatch_rejected(self):
        cfg = TrainConfig()
        values = single_param(1.0)
        with pytest.raises(ValueError, match="counts differ"):
            adam_step(values, np.zeros(1), AdamState(m=np.zeros(0), v=np.zeros(0)), cfg)

    def test_shape_mismatch_rejected(self):
        cfg = TrainConfig()
        values = single_param(1.0)
        state = adam_init(values)
        with pytest.raises(ValueError, match="shape"):
            adam_step(values, np.zeros(2), state, cfg)

    def test_whole_vector_step_matches_entrywise_steps(self):
        # every operation is elementwise, so one step over a packed vector
        # equals separate steps over its parts, bit for bit
        cfg = TrainConfig(lr=0.01, l2=1e-3)
        rng = np.random.default_rng(21)
        values = rng.normal(size=7)
        parts = [values[:3].copy(), values[3:].copy()]
        state = adam_init(values)
        part_states = [adam_init(part) for part in parts]
        for _ in range(5):
            grads = rng.normal(size=7)
            adam_step(values, grads, state, cfg)
            adam_step(parts[0], grads[:3], part_states[0], cfg)
            adam_step(parts[1], grads[3:], part_states[1], cfg)
        np.testing.assert_array_equal(values, np.concatenate(parts))


class TestParameterDigest:
    def test_same_seed_same_digest(self):
        spec = ModelSpec(topology=ARCHITECTURES["LSTM1"], p=3, n=5, h=2)
        a = build(spec, seed=3)
        b = build(spec, seed=3)
        assert parameter_digest(a) == parameter_digest(b)

    def test_sensitive_to_values(self):
        spec = ModelSpec(topology=ARCHITECTURES["LSTM1"], p=3, n=5, h=2)
        model = build(spec, seed=3)
        before = parameter_digest(model)
        parameters(model)[0].data[0, 0] += 1e-9
        assert parameter_digest(model) != before


class TestModelSpecFor:
    def test_unknown_architecture(self):
        with pytest.raises(DataError, match="LSTM1"):
            model_spec_for("GRU9", 4, WindowConfig())

    def test_mismatched_stream_widths(self):
        with pytest.raises(DataError, match="widths differ"):
            model_spec_for("LSTM1", 4, WindowConfig(n=20, h=9, n_d=6, n_w=6))

    def test_default_widths_accepted(self):
        spec = model_spec_for("LSTM2-SP-CNN3", 4, WindowConfig())
        assert (spec.p, spec.n, spec.h) == (4, 21, 9)

    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    def test_stations_fewer_than_widest_kernel(self, arch):
        conv_spec = ARCHITECTURES[arch].conv_spec
        if conv_spec is None:
            assert model_spec_for(arch, 1, WindowConfig()).p == 1
        else:
            with pytest.raises(DataError, match="only 3 stations"):
                model_spec_for(arch, 3, WindowConfig())


class TestPrepareData:
    def test_sample_counts(self, synth, prepared):
        train_range, val_range, test_range = prepared.ranges
        assert (train_range, val_range, test_range) == ((0, 12), (12, 13), (13, 14))
        # train days 0..6 lack a week of history and are skipped
        assert len(prepared.train_samples) == 5 * 253
        assert len(prepared.val_samples) == 253
        assert len(prepared.test_samples) == 253

    def test_training_targets_fully_observed(self, prepared):
        assert all(smp.target_mask.all() for smp in prepared.train_samples)

    def test_eval_targets_keep_pristine_mask(self, synth, prepared):
        holes = [
            smp for smp in prepared.test_samples if not smp.target_mask.all()
        ]
        assert holes, "native missing values should reach some test targets"
        for smp in holes[:5]:
            np.testing.assert_array_equal(
                smp.target_mask, synth.mask[:, smp.t : smp.t + 9]
            )

    def test_inputs_fully_imputed(self, prepared):
        assert prepared.dataset.mask.all()
        assert not np.isnan(prepared.dataset.flows).any()

    def test_stats_from_train_range(self, prepared):
        assert prepared.stats.train_days == (0, 12)
        lo, hi = 0, 12 * 288
        std_train = prepared.dataset.flows[:, lo:hi]
        assert np.abs(std_train.mean(axis=1)).max() < 0.2
        assert np.abs(std_train.std(axis=1) - 1.0).max() < 0.2


def tiny_model(synth, seed=0):
    spec = model_spec_for("LSTM1", synth.num_stations, WindowConfig())
    return build(spec, seed)


class TestTrain:
    def test_lr_zero_is_identity(self, synth, prepared):
        model = tiny_model(synth)
        before = [t.data.copy() for t in parameters(model)]
        cfg = TrainConfig(lr=0.0, max_epochs=2, runs=1, seeds=(0,))
        model, log = train(model, prepared.train_samples, prepared.val_samples, cfg)
        for saved, tensor in zip(before, parameters(model)):
            np.testing.assert_array_equal(saved, tensor.data)
        assert [e.epoch for e in log.entries] == [1, 2]
        assert log.wall_time > 0
        assert len(log.checkpoint_id) == 64

    def test_deterministic(self, synth, prepared):
        cfg = TrainConfig(max_epochs=2, runs=1, seeds=(0,))
        logs = []
        digests = []
        for _ in range(2):
            model = tiny_model(synth, seed=1)
            model, log = train(
                model, prepared.train_samples, prepared.val_samples, cfg
            )
            logs.append(log)
            digests.append(parameter_digest(model))
        assert logs[0].entries == logs[1].entries
        assert digests[0] == digests[1]

    def test_loss_decreases_early(self, synth, prepared):
        model = tiny_model(synth)
        cfg = TrainConfig(max_epochs=3, runs=1, seeds=(0,))
        _, log = train(model, prepared.train_samples, prepared.val_samples, cfg)
        assert log.entries[2].train_loss < log.entries[0].train_loss

    def test_best_epoch_weights_restored(self, synth, prepared):
        model = tiny_model(synth)
        cfg = TrainConfig(max_epochs=4, runs=1, seeds=(0,))
        model, log = train(model, prepared.train_samples, prepared.val_samples, cfg)
        best = min(e.val_mae for e in log.entries)
        report = evaluate(model, prepared.val_samples, ("overall",))
        assert report.mae == pytest.approx(best, abs=1e-12)
        assert log.best_entry.epoch == min(log.entries, key=lambda e: e.val_mae).epoch

    def test_restored_parameters_stay_views_of_the_buffer(self, synth, prepared):
        model = tiny_model(synth)
        values, grads = model.values, model.grads
        cfg = TrainConfig(lr=0.05, max_epochs=3, runs=1, seeds=(0,))
        model, log = train(model, prepared.train_samples, prepared.val_samples, cfg)
        assert model.values is values and model.grads is grads
        assert_on_buffer(model)
        assert log.checkpoint_id == parameter_digest(model)

    def test_empty_streams_rejected(self, synth, prepared):
        model = tiny_model(synth)
        cfg = TrainConfig(max_epochs=1, runs=1, seeds=(0,))
        with pytest.raises(DataError, match="training"):
            train(model, [], prepared.val_samples, cfg)
        with pytest.raises(DataError, match="validation"):
            train(model, prepared.train_samples, [], cfg)

    def test_unscorable_validation_rejected(self, synth, prepared):
        model = tiny_model(synth)
        val = prepared.val_samples
        truth = dataclasses.replace(val.targets, mask=np.zeros_like(val.targets.mask))
        blind = dataclasses.replace(val, targets=truth)
        cfg = TrainConfig(max_epochs=1, runs=1, seeds=(0,))
        with pytest.raises(DataError, match="no observed target cells"):
            train(model, prepared.train_samples, blind, cfg)

    def test_divergence_aborts(self, synth, prepared):
        model = tiny_model(synth)
        parameters(model)[0].data[0, 0] = np.nan
        cfg = TrainConfig(max_epochs=1, runs=1, seeds=(0,))
        with pytest.raises(NumericError, match="diverged"):
            train(model, prepared.train_samples, prepared.val_samples, cfg)

    def test_log_serializes_to_json_lines(self, synth, prepared):
        import json

        model = tiny_model(synth)
        cfg = TrainConfig(max_epochs=2, runs=1, seeds=(0,))
        _, log = train(model, prepared.train_samples, prepared.val_samples, cfg)
        lines = log.to_json_lines().strip().split("\n")
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first["epoch"] == 1
        assert json.loads(lines[-1])["checkpoint_id"] == log.checkpoint_id


class TestExperiments:
    def test_train_once_bundle(self, synth):
        cfg = TrainConfig(max_epochs=1, runs=1, seeds=(0,))
        trained, log, prepared = train_once("LSTM1", synth, "median", cfg, seed=0)
        assert trained.arch == "LSTM1"
        assert trained.impute_method == "median"
        assert trained.stats is prepared.stats
        assert trained.ranges == prepared.ranges
        assert trained.start_date == synth.start_date
        assert log.checkpoint_id == parameter_digest(trained.model)

    def test_single_run_sd_zero(self, synth):
        cfg = TrainConfig(max_epochs=1, runs=1, seeds=(9,))
        result = run_experiment("LSTM1", synth, "mean", cfg)
        summary = result.summary()
        assert summary["val_mae_sd"] == 0.0
        assert summary["test_rmse_sd"] == 0.0
        assert len(result.runs) == 1
        assert result.runs[0].seed == 9

    def test_mean_matches_recomputation(self, synth):
        cfg = TrainConfig(max_epochs=2, runs=2, seeds=(0, 1))
        result = run_experiment("LSTM1", synth, "mean", cfg)
        summary = result.summary()
        for name in ("val_mae", "val_rmse", "test_mae", "test_rmse"):
            values = [getattr(run, name) for run in result.runs]
            assert summary[f"{name}_mean"] == pytest.approx(
                sum(values) / len(values), abs=1e-12
            )
            spread = np.std(values)
            assert summary[f"{name}_sd"] == pytest.approx(spread, abs=1e-12)

    def test_validation_scores_are_the_restored_epochs(self, synth, prepared):
        cfg = TrainConfig(lr=0.05, max_epochs=6, runs=1, seeds=(1,))
        (run,) = run_experiment("LSTM1", synth, "mean", cfg).runs
        assert run.log.best_entry.epoch < cfg.max_epochs
        report = evaluate(run.trained.model, prepared.val_samples)
        assert (run.val_mae, run.val_rmse) == (report.mae, report.rmse)

    def test_runs_differ_across_seeds(self, synth):
        cfg = TrainConfig(max_epochs=1, runs=2, seeds=(0, 1))
        result = run_experiment("LSTM1", synth, "mean", cfg)
        a, b = result.runs
        assert a.val_mae != b.val_mae
        assert parameter_digest(a.trained.model) != parameter_digest(b.trained.model)
