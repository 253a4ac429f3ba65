"""Tests for the optimizer, the training loop, and the runner of training runs."""

import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from flowcast import training
from flowcast.autodiff import Tensor, backward
from flowcast.dataset import WindowConfig, clean
from flowcast.errors import DataError, NumericError
from flowcast.evaluation import evaluate, historical_mean_predictor, mean_sd
from flowcast.hybrid import ARCHITECTURES, ModelSpec, build, named_parameters
from flowcast.synthgen import SynthConfig, generate
from flowcast.training import (
    AdamState,
    RunTask,
    TrainConfig,
    adam_init,
    adam_step,
    model_spec_for,
    mse_loss,
    parameter_digest,
    prepare_data,
    run_tasks,
    train,
    train_once,
)

from gradcheck import finite_difference
from memory import traced_peak
from test_hybrid import assert_on_buffer


WINDOWS = WindowConfig()


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
            {"runs": 1, "seeds": ()},
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


def test_integral_values_of_float_fields_are_stored_as_floats():
    cfg = TrainConfig(lr=1, l2=np.int64(0))
    assert type(cfg.lr) is float and type(cfg.l2) is float
    assert cfg == TrainConfig(lr=1.0, l2=0.0)
    assert dataclasses.asdict(cfg) == dataclasses.asdict(TrainConfig(lr=1.0, l2=0.0))
    assert repr(SynthConfig(noise_std=1)) == repr(SynthConfig(noise_std=1.0))
    assert type(TrainConfig(max_epochs=2).max_epochs) is int
    with pytest.raises(OverflowError):
        TrainConfig(lr=10**400)


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

    def test_gradient_bits_of_a_batch_block(self):
        # One [p, h, batch] block, as training feeds it. The gradient must be
        # diff * (1/n) added twice, bit for bit: trained weights depend on it.
        rng = np.random.default_rng(2)
        pred = Tensor(rng.normal(size=(5, 9, 7)), requires_grad=True)
        target = rng.normal(size=(5, 9, 7))
        loss = mse_loss(pred, target)
        backward(loss)
        diff = pred.data - target
        assert loss.item() == (diff * diff).mean()
        twice = diff * (1 / diff.size) + diff * (1 / diff.size)
        np.testing.assert_array_equal(pred.grad, twice)

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


    def test_in_place_moments_match_the_plain_update_bits(self):
        cfg = TrainConfig(lr=0.01, l2=1e-3)
        rng = np.random.default_rng(22)
        values = rng.normal(size=1000)
        want, m, v = values.copy(), np.zeros(1000), np.zeros(1000)
        state = adam_init(values)
        for t in range(1, 6):
            grads = rng.normal(size=1000)
            adam_step(values, grads, state, cfg)
            g = grads + cfg.l2 * want
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
            c1, c2 = 1.0 - cfg.beta1**t, 1.0 - cfg.beta2**t
            want -= cfg.lr * (m / c1) / (np.sqrt(v / c2) + cfg.eps)
        for got, ref in ((state.m, m), (state.v, v), (values, want)):
            np.testing.assert_array_equal(got, ref)

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
        next(named_parameters(model))[1].data[0, 0] += 1e-9
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
        if not ARCHITECTURES[arch].kernels:
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

    def test_val_and_test_share_one_targets_table(self, synth):
        # The targets are the standardized filled table's values under the
        # cleaned mask: one table for validation and test, read in place.
        start = 13 * 288
        t = start + int(np.flatnonzero(synth.mask[0, start:])[0])
        flows = synth.flows.copy()
        flows[0, t] = -4.0  # an observed negative reading, which clean drops
        ds = dataclasses.replace(synth, flows=flows)
        prep = prepare_data(ds, "mean")
        val, test = prep.val_samples, prep.test_samples
        assert val.table is test.table
        assert np.shares_memory(val.table.flows, prep.dataset.flows)
        np.testing.assert_array_equal(val.table.mask, clean(ds).mask)
        assert ds.mask[0, t] and not val.table.mask[0, t]
        joined = val + test
        assert joined.anchors.tolist() == [*val.anchors, *test.anchors]

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
        before = [t.data.copy() for _, t in named_parameters(model)]
        cfg = TrainConfig(lr=0.0, max_epochs=2, runs=1, seeds=(0,))
        model, log = train(model, prepared.train_samples, prepared.val_samples, cfg)
        for saved, (_, tensor) in zip(before, named_parameters(model)):
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
        truth = dataclasses.replace(val.table, mask=np.zeros_like(val.table.mask))
        blind = dataclasses.replace(val, table=truth)
        cfg = TrainConfig(max_epochs=1, runs=1, seeds=(0,))
        with pytest.raises(DataError, match="no observed target cells"):
            train(model, prepared.train_samples, blind, cfg)

    def test_divergence_aborts(self, synth, prepared):
        model = tiny_model(synth)
        next(named_parameters(model))[1].data[0, 0] = np.nan
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


@pytest.mark.parametrize("method", ["mean", "median", "interp"])
def test_data_path_copies_no_table_it_does_not_return(method):
    # Traced bytes are deterministic; each call is measured after a warm-up
    # call, which pays numpy's one-time costs. In multiples of the table's
    # flows (p=32, 30 days, 5% holes), prepare_data peaked at 3.19-4.09 when
    # fitting copied the training days and filling tiled the table, and at
    # 2.31-2.57 without; the historical-mean baseline peaked at 2.73 with
    # that copy, 0.97 gathering every slot's row at once and 0.37 in blocks.
    # What prepare_data returns held 2.15 tables while validation and test
    # targets came from a second standardized table, and 1.15 without it.
    ds = generate(SynthConfig(p=32, days=30, seed=5, native_missing_ratio=0.05))
    warm = prepare_data(ds, method)
    historical_mean_predictor(warm.dataset, warm.ranges[0], 9)

    def prepare_holding():
        base = tracemalloc.get_traced_memory()[0]
        prepared = prepare_data(ds, method)
        return prepared, tracemalloc.get_traced_memory()[0] - base

    (prepared, held), prepare_peak = traced_peak(prepare_holding)
    _, history_peak = traced_peak(
        lambda: historical_mean_predictor(prepared.dataset, prepared.ranges[0], 9)
    )
    assert prepare_peak < 2.8 * ds.flows.nbytes
    assert held < 1.5 * ds.flows.nbytes
    assert history_peak < 0.75 * ds.flows.nbytes


@pytest.mark.parametrize("method", ["mean", "median"])
def test_prepare_data_standardizes_its_fill_in_place(method):
    # In multiples of the table's flows (p=32, 30 days, 5% holes), measured
    # after a warm-up call: prepare_data peaked at 2.31 while it standardized
    # its fill into a second table, and at 1.29 standardizing it in place.
    ds = generate(SynthConfig(p=32, days=30, seed=5, native_missing_ratio=0.05))
    prepare_data(ds, method)
    _, peak = traced_peak(lambda: prepare_data(ds, method))
    assert peak < 1.6 * ds.flows.nbytes


def test_later_steps_do_not_hold_the_previous_graph(monkeypatch):
    # Four LSTM2-SP-CNN3 steps at p=8 on 253-window day batches. Traced bytes
    # are deterministic; a step that still held the previous step's graph
    # peaked about 1.6x the first step's.
    table = generate(SynthConfig(p=8, days=20, seed=3, native_missing_ratio=0.0))
    prepared = prepare_data(table)
    model = build(model_spec_for("LSTM2-SP-CNN3", 8, WINDOWS), seed=0)
    peaks = []

    def traced_adam_step(*args):
        adam_step(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    monkeypatch.setattr(training, "adam_step", traced_adam_step)
    cfg = TrainConfig(max_epochs=1)
    traced_peak(
        lambda: train(model, prepared.train_samples[: 4 * 253], prepared.val_samples, cfg)
    )
    assert len(peaks) == 4
    assert max(peaks[1:]) <= 1.25 * peaks[0]


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
        runs = list(run_tasks(synth, [RunTask("LSTM1", "mean", 0.0, 9)], cfg, WINDOWS))
        assert len(runs) == 1
        assert runs[0].seed == 9
        for name in ("val_mae", "test_rmse"):
            value = getattr(runs[0], name)
            assert mean_sd([value]) == (value, 0.0)

    def test_mean_matches_recomputation(self, synth):
        cfg = TrainConfig(max_epochs=2, runs=2, seeds=(0, 1))
        tasks = [RunTask("LSTM1", "mean", 0.0, seed) for seed in cfg.seeds]
        runs = list(run_tasks(synth, tasks, cfg, WINDOWS))
        assert [run.task for run in runs] == tasks
        for name in ("val_mae", "val_rmse", "test_mae", "test_rmse"):
            values = [getattr(run, name) for run in runs]
            mean, sd = mean_sd(values)
            assert mean == pytest.approx(sum(values) / len(values), abs=1e-12)
            assert sd == pytest.approx(np.std(values), abs=1e-12)

    def test_validation_scores_are_the_restored_epochs(self, synth, prepared):
        cfg = TrainConfig(lr=0.05, max_epochs=6, runs=1, seeds=(1,))
        (run,) = run_tasks(synth, [RunTask("LSTM1", "mean", 0.0, 1)], cfg, WINDOWS)
        assert run.log.best_entry.epoch < cfg.max_epochs
        report = evaluate(run.trained.model, prepared.val_samples)
        assert (run.val_mae, run.val_rmse) == (report.mae, report.rmse)
        test = evaluate(run.trained.model, prepared.test_samples)
        assert (run.test_mae, run.test_rmse) == (test.mae, test.rmse)

    def test_runs_differ_across_seeds(self, synth):
        cfg = TrainConfig(max_epochs=1, runs=2, seeds=(0, 1))
        tasks = [RunTask("LSTM1", "mean", 0.0, seed) for seed in cfg.seeds]
        a, b = run_tasks(synth, tasks, cfg, WINDOWS)
        assert a.val_mae != b.val_mae
        assert parameter_digest(a.trained.model) != parameter_digest(b.trained.model)


class TestRunner:
    def test_shares_one_prepared_table_across_architectures_and_seeds(
        self, synth, monkeypatch
    ):
        prepares = []
        original = training.prepare_data

        def counted(ds, method, wcfg):
            prepares.append(method)
            return original(ds, method, wcfg)

        monkeypatch.setattr(training, "prepare_data", counted)
        cfg = TrainConfig(max_epochs=1, runs=1, seeds=(0,))
        tasks = [
            RunTask("LSTM1", "mean", 0.0, 0),
            RunTask("LSTM2", "mean", 0.0, 1),
            RunTask("LSTM1", "interp", 0.0, 0),
            RunTask("LSTM1", "interp", 0.1, 0),
            RunTask("LSTM1", "interp", 0.1, 1),
        ]
        runs = list(run_tasks(synth, tasks, cfg, WINDOWS))
        assert [run.task for run in runs] == tasks
        assert prepares == ["mean", "interp", "interp", "interp"]

    def test_holds_one_prepared_table_at_a_time(self, synth, monkeypatch):
        made = []
        original = training.prepare_data
        counts = []

        def tracked(*args):
            counts.append(sum(ref() is not None for ref in made))
            prepared = original(*args)
            made.append(weakref.ref(prepared))
            return prepared

        monkeypatch.setattr(training, "prepare_data", tracked)
        cfg = TrainConfig(max_epochs=1, runs=1, seeds=(0,))
        tasks = [RunTask("LSTM1", m, 0.0, 0) for m in ("mean", "median", "interp")]
        for _ in run_tasks(synth, tasks, cfg, WINDOWS):
            pass
        assert counts == [0, 0, 0]

    def test_negative_build_seed_rejected_before_any_work(self, synth, monkeypatch):
        calls = []
        monkeypatch.setattr(training, "prepare_data", lambda *a: calls.append(a))
        cfg = TrainConfig(max_epochs=1, runs=1, seeds=(0,))
        with pytest.raises(DataError, match="seed -1 must be nonnegative"):
            train_once("LSTM1", synth, "mean", cfg, seed=-1)
        with pytest.raises(DataError, match="seed -2 must be nonnegative"):
            RunTask("LSTM1", "mean", 0.0, -2)
        # A float or a bool is no seed either, though a bool is an int.
        for seed in (1.5, True):
            with pytest.raises(DataError, match=f"seed {seed} must be"):
                train_once("LSTM1", synth, "mean", cfg, seed=seed)
            with pytest.raises(DataError, match=f"seed {seed} must be"):
                RunTask("LSTM1", "mean", 0.0, seed)
        assert calls == []

    @pytest.mark.parametrize(
        "method, ratio, message",
        [("bogus", 0.0, "unknown imputation method"), ("mean", 0.7, "outside")],
        ids=["rule", "ratio"],
    )
    def test_a_bad_later_task_rejected_before_the_first_run(
        self, synth, monkeypatch, method, ratio, message
    ):
        calls = []
        original = training.train

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(training, "train", counted)
        cfg = TrainConfig(max_epochs=1, runs=1, seeds=(0,))
        with pytest.raises(DataError, match=message):
            tasks = [RunTask("LSTM1", "mean", 0.0, 0), RunTask("LSTM1", method, ratio, 0)]
            for _ in run_tasks(synth, tasks, cfg, WINDOWS):
                pass
        assert calls == []

    def test_every_architecture_checked_before_the_first_run(self, synth, monkeypatch):
        calls = []
        monkeypatch.setattr(training, "prepare_data", lambda *a: calls.append(a))
        cfg = TrainConfig(max_epochs=1, runs=1, seeds=(0,))
        tasks = [RunTask("LSTM1", "mean", 0.0, 0), RunTask("LSTM1-S-CNN1", "mean", 0.0, 0)]
        with pytest.raises(DataError, match="only 3 stations"):
            next(run_tasks(synth, tasks, cfg, WINDOWS))
        assert calls == []
