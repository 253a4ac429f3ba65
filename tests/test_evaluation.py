"""Tests for metrics, views, baselines, and robustness sweeps."""

import datetime as dt
import json
import math
import os
import signal
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from flowcast import evaluation, imputation, training, workers
from flowcast.dataset import (
    STREAM_DAY_LAGS,
    FlowDataset,
    WindowConfig,
    Windows,
    clean,
    day_batches,
    extract_windows,
    slice_days,
    stack_batch,
    standardize_in_place,
)
from flowcast.errors import DataError, NumericError
from flowcast.evaluation import (
    DEFAULT_RATIOS,
    VIEWS,
    EvalReport,
    evaluate,
    historical_mean_predictor,
    mae,
    persistence_predictor,
    rmse,
    robustness_sweep,
)
from flowcast.hybrid import ARCHITECTURES, ModelSpec, build, forward_batch
from flowcast.synthgen import SynthConfig, generate
from flowcast.training import TrainConfig, train_once

from memory import traced_peak
from test_workers import assert_no_child, counted_forks, refused_forks, use_cores


class TestMae:
    def test_identical_series_zero(self):
        values = np.array([1.0, 2.0, 3.0])
        assert mae(values, values) == 0.0

    def test_hand_value(self):
        assert mae(np.array([1.0, -1.0]), np.array([0.0, 0.0])) == 1.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=40)
        yhat = rng.normal(size=40)
        perm = rng.permutation(40)
        assert mae(yhat, y) == pytest.approx(mae(yhat[perm], y[perm]), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            mae(np.array([]), np.array([]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError, match="differ"):
            mae(np.zeros(3), np.zeros(4))


class TestRmse:
    def test_identical_series_zero(self):
        values = np.array([4.0, 5.0])
        assert rmse(values, values) == 0.0

    def test_hand_value(self):
        # sqrt((9 + 16) / 2) = sqrt(12.5)
        got = rmse(np.array([3.0, 4.0]), np.array([0.0, 0.0]))
        assert got == pytest.approx(math.sqrt(12.5), abs=1e-12)

    def test_never_below_mae(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            size = rng.integers(1, 30)
            y = rng.normal(size=size)
            yhat = rng.normal(size=size)
            assert rmse(yhat, y) >= mae(yhat, y) - 1e-12


P = 2
H = 3
PPD = 12
START = dt.date(2019, 1, 9)  # a Wednesday


def cell_prediction(station: int, step: int, t: int) -> float:
    return 0.3 * station + 0.05 * step + 0.001 * t


def grid_predictor(s, s_d, s_w, ts):
    out = np.empty((P, H, ts.size))
    for b, t in enumerate(ts):
        for i in range(P):
            for j in range(H):
                out[i, j, b] = cell_prediction(i, j, int(t))
    return out


WINDOW = WindowConfig(n=5, h=H, n_d=1, n_w=1)
WEEK = 7 * PPD


def make_samples(rng, ts, mask_fn=None, p=P):
    """Windows over a small random table, anchored one week after ts.

    Shifting by whole weeks keeps every anchor's timestamp and weekday
    buckets and gives each window the week of history it needs. A mask_fn
    sets the target mask of the window at anchor t; where windows overlap,
    the later one wins, and each sample reads back what the table holds.
    """
    anchors = np.asarray(ts) + WEEK
    days = (anchors.max() + H) // PPD + 1
    flows = rng.normal(size=(p, days * PPD))
    mask = np.ones_like(flows, dtype=bool)
    if mask_fn is not None:
        for t in anchors:
            mask[:, t : t + H] = mask_fn(t)
    ds = FlowDataset(
        flows=flows,
        mask=mask,
        station_ids=tuple(f"s{i}" for i in range(p)),
        start_date=START,
        points_per_day=PPD,
    )
    return Windows(ds, WINDOW, anchors)


class TestEvaluate:
    def test_perfect_predictions_zero_everywhere(self):
        rng = np.random.default_rng(0)
        samples = make_samples(rng, [2, 5, 14, 17, 26])
        lookup = {smp.t: smp.target for smp in samples}

        def replay(s, s_d, s_w, ts):
            return np.stack([lookup[int(t)] for t in ts], axis=-1)

        report = evaluate(
            replay, samples, views=("horizon", "station"), points_per_day=PPD
        )
        assert report.mae == 0.0
        assert report.rmse == 0.0
        assert report.cells == len(samples) * P * H
        assert np.all(report.views["horizon"].mae == 0.0)
        assert np.all(report.views["station"].rmse == 0.0)

    def test_matches_bruteforce_over_all_views(self):
        rng = np.random.default_rng(1)
        ts = [3, 5, 8, 15, 20, 27, 30, 40, 55, 60, 70]

        def patchy(t):
            return np.random.default_rng(t).random((P, H)) < 0.7

        samples = make_samples(rng, ts, mask_fn=patchy)
        report = evaluate(
            grid_predictor,
            samples,
            views=("horizon", "timestamp", "weekday", "station"),
            points_per_day=PPD,
            start_date=START,
        )

        sums = {
            "overall": np.zeros((1, 2)),
            "horizon": np.zeros((H, 2)),
            "timestamp": np.zeros((PPD, 2)),
            "weekday": np.zeros((7, 2)),
            "station": np.zeros((P, 2)),
        }
        counts = {name: np.zeros(arr.shape[0], int) for name, arr in sums.items()}
        for smp in samples:
            for i in range(P):
                for j in range(H):
                    if not smp.target_mask[i, j]:
                        continue
                    diff = cell_prediction(i, j, smp.t) - smp.target[i, j]
                    when = smp.t + j
                    buckets = {
                        "overall": 0,
                        "horizon": j,
                        "timestamp": when % PPD,
                        "weekday": (START.weekday() + when // PPD) % 7,
                        "station": i,
                    }
                    for name, idx in buckets.items():
                        sums[name][idx] += (abs(diff), diff * diff)
                        counts[name][idx] += 1
        for name in sums:
            view = report.views[name]
            assert np.array_equal(view.counts, counts[name])
            for idx in range(counts[name].size):
                if counts[name][idx] == 0:
                    assert math.isnan(view.mae[idx])
                    assert math.isnan(view.rmse[idx])
                else:
                    want_mae = sums[name][idx, 0] / counts[name][idx]
                    want_rmse = math.sqrt(sums[name][idx, 1] / counts[name][idx])
                    assert view.mae[idx] == pytest.approx(want_mae, abs=1e-12)
                    assert view.rmse[idx] == pytest.approx(want_rmse, abs=1e-12)

    def test_buckets_only_the_station_summed_plane(self, monkeypatch):
        # No view may bucket the [p, h, batch] block cell by cell: the
        # station view reduces over its axes and the others bucket [h, batch].
        samples = make_samples(np.random.default_rng(11), range(1, PPD), p=16)
        sizes = []
        original = np.bincount

        def counted(x, *args, **kwargs):
            sizes.append(np.size(x))
            return original(x, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", counted)
        evaluate(persistence_predictor(H), samples, VIEWS)
        assert len(day_batches(samples)) == 1
        assert sizes and max(sizes) <= H * len(samples)

    def test_day_batches_read_their_tables_in_place(self):
        samples = make_samples(np.random.default_rng(12), range(1, PPD))
        (batch,) = day_batches(samples)
        *blocks, _ = stack_batch(batch)
        flows, truth, mask = samples.table.flows, samples.table.flows, samples.table.mask
        for block, table in zip(blocks, (flows, flows, flows, truth, mask)):
            assert np.shares_memory(block, table)
        before = [table.tobytes() for table in (flows, truth, mask)]

        def scribble(s, s_d, s_w, ts):
            s[...] = 0.0
            return np.zeros((P, H, ts.size))

        with pytest.raises(ValueError, match="read-only"):
            evaluate(scribble, samples)
        evaluate(persistence_predictor(H), samples, VIEWS)
        assert [table.tobytes() for table in (flows, truth, mask)] == before

    def test_overall_recombines_station_view(self):
        rng = np.random.default_rng(2)
        samples = make_samples(
            rng, [1, 4, 13, 25], mask_fn=lambda t: np.random.default_rng(t + 9).random((P, H)) < 0.6
        )
        report = evaluate(
            grid_predictor, samples, views=("station",), points_per_day=PPD
        )
        stations = report.views["station"]
        weighted = np.nansum(stations.mae * stations.counts) / stations.counts.sum()
        assert report.mae == pytest.approx(weighted, abs=1e-12)

    def test_fully_masked_station_flagged_undefined(self):
        rng = np.random.default_rng(4)

        def drop_station_zero(t):
            mask = np.ones((P, H), dtype=bool)
            mask[0] = False
            return mask

        samples = make_samples(rng, [2, 7, 19], mask_fn=drop_station_zero)
        report = evaluate(
            grid_predictor, samples, views=("station",), points_per_day=PPD
        )
        stations = report.views["station"]
        assert stations.undefined[0]
        assert math.isnan(stations.mae[0])
        assert not stations.undefined[1]
        assert report.cells == stations.counts.sum() == 3 * H

    def test_weekday_view_takes_the_start_date_from_the_windows(self):
        samples = make_samples(np.random.default_rng(5), [3, 15, 27])
        implicit = evaluate(grid_predictor, samples, ("weekday",))
        given = evaluate(
            grid_predictor, samples, ("weekday",), start_date=samples.table.start_date
        )
        for name in ("overall", "weekday"):
            assert np.array_equal(implicit.views[name].counts, given.views[name].counts)
            assert np.array_equal(implicit.views[name].mae, given.views[name].mae, True)
            assert np.array_equal(implicit.views[name].rmse, given.views[name].rmse, True)
        assert np.count_nonzero(implicit.views["weekday"].counts) == 3

    def test_cadence_comes_from_the_windows(self):
        samples = make_samples(np.random.default_rng(9), [2, 5, 7])
        counts = evaluate(grid_predictor, samples, views=("timestamp",)).views[
            "timestamp"
        ].counts
        assert counts.size == PPD
        assert np.flatnonzero(counts).tolist() == list(range(2, 10))

    @pytest.mark.parametrize(
        "given",
        [{"points_per_day": 288}, {"start_date": START + dt.timedelta(days=1)}],
    )
    def test_disagreeing_cadence_or_start_rejected(self, given):
        samples = make_samples(np.random.default_rng(10), [3])
        with pytest.raises(DataError, match="disagrees with the windows"):
            evaluate(grid_predictor, samples, **given)

    def test_unknown_view_rejected(self):
        samples = make_samples(np.random.default_rng(6), [3])
        with pytest.raises(DataError, match="unknown view"):
            evaluate(grid_predictor, samples, views=("per_hour",), points_per_day=PPD)

    def test_no_samples_rejected(self):
        with pytest.raises(DataError, match="no samples"):
            evaluate(grid_predictor, [], points_per_day=PPD)

    def test_predictor_shape_checked(self):
        samples = make_samples(np.random.default_rng(7), [3])

        def wrong(s, s_d, s_w, ts):
            return np.zeros((P, H + 1, ts.size))

        with pytest.raises(DataError, match="expected"):
            evaluate(wrong, samples, points_per_day=PPD)

    def test_model_as_predictor(self):
        spec = ModelSpec(topology=ARCHITECTURES["LSTM1"], p=P, n=WINDOW.n, h=H)
        model = build(spec, seed=0)
        samples = make_samples(np.random.default_rng(8), [3, 6, 15])
        report = evaluate(model, samples, points_per_day=PPD)
        assert math.isfinite(report.mae)
        assert report.mae <= report.rmse

    def test_model_scores_equal_graph_mode_predictions(self):
        spec = ModelSpec(topology=ARCHITECTURES["LSTM1-SP-CNN1"], p=4, n=WINDOW.n, h=H)
        model = build(spec, seed=3)
        rng = np.random.default_rng(10)
        samples = make_samples(
            rng, (3, 5, 14, 20, 27), mask_fn=lambda t: rng.random((4, H)) < 0.8, p=4
        )
        recorded = {}
        for batch in day_batches(samples):
            s, s_d, s_w, _, _, ts = stack_batch(batch)
            out = forward_batch(model, s, s_d, s_w)
            assert out._backward is not None
            recorded[ts.tobytes()] = out.data

        def replay(s, s_d, s_w, ts):
            return recorded[ts.tobytes()]

        views = ("overall", "horizon", "station")
        got = evaluate(model, samples, views, points_per_day=PPD)
        want = evaluate(replay, samples, views, points_per_day=PPD)
        assert (got.mae, got.rmse, got.cells) == (want.mae, want.rmse, want.cells)
        assert got.csv_rows() == want.csv_rows()

    @pytest.mark.parametrize("junk", [math.nan, math.inf, 1e200])
    def test_non_finite_score_at_a_scored_cell_raises(self, junk):
        # 1e200 is finite, but its square overflows the squared-error sum.
        samples = make_samples(np.random.default_rng(11), [3, 6])

        def predict(s, s_d, s_w, ts):
            out = np.zeros((P, H, ts.size))
            out[1, 0, -1] = junk
            return out

        with pytest.raises(NumericError, match="non-finite error sums"):
            evaluate(predict, samples, VIEWS, points_per_day=PPD)

    @pytest.mark.parametrize("p", [P, 64])
    def test_scores_do_not_depend_on_the_prediction_layout(self, p):
        # A station-fastest prediction, as a gather from a [p, ppd] table
        # returns, scores the bits of a C-order one; at p=64 numpy would sum
        # a station-fastest axis pairwise, in other last bits.
        def patchy(t):
            return np.random.default_rng(t).random((p, H)) < 0.8

        samples = make_samples(np.random.default_rng(14), range(1, 40), patchy, p)

        def laid_out(order):
            def predict(s, s_d, s_w, ts):
                return np.array(1.1 * s[:, :H, :] + 0.01 * ts, order=order)

            return predict

        c, f = (evaluate(laid_out(order), samples, VIEWS) for order in "CF")
        assert c.csv_rows() == f.csv_rows()
        for name in VIEWS:
            assert np.array_equal(c.views[name].counts, f.views[name].counts)

    def test_infinite_masked_off_cell_scores_nothing_and_warns_nothing(self):
        def drop_station_zero(t):
            mask = np.ones((P, H), dtype=bool)
            mask[0] = False
            return mask

        samples = make_samples(np.random.default_rng(15), [2, 7, 19], drop_station_zero)
        table = samples.table
        flows = np.where(table.mask, table.flows, math.inf)
        infinite = Windows(replace(table, flows=flows), WINDOW, samples.anchors)

        def predict(fill):
            def scored(s, s_d, s_w, ts):
                out = grid_predictor(s, s_d, s_w, ts)
                out[0] = fill
                return out

            return scored

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evaluate(predict(math.inf), infinite, VIEWS, points_per_day=PPD)
        want = evaluate(predict(0.0), samples, VIEWS, points_per_day=PPD)
        assert got.csv_rows() == want.csv_rows()
        assert got.views["station"].counts[0] == 0
        assert got.cells == want.cells > 0

    def test_junk_predictor_rejected(self):
        samples = make_samples(np.random.default_rng(7), [3])
        with pytest.raises(DataError, match="cannot use a int as a predictor"):
            evaluate(42, samples)

    def test_station_labels(self):
        samples = make_samples(np.random.default_rng(9), [3])
        report = evaluate(
            grid_predictor,
            samples,
            views=("station",),
            points_per_day=PPD,
            station_ids=("a", "b"),
        )
        assert report.views["station"].labels == ("a", "b")

    @pytest.mark.parametrize("ids", [("only-one",), ("a", "b", "c")])
    def test_station_ids_must_match_station_count(self, ids):
        samples = make_samples(np.random.default_rng(9), [3])
        with pytest.raises(DataError, match="station ids"):
            evaluate(grid_predictor, samples, views=("station",), station_ids=ids)


class TestReportSerialization:
    def build_report(self):
        rng = np.random.default_rng(10)

        def drop_station_zero(t):
            mask = np.ones((P, H), dtype=bool)
            mask[0] = False
            return mask

        samples = make_samples(rng, [2, 7], mask_fn=drop_station_zero)
        return evaluate(
            grid_predictor, samples, views=("station", "horizon"), points_per_day=PPD
        )

    def test_json_round_trip_with_nulls(self):
        report = self.build_report()
        payload = json.loads(report.to_json())
        stations = payload["views"]["station"]
        assert stations["mae"][0] is None
        assert stations["count"][0] == 0
        assert stations["mae"][1] == pytest.approx(report.views["station"].mae[1])

    def test_csv_rows_cover_all_buckets(self):
        report = self.build_report()
        rows = report.csv_rows()
        assert len(rows) == 1 + P + H
        undefined = [row for row in rows if row[3] is None]
        assert len(undefined) == 1
        assert undefined[0][0] == "station"

    def test_metadata_carried(self):
        samples = make_samples(np.random.default_rng(12), [4])
        report = evaluate(
            grid_predictor, samples, points_per_day=PPD, metadata={"arch": "LSTM1"}
        )
        assert json.loads(report.to_json())["metadata"]["arch"] == "LSTM1"


class TestBaselines:
    def test_persistence_repeats_last_reading(self):
        samples = make_samples(np.random.default_rng(13), [4, 9])
        s, _, _, _, _, ts = stack_batch(samples)
        predict = persistence_predictor(H)
        pred = predict(s, None, None, ts)
        for j in range(H):
            assert np.array_equal(pred[:, j, :], s[:, -1, :])

    def test_historical_mean_lookup(self):
        ppd = 4
        flows = np.array(
            [
                [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0],
                [2.0, 2.0, 2.0, 2.0, 4.0, 4.0, 4.0, 4.0, 6.0, 6.0, 6.0, 6.0],
            ]
        )
        ds = FlowDataset(
            flows=flows,
            mask=np.ones_like(flows, bool),
            station_ids=("a", "b"),
            start_date=dt.date(2019, 1, 7),
            points_per_day=ppd,
        )
        predict = historical_mean_predictor(ds, (0, 2), h=2)
        pred = predict(None, None, None, np.array([3]))
        # station a: tau 3 mean of (4, 8) = 6; tau 0 mean of (1, 5) = 3
        assert pred[0, 0, 0] == pytest.approx(6.0)
        assert pred[0, 1, 0] == pytest.approx(3.0)
        # station b: tau 3 mean of (2, 4) = 3; tau 0 the same
        assert pred[1, 0, 0] == pytest.approx(3.0)
        assert pred[1, 1, 0] == pytest.approx(3.0)


@pytest.fixture(scope="module")
def small_trained():
    cfg = SynthConfig(p=3, days=14, seed=5)
    ds = generate(cfg)
    tcfg = TrainConfig(max_epochs=2, runs=1, seeds=(0,))
    trained, log, prepared = train_once("LSTM1", ds, "mean", tcfg, seed=0)
    return ds, trained, prepared


class TestRobustnessSweep:
    def test_default_grid(self):
        assert DEFAULT_RATIOS[0] == 0.0
        assert 0.21 in DEFAULT_RATIOS
        assert DEFAULT_RATIOS[-1] == 0.30

    def test_bad_ratio_grids(self):
        ds, trained, _ = None, None, None
        with pytest.raises(DataError, match="start at 0"):
            robustness_sweep(trained, ds, "mean", ratios=(0.1, 0.2))
        with pytest.raises(DataError, match="ascending"):
            robustness_sweep(trained, ds, "mean", ratios=(0.0, 0.2, 0.1))

    @pytest.mark.parametrize("scope", ["test", "all"])
    @pytest.mark.parametrize(
        "ratios",
        [
            (0.0, 0.03, 0.6),
            (0.0, math.nan),
            (0.0, math.inf),
            (0, 10**400),
            (0, "a"),
            (0, None),
        ],
    )
    def test_ratios_checked_before_any_work(
        self, small_trained, monkeypatch, scope, ratios
    ):
        ds, trained, _ = small_trained
        calls = []
        for module, name in (
            (imputation, "fit"),
            (training, "evaluate_on"),
            (training, "run_tasks"),
        ):
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        cfg = TrainConfig(max_epochs=1, runs=1, seeds=(0,))
        with pytest.raises(DataError, match="within \\[0, 0.5\\]"):
            robustness_sweep(
                trained, ds, "mean", ratios, scope, injection_seeds=(0,), cfg=cfg
            )
        assert calls == []

    @pytest.mark.parametrize(
        "seeds, ratios, message",
        [
            ((1, 2, 1), (0.0, 0.1), "repeat"),
            ((1.5,), (0.0,), "seed 1.5 must be"),
            ((1.5,), (0.0, 0.1), "seed 1.5 must be"),
            ((True,), (0.0,), "seed True must be"),
            ((True,), (0.0, 0.1), "seed True must be"),
            ((), (0.0,), "at least one"),
        ],
        ids=["repeat", "float-at-0", "float", "bool-at-0", "bool", "empty"],
    )
    @pytest.mark.parametrize("scope", ["test", "all"])
    def test_repeated_injection_seeds_rejected_before_any_work(
        self, small_trained, monkeypatch, scope, seeds, ratios, message
    ):
        ds, trained, _ = small_trained
        calls = []
        for module, name in ((imputation, "fit"), (training, "run_tasks")):
            monkeypatch.setattr(module, name, lambda *a, _n=name, **k: calls.append(_n))
        cfg = TrainConfig(max_epochs=1, runs=1, seeds=(0,))
        with pytest.raises(DataError, match=message):
            robustness_sweep(
                trained, ds, "mean", ratios, scope, injection_seeds=seeds, cfg=cfg
            )
        assert calls == []

    @pytest.mark.parametrize("method", imputation.METHODS)
    def test_test_scope_fits_once_and_scores_like_evaluate_on(
        self, small_trained, monkeypatch, method
    ):
        ds, trained, _ = small_trained
        ratios, seeds = (0.0, 0.1, 0.2), (0, 1)
        fits = []
        original = imputation.fit

        def counted(*args, **kwargs):
            fits.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(imputation, "fit", counted)
        sweep = robustness_sweep(
            trained, ds, method, ratios=ratios, injection_seeds=seeds
        )
        assert len(fits) == 1
        monkeypatch.setattr(imputation, "fit", original)
        test_range = trained.ranges[2]
        for pt in sweep.points:
            reports = []
            for seed in seeds:
                injected = imputation.inject_missing(
                    clean(ds), pt.ratio, seed, day_range=test_range
                )
                reports.append(training.evaluate_on(trained, injected, method=method))
            assert pt.seed_mae == tuple(r.mae for r in reports)
            assert pt.seed_rmse == tuple(r.rmse for r in reports)
            assert pt.seed_cells == tuple(r.cells for r in reports)

    def test_zero_ratio_matches_plain_evaluate(self, small_trained):
        ds, trained, prepared = small_trained
        sweep = robustness_sweep(
            trained, ds, "mean", ratios=(0.0, 0.1), injection_seeds=(0, 1)
        )
        plain = evaluate(
            trained.model, prepared.test_samples, ("overall",), ds.points_per_day
        )
        zero = sweep.point(0.0)
        assert zero.mae_mean == plain.mae
        assert zero.rmse_mean == plain.rmse
        assert zero.mae_sd == 0.0
        assert zero.seed_cells == (plain.cells, plain.cells)

    def test_cell_counts_monotone_per_seed(self, small_trained):
        ds, trained, _ = small_trained
        sweep = robustness_sweep(
            trained, ds, "mean", ratios=(0.0, 0.1, 0.2), injection_seeds=(0, 1)
        )
        for seed_idx in range(2):
            cells = [pt.seed_cells[seed_idx] for pt in sweep.points]
            assert cells[0] >= cells[1] >= cells[2]

    def test_degradation_readout(self, small_trained):
        ds, trained, _ = small_trained
        sweep = robustness_sweep(
            trained, ds, "mean", ratios=(0.0, 0.2), injection_seeds=(0,)
        )
        want = sweep.point(0.2).mae_mean / sweep.point(0.0).mae_mean
        assert sweep.degradation(0.2) == pytest.approx(want)
        with pytest.raises(DataError, match="not in sweep grid"):
            sweep.degradation(0.21)

    def test_test_scope_needs_trained_model(self, small_trained):
        ds, _, _ = small_trained
        with pytest.raises(DataError, match="TrainedModel"):
            robustness_sweep("LSTM1", ds, "mean", ratios=(0.0, 0.1))

    def test_all_scope_needs_config(self, small_trained):
        ds, trained, _ = small_trained
        with pytest.raises(DataError, match="TrainConfig"):
            robustness_sweep(trained, ds, "mean", ratios=(0.0, 0.1), scope="all")

    def test_unknown_scope_and_method(self, small_trained):
        ds, trained, _ = small_trained
        with pytest.raises(DataError, match="scope"):
            robustness_sweep(trained, ds, "mean", ratios=(0.0,), scope="half")
        with pytest.raises(DataError, match="method"):
            robustness_sweep(trained, ds, "mode", ratios=(0.0,))

    def test_all_scope_retrains(self, small_trained):
        ds, trained, _ = small_trained
        tcfg = TrainConfig(max_epochs=1, runs=1, seeds=(0,))
        seeds = (0, 1)
        sweep = robustness_sweep(
            trained,
            ds,
            "interp",
            ratios=(0.0, 0.15),
            scope="all",
            injection_seeds=seeds,
            cfg=tcfg,
        )
        assert sweep.scope == "all"
        assert len(sweep.points) == 2
        assert sweep.metadata["arch"] == "LSTM1"
        # Each point retrains on the table injected with seed s, from build seed s.
        for pt in sweep.points:
            reports = []
            for seed in seeds:
                injected = imputation.inject_missing(clean(ds), pt.ratio, seed)
                again, _, prepared = training.train_once(
                    "LSTM1", injected, "interp", tcfg, WindowConfig(), seed=seed
                )
                reports.append(evaluate(again.model, prepared.test_samples))
            assert pt.seed_mae == tuple(r.mae for r in reports)
            assert pt.seed_rmse == tuple(r.rmse for r in reports)
            assert pt.seed_cells == tuple(r.cells for r in reports)
            assert pt.seed_mae[0] != pt.seed_mae[1]

    def test_all_scope_at_ratio_zero_is_plain_training(self):
        # The incomplete-training scenario at ratio 0 must be the complete one:
        # each seed's point is train_once on the raw table, scored on its test
        # windows, bit for bit.
        ds = generate(SynthConfig(p=3, days=14, seed=5))
        tcfg = TrainConfig(max_epochs=1, runs=1, seeds=(0,))
        seeds = (0, 1)
        sweep = robustness_sweep(
            "LSTM1", ds, "mean", (0.0,), "all", injection_seeds=seeds, cfg=tcfg
        )
        reports = []
        for seed in seeds:
            trained, _, prepared = train_once("LSTM1", ds, "mean", tcfg, seed=seed)
            reports.append(evaluate(trained.model, prepared.test_samples))
        (zero,) = sweep.points
        assert zero.seed_mae == tuple(r.mae for r in reports)
        assert zero.seed_rmse == tuple(r.rmse for r in reports)
        assert zero.seed_cells == tuple(r.cells for r in reports)

    def test_all_scope_retrains_at_the_models_window(self):
        # Without a window_cfg, a TrainedModel is retrained at its own window.
        ds = generate(SynthConfig(p=3, days=12, seed=5))
        wcfg = WindowConfig(n=9, h=3, n_d=3, n_w=3)
        tcfg = TrainConfig(max_epochs=1, runs=1, seeds=(0,))
        trained, _, prepared = train_once("LSTM1", ds, "mean", tcfg, wcfg)
        sweep = robustness_sweep(
            trained, ds, "mean", (0.0,), "all", injection_seeds=(0,), cfg=tcfg
        )
        want = evaluate(trained.model, prepared.test_samples)
        (zero,) = sweep.points
        assert zero.seed_cells == (want.cells,)
        assert zero.seed_mae == (want.mae,) and zero.seed_rmse == (want.rmse,)


def sweep_bytes(sweep):
    return [
        (pt.ratio, *(np.array(v).tobytes() for v in (pt.seed_mae, pt.seed_rmse, pt.seed_cells)))
        for pt in sweep.points
    ]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedSweep:
    # Nine injected points, dealt to two workers as grid indices 0, 2, 4, 6, 8
    # (the child) and 1, 3, 5, 7 (the parent, which also scored ratio 0).
    RATIOS, SEEDS = (0.0, 0.1, 0.2, 0.3), (0, 1, 2)

    def sweep(self, trained, ds, method="mean", ratios=RATIOS, seeds=SEEDS):
        return robustness_sweep(trained, ds, method, ratios, injection_seeds=seeds)

    @pytest.mark.parametrize("method", imputation.METHODS)
    def test_two_cores_fork_and_score_the_bytes_of_one(
        self, small_trained, monkeypatch, method
    ):
        ds, trained, _ = small_trained
        forks = counted_forks(monkeypatch)
        sweeps = []
        for n in (1, 2):
            use_cores(monkeypatch, n)
            sweeps.append(self.sweep(trained, ds, method))
        assert forks == [os.getpid()]
        assert sweep_bytes(sweeps[1]) == sweep_bytes(sweeps[0])
        assert sweeps[1] == sweeps[0]
        assert_no_child()

    @pytest.mark.parametrize(
        "failing, where",
        [
            ({(0.2, 1): DataError}, "child"),
            ({(0.2, 1): NumericError}, "child"),
            ({(0.1, 2): DataError, (0.2, 0): NumericError}, "child"),
            ({(0.1, 1): NumericError, (0.3, 2): DataError}, "parent"),
            ({(0.2, 1): DataError, (0.3, 0): NumericError}, "child"),
        ],
        ids=["data", "numeric", "child-first", "parent-first", "one-share"],
    )
    def test_the_earliest_failing_point_is_raised(
        self, small_trained, monkeypatch, failing, where
    ):
        ds, trained, _ = small_trained
        original = imputation.inject_missing

        def inject(table, ratio, seed, day_range):
            if (ratio, seed) in failing:
                raise failing[ratio, seed](f"point {ratio}, {seed} failed in {os.getpid()}")
            return original(table, ratio, seed, day_range)

        monkeypatch.setattr(imputation, "inject_missing", inject)
        ratio, seed = min(failing)
        pids = []
        for n in (1, 2):
            use_cores(monkeypatch, n)
            with pytest.raises(failing[ratio, seed], match=f"^point {ratio}, {seed} failed"):
                try:
                    self.sweep(trained, ds)
                except Exception as exc:
                    pids.append(int(str(exc).rsplit(" ", 1)[1]))
                    raise
            assert_no_child()
        assert pids[0] == os.getpid()
        assert (pids[1] == os.getpid()) == (where == "parent")

    def test_a_child_that_dies_without_writing_fails_the_sweep(
        self, small_trained, monkeypatch
    ):
        ds, trained, _ = small_trained
        use_cores(monkeypatch, 2)
        parent = os.getpid()
        original = imputation.inject_missing

        def inject(*args):
            if os.getpid() != parent:
                os._exit(1)
            return original(*args)

        def hung(signum, frame):
            raise TimeoutError("the sweep waited a minute on a dead child")

        monkeypatch.setattr(imputation, "inject_missing", inject)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(ChildProcessError, match="ended without replying"):
                self.sweep(trained, ds)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert_no_child()

    @pytest.mark.parametrize(
        "case",
        ["one-core", "one-point", "no-affinity", "no-fork", "fork-fails", "thread", "pool"],
    )
    def test_runs_in_process_when_it_cannot_fork_usefully(
        self, small_trained, monkeypatch, case
    ):
        ds, trained, _ = small_trained
        use_cores(monkeypatch, 2)
        want = self.sweep(trained, ds, ratios=(0.0, 0.1), seeds=(0,))
        forks = counted_forks(monkeypatch)
        ratios, seeds = self.RATIOS, self.SEEDS
        if case == "one-core":
            use_cores(monkeypatch, 1)
        elif case == "one-point":
            ratios, seeds = (0.0, 0.1), (0,)
        elif case == "no-affinity":
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        elif case == "no-fork":
            monkeypatch.delattr(os, "fork")
        elif case == "pool":
            monkeypatch.setattr(workers, "_process_threads", lambda: 2)
        refused = refused_forks(monkeypatch) if case == "fork-fails" else []
        done = threading.Event()
        worker = threading.Thread(target=done.wait)
        if case == "thread":
            worker.start()
        try:
            got = self.sweep(trained, ds, ratios=ratios, seeds=seeds)
        finally:
            done.set()
            if case == "thread":
                worker.join()
        assert forks == []
        assert refused == ([os.getpid()] if case == "fork-fails" else [])
        assert got.point(0.1).seed_mae[:1] == want.point(0.1).seed_mae
        assert_no_child()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_process_threads_counts_every_thread():
    # A BLAS library's own pool counts too, so the count is never below
    # Python's.
    before = workers._process_threads()
    assert before >= threading.active_count()
    done = threading.Event()
    worker = threading.Thread(target=done.wait)
    worker.start()
    try:
        assert workers._process_threads() == before + 1
    finally:
        done.set()
        worker.join(timeout=60)
    assert not worker.is_alive()


def untrained(ds, arch, seed=0):
    """A built, untrained model bundled like a trained one for ``ds``."""
    prepared = training.prepare_data(ds)
    wcfg = prepared.window_cfg
    return training.TrainedModel(
        model=build(training.model_spec_for(arch, ds.num_stations, wcfg), seed),
        arch=arch,
        impute_method="mean",
        stats=prepared.stats,
        window_cfg=wcfg,
        ranges=prepared.ranges,
        start_date=ds.start_date,
        points_per_day=ds.points_per_day,
    )


@pytest.fixture(scope="module")
def eight_test_days():
    # 80 days split 64/8/8: the last test day's weekly block reads the first
    # test day, so one stream block after the first week is not pre-test.
    ds = generate(SynthConfig(p=4, days=80, seed=2))
    return ds, untrained(ds, "LSTM2-SP-CNN3")


class TestTestScopeReuse:
    @pytest.mark.parametrize("method", imputation.METHODS)
    def test_longer_test_range_scores_like_evaluate_on(
        self, eight_test_days, monkeypatch, method
    ):
        ds, trained = eight_test_days
        start, stop = trained.ranges[2]
        assert (start, stop) == (72, 80)
        test_days = stop - start
        pre_test = sum(
            d - lag < start for d in range(start, stop) for lag in STREAM_DAY_LAGS
        )
        assert pre_test == 8
        calls = []
        original = evaluation.apply_topology

        def counted(*args):
            calls.append(args)
            return original(*args)

        # Calls made in a forked worker are not counted here: score in-process.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(evaluation, "apply_topology", counted)
        ratios, seeds = (0.0, 0.1, 0.2), (0, 1)
        sweep = robustness_sweep(
            trained, ds, method, ratios=ratios, injection_seeds=seeds
        )
        injected_points = (len(ratios) - 1) * len(seeds)
        clean_pass = 3 * test_days
        assert len(calls) == clean_pass + injected_points * (3 * test_days - pre_test)
        for pt in sweep.points:
            reports = []
            for seed in seeds:
                injected = imputation.inject_missing(
                    clean(ds), pt.ratio, seed, day_range=(start, stop)
                )
                reports.append(training.evaluate_on(trained, injected, method=method))
            assert pt.seed_mae == tuple(r.mae for r in reports)
            assert pt.seed_rmse == tuple(r.rmse for r in reports)
            assert pt.seed_cells == tuple(r.cells for r in reports)

    @pytest.mark.parametrize("method", imputation.METHODS)
    def test_evaluate_on_matches_the_whole_table(self, eight_test_days, method):
        # evaluate_on reads only the test days and the week before; every
        # view, the weekday and timestamp ones included, must be what the
        # whole table gives.
        ds, trained = eight_test_days
        injected = imputation.inject_missing(
            clean(ds), 0.15, 4, day_range=trained.ranges[2]
        )
        imputer = imputation.fit(
            method, slice_days(injected, trained.ranges[0])
        )
        filled = imputation.impute(imputer, injected)
        flows = standardize_in_place(filled.flows.copy(), trained.stats)
        samples = extract_windows(
            replace(filled, flows=flows, mask=injected.mask),
            trained.window_cfg,
            trained.ranges[2],
        )
        whole = evaluate(trained.model, samples, VIEWS, station_ids=ds.station_ids)
        sliced = training.evaluate_on(trained, injected, VIEWS, method)
        assert sliced.csv_rows() == whole.csv_rows()

    def test_a_wrong_day_rule_costs_speed_not_correctness(self, eight_test_days):
        # A predictor that takes every day for a pre-test day keeps every
        # block at the clean pass; the injected blocks differ from the kept
        # ones, so it must compute them again and score like the model.
        ds, trained = eight_test_days
        table, test_range, imputer = training._test_days(trained, ds, "mean")
        predict = evaluation._reusing_predictor(
            trained.model, table.points_per_day, first_day=10**6
        )
        for ratio in (0.0, 0.2, 0.2):
            injected = imputation.inject_missing(table, ratio, 1, test_range)
            args = (trained, injected, test_range, imputer)
            want = training._score_test(*args, trained.model, VIEWS)
            got = training._score_test(*args, predict, VIEWS)
            assert got.csv_rows() == want.csv_rows()

    def test_sweep_memory_keeps_only_pre_test_blocks(self):
        # Traced bytes are deterministic. At p=8 over 60 days the sweep below
        # peaked at 10.2 MiB above its base; keeping every stream block took
        # it to 17.6 MiB and imputing the whole table at every point to 14.7.
        ds = generate(SynthConfig(p=8, days=60, seed=11, native_missing_ratio=0.0))
        trained = untrained(ds, "LSTM2-SP-CNN3")
        _, peak = traced_peak(
            lambda: robustness_sweep(
                trained, ds, "mean", ratios=(0.0, 0.1), injection_seeds=(0, 1)
            )
        )
        assert peak < 12.5 * 2**20
