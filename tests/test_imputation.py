"""Imputation tests: fill statistics vs hand values and brute-force oracles."""

import datetime as dt

import numpy as np
import pytest

from flowcast import imputation
from flowcast.dataset import FlowDataset, slice_days
from flowcast.errors import DataError
from flowcast.imputation import METHODS, fit, impute, inject_missing

MONDAY = dt.date(2019, 1, 7)


def dataset_from_cube(cube, mask_cube, start=MONDAY):
    """cube, mask_cube: [p, days, 288] arrays."""
    p, days, ppd = cube.shape
    flows = np.where(mask_cube, cube, np.nan).reshape(p, days * ppd)
    return FlowDataset(
        flows=flows,
        mask=mask_cube.reshape(p, days * ppd),
        station_ids=tuple(f"vds{i}" for i in range(p)),
        start_date=start,
    )


def random_dataset(p=3, days=6, seed=0, missing=0.15):
    rng = np.random.default_rng(seed)
    cube = rng.uniform(1.0, 100.0, size=(p, days, 288))
    mask = rng.random((p, days, 288)) >= missing
    return dataset_from_cube(cube, mask)


class TestFit:
    def test_unknown_method(self):
        with pytest.raises(DataError, match="unknown imputation method"):
            fit("mode", random_dataset())

    def test_mean_median_hand_values(self):
        cube = np.ones((1, 3, 288))
        mask = np.ones((1, 3, 288), bool)
        cube[0, :, 5] = [1.0, 2.0, 9.0]
        ds = dataset_from_cube(cube, mask)
        assert fit("mean", ds).table[0, 5] == 4.0
        assert fit("median", ds).table[0, 5] == 2.0

    def test_single_observation_all_methods_agree(self):
        cube = np.ones((1, 3, 288))
        mask = np.ones((1, 3, 288), bool)
        cube[0, 1, 10] = 42.0
        mask[0, 0, 10] = mask[0, 2, 10] = False
        ds = dataset_from_cube(cube, mask)
        fills = {}
        for method in METHODS:
            model = fit(method, ds)
            filled = impute(model, ds)
            fills[method] = (filled.flows[0, 10], filled.flows[0, 2 * 288 + 10])
        assert fills["mean"] == fills["median"] == fills["interp"] == (42.0, 42.0)

    def test_complete_data_mean_matches_two_loop_oracle(self):
        ds = random_dataset(p=2, days=4, missing=0.0)
        model = fit("mean", ds)
        cube = ds.flows.reshape(2, 4, 288)
        for s in range(2):
            for tau in range(0, 288, 37):
                naive = sum(cube[s, d, tau] for d in range(4)) / 4.0
                assert abs(model.table[s, tau] - naive) < 1e-12

    def test_empty_cell_falls_back_to_station_statistic(self):
        cube = np.ones((1, 3, 288)) * 7.0
        mask = np.ones((1, 3, 288), bool)
        mask[0, :, 50] = False
        cube[0, 0, 60] = 19.0
        ds = dataset_from_cube(cube, mask)
        model = fit("mean", ds)
        expected = ds.flows[0][ds.mask[0]].mean()
        assert abs(model.table[0, 50] - expected) < 1e-12

    def test_fully_missing_station_rejected(self):
        cube = np.ones((2, 3, 288))
        mask = np.ones((2, 3, 288), bool)
        mask[1] = False
        ds = dataset_from_cube(cube, mask)
        with pytest.raises(DataError, match="no observed training values"):
            fit("mean", ds)


DAY_RANGE = (2, 7)


class TestFitOnDayRange:
    """Fitting on a day range of a table agrees bit for bit with fitting a
    standalone copy of those days."""

    @pytest.fixture
    def ds(self):
        # Some slots are observed on all 5 days of the range and some are not,
        # so both reduction paths run.
        ds = random_dataset(p=3, days=9, seed=3)
        counts = ds.mask.reshape(3, 9, 288)[:, 2:7].sum(axis=1)
        assert (counts == 5).any() and (counts < 5).any()
        return ds

    @pytest.mark.parametrize("method", METHODS)
    def test_matches_fit_on_a_sliced_copy(self, ds, method):
        got = fit(method, ds, DAY_RANGE)
        want = fit(method, slice_days(ds, DAY_RANGE))
        assert got.table.tobytes() == want.table.tobytes()
        assert got.origin == want.origin == MONDAY + dt.timedelta(days=2)
        # Holes of another table fall before, inside and after the range.
        other = random_dataset(p=3, days=9, seed=4, missing=0.3)
        assert impute(got, other).flows.tobytes() == impute(want, other).flows.tobytes()

    def test_interp_keeps_views_of_the_table(self, ds):
        model = fit("interp", ds, DAY_RANGE)
        assert model.train_flows.shape == (3, 5, 288)
        assert np.shares_memory(model.train_flows, ds.flows)
        assert np.shares_memory(model.train_mask, ds.mask)

    @pytest.mark.parametrize("method", ["mean", "median"])
    @pytest.mark.parametrize("gather_bytes", [1, 8 * 5 * 7])
    def test_gathering_in_blocks_keeps_the_bits(self, ds, monkeypatch, method, gather_bytes):
        # One block by default; then blocks of one slot and of seven slots.
        want = fit(method, ds, DAY_RANGE).table
        monkeypatch.setattr(imputation, "_GATHER_BYTES", gather_bytes)
        assert fit(method, ds, DAY_RANGE).table.tobytes() == want.tobytes()

    @pytest.mark.parametrize("days", [(-1, 3), (3, 3), (5, 2), (0, 10), (9, 10)])
    def test_out_of_range_days_rejected(self, ds, days):
        with pytest.raises(DataError, match=r"day range .* outside 0\.\.9"):
            fit("mean", ds, days)


class TestImpute:
    @pytest.mark.parametrize("method", METHODS)
    def test_complete_dataset_unchanged(self, method):
        ds = random_dataset(missing=0.0)
        model = fit(method, ds)
        assert impute(model, ds) is ds

    @pytest.mark.parametrize("method", METHODS)
    def test_observed_cells_untouched(self, method):
        ds = random_dataset(seed=1)
        model = fit(method, ds)
        filled = impute(model, ds)
        assert np.array_equal(filled.flows[ds.mask], ds.flows[ds.mask])
        assert filled.mask.all()
        assert np.all(np.isfinite(filled.flows))

    def test_mean_fills_from_table(self):
        ds = random_dataset(seed=2)
        model = fit("mean", ds)
        filled = impute(model, ds)
        stations, timestamps = np.nonzero(~ds.mask)
        for s, t in zip(stations[:200], timestamps[:200]):
            assert filled.flows[s, t] == model.table[s, t % 288]

    def test_linear_interpolation_hand_value(self):
        cube = np.ones((1, 5, 288))
        mask = np.ones((1, 5, 288), bool)
        cube[0, 0, 30] = 2.0
        cube[0, 4, 30] = 6.0
        mask[0, 1, 30] = mask[0, 2, 30] = mask[0, 3, 30] = False
        ds = dataset_from_cube(cube, mask)
        filled = impute(fit("interp", ds), ds)
        assert abs(filled.flows[0, 2 * 288 + 30] - 4.0) < 1e-12

    def test_interpolation_clamps_at_edges(self):
        cube = np.ones((1, 5, 288))
        mask = np.ones((1, 5, 288), bool)
        cube[0, 1, 40] = 10.0
        cube[0, 3, 40] = 20.0
        mask[0, 0, 40] = mask[0, 2, 40] = mask[0, 4, 40] = False
        ds = dataset_from_cube(cube, mask)
        filled = impute(fit("interp", ds), ds)
        assert filled.flows[0, 40] == 10.0
        assert filled.flows[0, 4 * 288 + 40] == 20.0
        assert filled.flows[0, 2 * 288 + 40] == 15.0

    def test_interpolation_across_datasets_uses_date_offset(self):
        # fit on 5 days, impute a later 1-day dataset: queries clamp to the
        # last observed training value
        cube = np.ones((1, 5, 288))
        mask = np.ones((1, 5, 288), bool)
        cube[0, 4, 8] = 33.0
        ds = dataset_from_cube(cube, mask)
        model = fit("interp", ds)
        later = dataset_from_cube(
            np.zeros((1, 1, 288)),
            np.zeros((1, 1, 288), bool) | False,
            start=MONDAY + dt.timedelta(days=9),
        )
        # fully missing day: needs fallback or interpolation for every cell
        filled = impute(model, later)
        assert filled.flows[0, 8] == 33.0

    def test_median_robust_to_outlier(self):
        cube = np.ones((1, 5, 288))
        mask = np.ones((1, 5, 288), bool)
        cube[0, :, 70] = [3.0, 5.0, 7.0, 9.0, 11.0]
        ds = dataset_from_cube(cube, mask)
        base = fit("median", ds).table[0, 70]
        cube2 = cube.copy()
        cube2[0, 4, 70] = 1e9
        spiked = fit("median", dataset_from_cube(cube2, mask)).table[0, 70]
        assert base == spiked == 7.0

    def test_station_mismatch_rejected(self):
        ds = random_dataset(p=2)
        model = fit("mean", ds)
        other = random_dataset(p=3)
        with pytest.raises(DataError, match="stations"):
            impute(model, other)


def removed(ds, out):
    """The (station, timestamp) cells an injection took out of ``ds``."""
    return np.argwhere(ds.mask & ~out.mask)


class TestInjectMissing:
    def test_ratio_zero_unchanged(self):
        ds = random_dataset()
        out = inject_missing(ds, 0.0, seed=1)
        assert out is ds
        assert removed(ds, out).shape == (0, 2)

    def test_counts(self):
        cube = np.ones((100, 1, 288))
        ds = dataset_from_cube(cube, np.ones((100, 1, 288), bool))
        out = inject_missing(ds, 0.21, seed=2)
        assert removed(ds, out).shape[0] == 6048
        assert int((~out.mask).sum()) == 6048
        assert np.isnan(out.flows[~out.mask]).all()

    def test_deterministic(self):
        ds = random_dataset(seed=3)
        a = inject_missing(ds, 0.1, seed=7)
        b = inject_missing(ds, 0.1, seed=7)
        assert np.array_equal(a.mask, b.mask)
        assert np.array_equal(a.flows, b.flows, equal_nan=True)
        c = inject_missing(ds, 0.1, seed=8)
        assert not np.array_equal(removed(ds, a), removed(ds, c))

    def test_test_scope_only_touches_range(self):
        ds = random_dataset(p=2, days=6, missing=0.0)
        out = inject_missing(ds, 0.2, seed=4, day_range=(4, 6))
        untouched = out.mask[:, : 4 * 288]
        assert untouched.all()
        cells = removed(ds, out)
        assert cells.shape[0] == round(0.2 * 2 * 2 * 288)
        assert np.all(cells[:, 1] >= 4 * 288)

    def test_never_marks_observed(self):
        ds = random_dataset(seed=5, missing=0.3)
        out = inject_missing(ds, 0.1, seed=6)
        # every cell missing before stays missing, so only observed cells go
        assert not (out.mask & ~ds.mask).any()
        assert (~out.mask).sum() - (~ds.mask).sum() == removed(ds, out).shape[0] > 0
        assert np.array_equal(out.flows[out.mask], ds.flows[out.mask])

    def test_ratio_bounds(self):
        ds = random_dataset()
        with pytest.raises(DataError, match="outside"):
            inject_missing(ds, 0.6, seed=0)
        with pytest.raises(DataError, match="outside"):
            inject_missing(ds, -0.1, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_rejected_before_any_draw(self, seed):
        # Before, numpy raised a bare ValueError (-1) or a TypeError (1.5),
        # and at ratio 0 nothing checked the seed at all.
        ds = random_dataset()
        for ratio in (0.1, 0.0):
            with pytest.raises(DataError, match=f"seed {seed} must be"):
                inject_missing(ds, ratio, seed)

    def test_ratio_beyond_observed_rejected(self):
        cube = np.ones((1, 1, 288))
        mask = np.zeros((1, 1, 288), bool)
        mask[0, 0, :100] = True
        ds = dataset_from_cube(cube, mask)
        with pytest.raises(DataError, match="only 100 observed"):
            inject_missing(ds, 0.5, seed=0)
