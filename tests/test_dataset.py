"""Dataset tests: CSV round trips, cleaning, standardization, windows."""

import datetime as dt
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from flowcast.dataset import (
    STREAM_DAY_LAGS,
    FlowDataset,
    StandardStats,
    WindowConfig,
    Windows,
    clean,
    day_batches,
    extract_windows,
    load_csv,
    save_csv,
    split,
    stack_batch,
    standard_stats,
    standardize_in_place,
    window_positions,
)
from flowcast.errors import DataError

from memory import traced_peak

MONDAY = dt.date(2019, 1, 7)


def make_dataset(p=3, days=9, seed=0, missing=0.1):
    rng = np.random.default_rng(seed)
    T = days * 288
    flows = rng.uniform(0.0, 200.0, size=(p, T))
    mask = rng.random((p, T)) >= missing
    flows = np.where(mask, flows, np.nan)
    return FlowDataset(
        flows=flows,
        mask=mask,
        station_ids=tuple(f"vds{i}" for i in range(p)),
        start_date=MONDAY,
    )


def brute_force_blocks(matrix, cfg, t, ppd=288):
    s = np.stack([matrix[:, t - cfg.n + j] for j in range(cfg.n)], axis=1)
    td = t - ppd
    s_d = np.stack(
        [matrix[:, td - cfg.n_d + j] for j in range(2 * cfg.n_d + cfg.h)], axis=1
    )
    tw = t - 7 * ppd
    s_w = np.stack(
        [matrix[:, tw - cfg.n_w + j] for j in range(2 * cfg.n_w + cfg.h)], axis=1
    )
    target = np.stack([matrix[:, t + j] for j in range(cfg.h)], axis=1)
    return s, s_d, s_w, target


def write_cell(path, cell):
    """A complete two-station table whose cell at station vds1, 00:10 reads ``cell``."""
    save_csv(make_dataset(p=2, days=9, missing=0.0), path)
    lines = path.read_text().splitlines()
    stamp, first, _ = lines[3].split(",")
    lines[3] = ",".join([stamp, first, cell])
    path.write_text("\n".join(lines) + "\n")
    return path


def write_seven_per_day_csv(path, days=2):
    """A table whose sidecar claims 7 points per day, at 205-minute steps.

    1440 // 7 = 205 minutes, so the second day would start at 23:55.
    """
    start = dt.datetime(2019, 1, 7)
    rows = ["timestamp,a"] + [
        f"{(start + i * dt.timedelta(minutes=205)).isoformat()},1.0"
        for i in range(7 * days)
    ]
    path.write_text("\n".join(rows) + "\n")
    sidecar = {"stations": ["a"], "lane": "ML", "points_per_day": 7}
    Path(str(path) + ".meta.json").write_text(json.dumps(sidecar))
    return path


def write_two_per_day_csv(path, days):
    """One station at 12-hour steps over the given ISO day strings."""
    rows = ["timestamp,a"] + [f"{day}T{hour}:00:00,1.0" for day in days for hour in ("00", "12")]
    path.write_text("\n".join(rows) + "\n")
    sidecar = {"stations": ["a"], "lane": "ML", "points_per_day": 2}
    Path(str(path) + ".meta.json").write_text(json.dumps(sidecar))
    return path


class TestFlowDataset:
    def test_validation(self):
        with pytest.raises(DataError, match="equal 2-D shapes"):
            FlowDataset(np.zeros((2, 288)), np.ones((3, 288), bool), ("a", "b"), MONDAY)
        with pytest.raises(DataError, match="station ids"):
            FlowDataset(np.zeros((2, 288)), np.ones((2, 288), bool), ("a",), MONDAY)
        with pytest.raises(DataError, match="whole number"):
            FlowDataset(np.zeros((1, 289)), np.ones((1, 289), bool), ("a",), MONDAY)
        with pytest.raises(DataError, match="does not divide"):
            FlowDataset(np.zeros((1, 14)), np.ones((1, 14), bool), ("a",), MONDAY, 7)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_observed_flow_rejected(self, value):
        flows = np.ones((2, 288))
        flows[1, 1] = value
        mask = np.ones((2, 288), bool)
        with pytest.raises(DataError, match="station b: .* at 2019-01-07T00:05:00"):
            FlowDataset(flows, mask, ("a", "b"), MONDAY)
        mask[1, 1] = False
        assert not FlowDataset(flows, mask, ("a", "b"), MONDAY).mask[1, 1]

    def test_immutability(self):
        ds = make_dataset(p=1, days=9)
        with pytest.raises(ValueError):
            ds.flows[0, 0] = 1.0

    def test_timestamps(self):
        ds = make_dataset(p=1, days=9)
        assert ds.timestamp(0) == dt.datetime(2019, 1, 7, 0, 0)
        assert ds.timestamp(288) == dt.datetime(2019, 1, 8, 0, 0)
        assert ds.timestamp(12) == dt.datetime(2019, 1, 7, 1, 0)
        assert ds.num_days == 9


class TestLastDate:
    def test_table_may_end_on_the_last_date(self, tmp_path):
        ds = load_csv(write_two_per_day_csv(tmp_path / "t.csv", ["9999-12-30", "9999-12-31"]))
        assert ds.num_days == 2
        assert ds.timestamp(3) == dt.datetime(9999, 12, 31, 12)

    def test_day_past_the_last_date_rejected(self, tmp_path):
        path = write_two_per_day_csv(tmp_path / "t.csv", ["9999-12-31", "10000-01-01"])
        with pytest.raises(DataError, match="row 4: the table runs past 9999-12-31"):
            load_csv(path)

    def test_dataset_past_the_last_date_rejected(self):
        FlowDataset(np.zeros((1, 1)), np.ones((1, 1), bool), ("a",), dt.date(9999, 12, 31), 1)
        with pytest.raises(DataError, match="2 days from 9999-12-31 run past 9999-12-31"):
            FlowDataset(np.zeros((1, 2)), np.ones((1, 2), bool), ("a",), dt.date(9999, 12, 31), 1)


class TestCsvRoundTrip:
    def test_bit_identical(self, tmp_path):
        ds = make_dataset(p=3, days=9, missing=0.2)
        path = tmp_path / "flows.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert back.station_ids == ds.station_ids
        assert back.start_date == ds.start_date
        assert back.lane == ds.lane
        assert back.points_per_day == ds.points_per_day
        assert np.array_equal(back.mask, ds.mask)
        assert np.array_equal(
            back.flows[back.mask], ds.flows[ds.mask]
        )
        assert np.all(np.isnan(back.flows[~back.mask]))

    def test_complete_two_day_file(self, tmp_path):
        ds = make_dataset(p=3, days=14, missing=0.0)
        sub = FlowDataset(
            ds.flows[:, : 2 * 288],
            ds.mask[:, : 2 * 288],
            ds.station_ids,
            ds.start_date,
        )
        path = tmp_path / "two.csv"
        save_csv(sub, path)
        back = load_csv(path)
        assert back.num_timestamps == 576
        assert back.mask.all()

    def test_single_blank_cell(self, tmp_path):
        ds = make_dataset(p=2, days=9, missing=0.0)
        mask = ds.mask.copy()
        mask[1, 100] = False
        holed = FlowDataset(ds.flows, mask, ds.station_ids, ds.start_date)
        path = tmp_path / "hole.csv"
        save_csv(holed, path)
        back = load_csv(path)
        assert (~back.mask).sum() == 1
        assert not back.mask[1, 100]

    @pytest.mark.parametrize("cell", ["", "  ", "nan", "NaN", "-nan", " NaN ", "+nan"])
    def test_missing_cell_spellings(self, tmp_path, cell):
        back = load_csv(write_cell(tmp_path / "flows.csv", cell))
        assert not back.mask[1, 2] and back.mask.sum() == back.mask.size - 1
        # every missing cell holds the same NaN, whatever its spelling
        assert back.flows[1, 2].tobytes() == np.float64(np.nan).tobytes()

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e999", " Infinity "])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        path = write_cell(tmp_path / "flows.csv", cell)
        with pytest.raises(DataError, match="station vds1: .* at 2019-01-07T00:10:00"):
            load_csv(path)

    def test_load_peak_memory(self, tmp_path):
        # Reading a day at a time holds one day's strings, not the file's:
        # the peak is about 2.1x the table, where reading every row first
        # took about 9.3x.
        path = tmp_path / "flows.csv"
        save_csv(make_dataset(p=64, days=14, missing=0.05), path)
        back, peak = traced_peak(lambda: load_csv(path))
        assert peak < 4 * (back.flows.nbytes + back.mask.nbytes)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["timestamp,a"] + [
            f"2019-01-07T{i // 12:02d}:{(i % 12) * 5:02d}:00,1.0" for i in range(288)
        ]
        rows[5] = rows[5] + ",9.0"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match="fields"):
            load_csv(path)

    def test_partial_day_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("timestamp,a\n2019-01-07T00:00:00,1.0\n")
        with pytest.raises(DataError, match="whole number"):
            load_csv(path)

    def test_sidecar_station_mismatch(self, tmp_path):
        ds = make_dataset(p=2, days=9)
        path = tmp_path / "flows.csv"
        save_csv(ds, path)
        sidecar = tmp_path / "flows.csv.meta.json"
        sidecar.write_text(sidecar.read_text().replace("vds1", "vds9"))
        with pytest.raises(DataError, match="sidecar"):
            load_csv(path)

    @pytest.mark.parametrize(
        "sidecar",
        [
            b'{"points_per_day": "hourly"}',
            b"[1, 2]",
            b'{"points_per_day": null}',
            b'{"points_per_day": 288.5}',
            b'{"points_per_day": true}',
            b'{"stations": 5}',
            b'{"lane": 7}',
            b'{"lane": null}',
            b'{"lane": ["ML"]}',
            b"\xff\xfe not text",
        ],
    )
    def test_malformed_sidecar_rejected(self, tmp_path, sidecar):
        path = tmp_path / "flows.csv"
        save_csv(make_dataset(p=1, days=9), path)
        Path(str(path) + ".meta.json").write_bytes(sidecar)
        with pytest.raises(DataError, match="sidecar"):
            load_csv(path)

    def test_binary_file_rejected(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_bytes(b"timestamp,a\n\xff\xfe\x00\n")
        with pytest.raises(DataError, match="cannot read"):
            load_csv(path)

    def test_oversized_field_rejected(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("timestamp,a\n2019-01-07T00:00:00," + "1" * 200_000 + "\n")
        with pytest.raises(DataError, match="cannot read .* field limit"):
            load_csv(path)

    def test_cadence_not_tiling_a_day_rejected(self, tmp_path):
        path = write_seven_per_day_csv(tmp_path / "seven.csv")
        with pytest.raises(DataError, match="does not divide the 1440 minutes"):
            load_csv(path)

    def test_cadence_break_rejected(self, tmp_path):
        ds = make_dataset(p=1, days=9, missing=0.0)
        path = tmp_path / "flows.csv"
        save_csv(ds, path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace("00:10:00", "00:11:00")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="cadence"):
            load_csv(path)


class TestClean:
    def test_no_negatives_is_identity(self):
        ds = make_dataset()
        assert clean(ds) is ds

    def test_negatives_masked(self):
        ds = make_dataset(p=2, days=9, missing=0.0)
        flows = ds.flows.copy()
        flows[0, 10] = -5.0
        flows[1, 20] = -0.5
        dirty = FlowDataset(flows, ds.mask, ds.station_ids, ds.start_date)
        cleaned = clean(dirty)
        assert not cleaned.mask[0, 10]
        assert not cleaned.mask[1, 20]
        before = (~dirty.mask).sum()
        assert (~cleaned.mask).sum() == before + 2

    def test_counting_oracle(self):
        rng = np.random.default_rng(5)
        ds = make_dataset(p=3, days=9, seed=5, missing=0.1)
        flows = np.where(ds.mask, ds.flows, 0.0)
        flip = rng.random(flows.shape) < 0.05
        flows = np.where(flip, -np.abs(flows) - 1.0, flows)
        dirty = FlowDataset(flows, ds.mask, ds.station_ids, ds.start_date)
        negatives = int((dirty.mask & (dirty.flows < 0)).sum())
        cleaned = clean(dirty)
        assert int((~cleaned.mask).sum()) == int((~dirty.mask).sum()) + negatives


class TestStandardize:
    def test_two_value_golden(self):
        flows = np.full((1, 288), np.nan)
        mask = np.zeros((1, 288), bool)
        flows[0, 3], flows[0, 7] = 2.0, 4.0
        mask[0, 3] = mask[0, 7] = True
        ds = FlowDataset(flows, mask, ("a",), MONDAY)
        stats = standard_stats(ds, (0, 1))
        out = standardize_in_place(ds.flows.copy(), stats)
        assert stats.mean[0] == 3.0
        assert abs(stats.std[0] - np.sqrt(2.0)) < 1e-15
        assert abs(out[0, 3] + 1.0 / np.sqrt(2.0)) < 1e-15
        assert abs(out[0, 7] - 1.0 / np.sqrt(2.0)) < 1e-15

    def test_train_moments_after_transform(self):
        ds = make_dataset(p=4, days=10, seed=1)
        out = standardize_in_place(ds.flows.copy(), standard_stats(ds, (0, 8)))
        hi = 8 * 288
        for s in range(4):
            values = out[s, :hi][ds.mask[s, :hi]]
            assert abs(values.mean()) < 1e-10
            assert abs(values.var(ddof=1) - 1.0) < 1e-10

    def test_restandardize_fixpoint(self):
        ds = make_dataset(p=2, days=10, seed=2)
        once = replace(
            ds, flows=standardize_in_place(ds.flows.copy(), standard_stats(ds, (0, 8)))
        )
        twice = standardize_in_place(once.flows.copy(), standard_stats(once, (0, 8)))
        observed = once.mask
        assert np.max(np.abs(twice[observed] - once.flows[observed])) < 1e-12

    def test_zero_variance_rejected(self):
        flows = np.full((1, 288), 7.0)
        ds = FlowDataset(flows, np.ones((1, 288), bool), ("a",), MONDAY)
        with pytest.raises(DataError, match="zero training variance"):
            standard_stats(ds, (0, 1))

    def test_too_few_observations_rejected(self):
        flows = np.full((1, 288), np.nan)
        mask = np.zeros((1, 288), bool)
        flows[0, 0] = 5.0
        mask[0, 0] = True
        ds = FlowDataset(flows, mask, ("a",), MONDAY)
        with pytest.raises(DataError, match="at least 2"):
            standard_stats(ds, (0, 1))


class TestSplit:
    def test_ten_days(self):
        ds = make_dataset(p=1, days=10)
        assert split(ds) == ((0, 8), (8, 9), (9, 10))

    def test_396_days(self):
        flows = np.zeros((1, 396 * 288))
        ds = FlowDataset(flows, np.ones_like(flows, bool), ("a",), MONDAY)
        train, val, test = split(ds)
        assert train == (0, 318) and val == (318, 357) and test == (357, 396)

    def test_partition_property(self):
        for days in (10, 17, 23, 100):
            flows = np.zeros((1, days * 288))
            ds = FlowDataset(flows, np.ones_like(flows, bool), ("a",), MONDAY)
            (a0, a1), (b0, b1), (c0, c1) = split(ds)
            assert a0 == 0 and a1 == b0 and b1 == c0 and c1 == days

    def test_too_few_days(self):
        ds = make_dataset(p=1, days=9)
        with pytest.raises(DataError, match="at least 10"):
            split(ds)


class TestExtractWindows:
    def test_253_per_day(self):
        ds = make_dataset(p=2, days=8)
        samples = extract_windows(ds, WindowConfig(), (7, 8))
        assert len(samples) == 253
        assert all(s.t // 288 == 7 for s in samples)

    def test_degenerate_single_position(self):
        ds = make_dataset(p=1, days=9)
        cfg = WindowConfig(n=287, h=1, n_d=0, n_w=0)
        samples = extract_windows(ds, cfg, (7, 9))
        assert len(samples) == 2

    def test_count_formula_random_configs(self):
        ds = make_dataset(p=1, days=8)
        rng = np.random.default_rng(9)
        for _ in range(10):
            n_d = int(rng.integers(0, 7))
            h = int(rng.integers(1, 10))
            cfg = WindowConfig(n=2 * n_d + h, h=h, n_d=n_d, n_w=n_d)
            count = len(extract_windows(ds, cfg, (7, 8)))
            assert count == 288 - cfg.n - cfg.h - cfg.n_d + 1

    def test_brute_force_slicer(self):
        ds = make_dataset(p=3, days=9, seed=7)
        cfg = WindowConfig()
        samples = extract_windows(ds, cfg, (7, 9))
        rng = np.random.default_rng(1)
        flows = np.where(ds.mask, ds.flows, np.nan)
        for index in rng.choice(len(samples), size=60, replace=False):
            sample = samples[index]
            s, s_d, s_w, target = brute_force_blocks(flows, cfg, sample.t)
            _, _, _, tm = brute_force_blocks(ds.mask, cfg, sample.t)
            assert np.array_equal(sample.s, s, equal_nan=True)
            assert np.array_equal(sample.s_d, s_d, equal_nan=True)
            assert np.array_equal(sample.s_w, s_w, equal_nan=True)
            assert np.array_equal(sample.target, target, equal_nan=True)
            assert np.array_equal(sample.target_mask, tm.astype(bool))

    def test_daily_block_centered_one_day_back(self):
        ds = make_dataset(p=2, days=8, missing=0.0)
        cfg = WindowConfig()
        samples = extract_windows(ds, cfg, (7, 8))
        for sample in samples[:20]:
            assert np.array_equal(sample.s_d[:, cfg.n_d], ds.flows[:, sample.t - 288])

    def test_first_week_skipped(self):
        ds = make_dataset(p=1, days=9)
        samples = extract_windows(ds, WindowConfig(), (0, 9))
        days = {s.t // 288 for s in samples}
        assert days == {7, 8}

    def test_range_without_history_rejected(self):
        ds = make_dataset(p=1, days=9)
        with pytest.raises(DataError, match="week of history"):
            extract_windows(ds, WindowConfig(), (0, 7))

    def test_invalid_range_rejected(self):
        ds = make_dataset(p=1, days=9)
        with pytest.raises(DataError, match="day range"):
            extract_windows(ds, WindowConfig(), (3, 2))
        with pytest.raises(DataError, match="day range"):
            extract_windows(ds, WindowConfig(), (0, 12))

    def test_anchors_outside_the_table_rejected(self):
        ds = make_dataset(p=1, days=9)
        cfg = WindowConfig()
        lo, hi = 7 * 288 + cfg.n_w, 9 * 288 - cfg.h
        assert len(Windows(ds, cfg, [lo, hi])) == 2
        for bad in ([lo - 1], [hi + 1], [[lo]]):
            with pytest.raises(DataError, match="anchors"):
                Windows(ds, cfg, bad)

    @pytest.mark.parametrize(
        "cfg", [WindowConfig(), WindowConfig(n=5, h=2, n_d=3, n_w=1)]
    )
    def test_each_stream_reads_only_its_lagged_day(self, cfg):
        # Every cell holds its own day index, so a block that strays into a
        # neighbouring day holds a second value.
        days = 10
        day_of = np.repeat(np.arange(days, dtype=float), 288)
        ds = FlowDataset(
            np.tile(day_of, (2, 1)), np.ones((2, days * 288), bool), ("a", "b"), MONDAY
        )
        assert STREAM_DAY_LAGS == (0, 1, 7)
        batches = day_batches(extract_windows(ds, cfg, (0, days)))
        assert len(batches) == days - 7
        for batch in batches:
            day = batch.anchors[0] // 288
            s, s_d, s_w, target, _, _ = stack_batch(batch)
            assert np.unique(s).tolist() == [day]
            assert np.unique(s_d).tolist() == [day - 1]
            assert np.unique(s_w).tolist() == [day - 7]
            assert np.unique(target).tolist() == [day]

    def test_window_positions_bounds(self):
        cfg = WindowConfig()
        positions = window_positions(cfg)
        assert positions[0] == 21 and positions[-1] == 273 and len(positions) == 253
