"""Dataset tests: CSV round trips, cleaning, standardization, windows."""

import datetime as dt
import json
from pathlib import Path

import numpy as np
import pytest

from flowcast.dataset import (
    FlowDataset,
    StandardStats,
    WindowConfig,
    Windows,
    apply_standardization,
    clean,
    extract_windows,
    load_csv,
    save_csv,
    split,
    standardize,
    window_positions,
)
from flowcast.errors import DataError

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
        out, stats = standardize(ds, (0, 1))
        assert stats.mean[0] == 3.0
        assert abs(stats.std[0] - np.sqrt(2.0)) < 1e-15
        assert abs(out.flows[0, 3] + 1.0 / np.sqrt(2.0)) < 1e-15
        assert abs(out.flows[0, 7] - 1.0 / np.sqrt(2.0)) < 1e-15

    def test_train_moments_after_transform(self):
        ds = make_dataset(p=4, days=10, seed=1)
        out, stats = standardize(ds, (0, 8))
        hi = 8 * 288
        for s in range(4):
            values = out.flows[s, :hi][out.mask[s, :hi]]
            assert abs(values.mean()) < 1e-10
            assert abs(values.var(ddof=1) - 1.0) < 1e-10

    def test_restandardize_fixpoint(self):
        ds = make_dataset(p=2, days=10, seed=2)
        once, _ = standardize(ds, (0, 8))
        twice, stats2 = standardize(once, (0, 8))
        observed = once.mask
        assert np.max(np.abs(twice.flows[observed] - once.flows[observed])) < 1e-12

    def test_zero_variance_rejected(self):
        flows = np.full((1, 288), 7.0)
        ds = FlowDataset(flows, np.ones((1, 288), bool), ("a",), MONDAY)
        with pytest.raises(DataError, match="zero training variance"):
            standardize(ds, (0, 1))

    def test_too_few_observations_rejected(self):
        flows = np.full((1, 288), np.nan)
        mask = np.zeros((1, 288), bool)
        flows[0, 0] = 5.0
        mask[0, 0] = True
        ds = FlowDataset(flows, mask, ("a",), MONDAY)
        with pytest.raises(DataError, match="at least 2"):
            standardize(ds, (0, 1))

    def test_apply_standardization_matches(self):
        ds = make_dataset(p=2, days=10, seed=4)
        out, stats = standardize(ds, (0, 8))
        again = apply_standardization(ds, stats)
        assert np.array_equal(
            out.flows[ds.mask], again.flows[ds.mask]
        )


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

    def test_target_from_override(self):
        ds = make_dataset(p=2, days=8, seed=3, missing=0.0)
        other_flows = ds.flows + 1000.0
        other_mask = ds.mask.copy()
        other_mask[:, 7 * 288 :] = False
        other = FlowDataset(other_flows, other_mask, ds.station_ids, ds.start_date)
        samples = extract_windows(ds, WindowConfig(), (7, 8), target_from=other)
        sample = samples[0]
        assert np.all(sample.target >= 1000.0)
        assert not sample.target_mask.any()
        assert np.all(sample.s < 1000.0)

    def test_anchors_outside_the_table_rejected(self):
        ds = make_dataset(p=1, days=9)
        cfg = WindowConfig()
        lo, hi = 7 * 288 + cfg.n_w, 9 * 288 - cfg.h
        assert len(Windows(ds, ds, cfg, [lo, hi])) == 2
        for bad in ([lo - 1], [hi + 1], [[lo]]):
            with pytest.raises(DataError, match="anchors"):
                Windows(ds, ds, cfg, bad)
        with pytest.raises(DataError, match="target shape"):
            Windows(ds, make_dataset(p=2, days=9), cfg, [lo])

    def test_window_positions_bounds(self):
        cfg = WindowConfig()
        positions = window_positions(cfg)
        assert positions[0] == 21 and positions[-1] == 273 and len(positions) == 253
