"""Generator tests: determinism, lag structure, periodicity, missingness."""

from dataclasses import replace

import numpy as np
import pytest

from flowcast.errors import DataError
from flowcast.synthgen import SynthConfig, default_profile, generate


def test_deterministic():
    a = generate(SynthConfig(p=3, days=8, seed=5))
    b = generate(SynthConfig(p=3, days=8, seed=5))
    assert np.array_equal(a.flows, b.flows, equal_nan=True)
    assert np.array_equal(a.mask, b.mask)
    c = generate(SynthConfig(p=3, days=8, seed=6))
    assert not np.array_equal(a.mask, c.mask)


def test_degenerate_config_identical_stations():
    cfg = SynthConfig(
        p=4, days=8, noise_std=0.0, propagation_lag=0, native_missing_ratio=0.0
    )
    ds = generate(cfg)
    for s in range(1, 4):
        assert np.array_equal(ds.flows[s], ds.flows[0])
    # weekday columns reproduce the profile exactly
    assert np.array_equal(ds.flows[0, :288], default_profile())


def test_weekend_scaling():
    cfg = SynthConfig(
        p=1, days=8, noise_std=0.0, propagation_lag=0, native_missing_ratio=0.0
    )
    ds = generate(cfg)
    # start date is a Monday, so days 5 and 6 are the weekend
    weekend = ds.flows[0, 5 * 288 : 6 * 288]
    assert np.allclose(weekend, 0.6 * default_profile())


def test_lag_shows_up_in_cross_correlation():
    lag = 3
    cfg = SynthConfig(
        p=2, days=8, noise_std=0.02, propagation_lag=lag, native_missing_ratio=0.0
    )
    ds = generate(cfg)
    a = ds.flows[0] - ds.flows[0].mean()
    b = ds.flows[1] - ds.flows[1].mean()
    scores = {}
    for k in range(-8, 9):
        if k >= 0:
            scores[k] = float(np.mean(a[: a.size - k] * b[k:]))
        else:
            scores[k] = float(np.mean(a[-k:] * b[: b.size + k]))
    assert max(scores, key=scores.get) == lag


def test_native_missing_count():
    cfg = SynthConfig(p=5, days=8, native_missing_ratio=0.07)
    ds = generate(cfg)
    expected = round(0.07 * 5 * 8 * 288)
    assert int((~ds.mask).sum()) == expected
    assert np.isnan(ds.flows[~ds.mask]).all()


def test_weekly_autocorrelation_beats_three_day():
    ds = generate(SynthConfig(p=2, days=28, native_missing_ratio=0.0, seed=1))
    for s in range(2):
        x = ds.flows[s] - ds.flows[s].mean()
        week = np.mean(x[: -7 * 288] * x[7 * 288 :])
        three = np.mean(x[: -3 * 288] * x[3 * 288 :])
        assert week > three


def test_nonnegative_and_day_aligned():
    ds = generate(SynthConfig(p=3, days=9, noise_std=0.5, seed=3))
    observed = ds.flows[ds.mask]
    assert np.all(observed >= 0.0)
    assert ds.num_timestamps % 288 == 0


@pytest.mark.parametrize("phi", [0.0, 0.6, 0.95])
def test_noise_matches_lfilter(phi):
    from scipy.signal import lfilter

    cfg = SynthConfig(p=3, days=4, noise_phi=phi, native_missing_ratio=0.0, seed=8)
    signal = generate(replace(cfg, noise_std=0.0)).flows
    draws = np.random.default_rng(cfg.seed).standard_normal(signal.shape)
    innovations = draws * (cfg.noise_std * np.sqrt(1.0 - phi**2))
    innovations[:, 0] = draws[:, 0] * cfg.noise_std
    wander = lfilter([1.0], [1.0, -phi], innovations, axis=1)
    expected = np.maximum(signal * (1.0 + wander), 0.0)
    assert np.array_equal(generate(cfg).flows, expected)


def test_invalid_configs_rejected():
    with pytest.raises(DataError, match="at least one"):
        SynthConfig(p=0)
    with pytest.raises(DataError, match="at least one"):
        SynthConfig(days=0)
    with pytest.raises(DataError, match="weekend scale"):
        SynthConfig(weekend_scale=0.0)
    for noise_std in (-0.1, np.nan, np.inf):
        with pytest.raises(DataError, match="noise std"):
            SynthConfig(noise_std=noise_std)
    with pytest.raises(DataError, match="missing ratio"):
        SynthConfig(native_missing_ratio=1.0)
    with pytest.raises(DataError, match="base profile"):
        SynthConfig(base_profile=np.zeros(288))


def test_roundtrip_through_csv(tmp_path):
    from flowcast.dataset import load_csv, save_csv

    ds = generate(SynthConfig(p=2, days=8, seed=9))
    path = tmp_path / "synth.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.flows[back.mask], ds.flows[ds.mask])
    assert np.array_equal(back.mask, ds.mask)
