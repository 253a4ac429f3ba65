"""Synthetic multi-station flow data with daily and weekly structure.

The generator writes the same kind of table the loaders expect: a
double-peaked daily profile, damped weekends, a fixed propagation lag from
one station to the next, and multiplicative Gaussian noise whose deviations
persist over nearby timestamps (an AR(1) chain), so that recent readings
carry real information about the near future.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from .dataset import POINTS_PER_DAY, FlowDataset, _check_last_day
from .errors import DataError, check_field_types, check_seed


def default_profile() -> np.ndarray:
    """Daily curve with morning and evening rush peaks, in vehicles per 5 min."""
    tau = np.arange(POINTS_PER_DAY, dtype=float)
    morning = 250.0 * np.exp(-0.5 * ((tau - 96.0) / 13.0) ** 2)
    evening = 280.0 * np.exp(-0.5 * ((tau - 212.0) / 17.0) ** 2)
    shoulder = 70.0 * np.exp(-0.5 * ((tau - 160.0) / 45.0) ** 2)
    return 40.0 + morning + evening + shoulder


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings. The generator writes 288-point (5-minute) days,
    the loaders' default cadence; ``base_profile`` is one such day."""

    p: int = 8
    days: int = 60
    base_profile: np.ndarray = field(default_factory=default_profile)
    weekend_scale: float = 0.6
    propagation_lag: int = 2
    noise_std: float = 0.12
    noise_phi: float = 0.95
    native_missing_ratio: float = 0.02
    seed: int = 0
    start_date: dt.date = dt.date(2019, 1, 7)

    def __post_init__(self) -> None:
        check_field_types(self)
        check_seed(self.seed)
        if self.p < 1 or self.days < 1:
            raise DataError(
                f"need at least one station and one day, got p={self.p}, days={self.days}"
            )
        _check_last_day(self.start_date, self.days)
        profile = np.asarray(self.base_profile, dtype=float)
        if profile.shape != (POINTS_PER_DAY,) or np.any(profile <= 0):
            raise DataError("base profile must be 288 strictly positive values")
        object.__setattr__(self, "base_profile", profile)
        if not (0.0 < self.weekend_scale <= 1.0):
            raise DataError(f"weekend scale {self.weekend_scale} outside (0, 1]")
        if self.propagation_lag < 0:
            raise DataError(f"negative propagation lag {self.propagation_lag}")
        if not (0.0 <= self.noise_std < np.inf) or not (0.0 <= self.noise_phi < 1.0):
            raise DataError(
                f"noise std {self.noise_std} must be finite and >= 0 and phi "
                f"{self.noise_phi} in [0, 1)"
            )
        if not (0.0 <= self.native_missing_ratio < 1.0):
            raise DataError(
                f"native missing ratio {self.native_missing_ratio} outside [0, 1)"
            )


def generate(cfg: SynthConfig) -> FlowDataset:
    """Deterministic dataset for the given config.

    Draw order is fixed (noise first, then missing cells) so outputs never
    depend on how the arrays are later consumed.
    """
    rng = np.random.default_rng(cfg.seed)
    ppd = POINTS_PER_DAY
    T = cfg.days * ppd
    t = np.arange(T)

    day = t // ppd
    weekday = (cfg.start_date.weekday() + day) % 7
    scale = np.where(weekday >= 5, cfg.weekend_scale, 1.0)

    signal = np.empty((cfg.p, T))
    for s in range(cfg.p):
        # Reduced in Python ints first, so a lag past int64 wraps like any other.
        shifted = cfg.base_profile[(t - (s * cfg.propagation_lag) % ppd) % ppd]
        signal[s] = scale * shifted

    if cfg.noise_std > 0:
        draws = rng.standard_normal((cfg.p, T))
        # A noise std near the float limit overflows here; the dataset's own
        # check reports the non-finite flows that leaves as a DataError.
        with np.errstate(over="ignore", invalid="ignore"):
            innovations = draws * (cfg.noise_std * np.sqrt(1.0 - cfg.noise_phi**2))
            innovations[:, 0] = draws[:, 0] * cfg.noise_std
            wander = innovations  # the AR(1) chain w[t] = e[t] + phi * w[t - 1]
            for j in range(1, T):
                wander[:, j] += cfg.noise_phi * wander[:, j - 1]
            flows = signal * (1.0 + wander)
    else:
        flows = signal.copy()
    np.maximum(flows, 0.0, out=flows)

    mask = np.ones((cfg.p, T), dtype=bool)
    holes = round(cfg.native_missing_ratio * cfg.p * T)
    if holes:
        chosen = rng.choice(cfg.p * T, size=holes, replace=False)
        mask.reshape(-1)[chosen] = False
        flows.reshape(-1)[chosen] = np.nan

    return FlowDataset(
        flows=flows,
        mask=mask,
        station_ids=tuple(f"synth{i:03d}" for i in range(cfg.p)),
        start_date=cfg.start_date,
        points_per_day=ppd,
    )
