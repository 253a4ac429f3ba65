"""Acceptance gate: one test per headline guarantee of the package.

Each test prints a single PASS/FAIL line with the measured numbers so the
whole gate can be read off a terminal in nine lines. Oracles here are kept
deliberately dumb: scalar loops, per-cell gathering, direct array slicing.
"""

import datetime as dt
import json
import math
import time

import numpy as np

from flowcast import cli
from flowcast.autodiff import Tensor, tensor_sum
from flowcast.dataset import FlowDataset, WindowConfig, extract_windows, stack_batch
from flowcast.evaluation import (
    evaluate,
    historical_mean_predictor,
    mae,
    persistence_predictor,
    rmse,
    robustness_sweep,
)
from flowcast.hybrid import (
    ARCHITECTURES,
    ModelSpec,
    build,
    forward,
    forward_batch,
    named_parameters,
)
from flowcast.imputation import METHODS, fit, impute
from flowcast.layers import init_lstm, lstm_layer

from gradcheck import max_relative_error
from test_hybrid import nudge_conv_biases


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)


class Streams:
    def __init__(self, rng, p, n):
        self.s = rng.normal(size=(p, n))
        self.s_d = rng.normal(size=(p, n))
        self.s_w = rng.normal(size=(p, n))


def test_criterion_1_gradients_all_architectures(capsys):
    """Sampled reverse-mode gradients vs central differences, twelve models."""
    started = time.perf_counter()
    rng = np.random.default_rng(100)
    worst, worst_at = 0.0, ""
    for index, (name, topo) in enumerate(ARCHITECTURES.items()):
        model = build(ModelSpec(topology=topo, p=5, n=7, h=2), seed=200 + index)
        nudge_conv_biases(model)
        sample = Streams(rng, 5, 7)
        err, at = max_relative_error(
            lambda: tensor_sum(forward(model, sample)),
            named_parameters(model),
            rng,
        )
        if err > worst:
            worst, worst_at = err, f"{name}:{at}"
    elapsed = time.perf_counter() - started
    ok = worst < 1e-5 and elapsed < 60.0
    report(
        capsys,
        1,
        ok,
        f"gradient check over 12 architectures: max rel err {worst:.2e} "
        f"(limit 1e-5, worst {worst_at}) in {elapsed:.1f}s",
    )
    assert worst < 1e-5, f"gradient mismatch {worst:.3e} at {worst_at}"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


def scalar_lstm(params, seq):
    """Pure-Python LSTM: explicit loops, math.exp/tanh, no array algebra."""

    def act_sigmoid(v):
        return 1.0 / (1.0 + math.exp(-v))

    weights = {
        g: (
            getattr(params, f"W_{g}").data,
            getattr(params, f"U_{g}").data,
            getattr(params, f"b_{g}").data,
        )
        for g in ("f", "i", "c", "o")
    }
    p, n = seq.shape
    h = [0.0] * p
    c = [0.0] * p
    out = np.empty((p, n))
    for t in range(n):
        def gate(g, fn):
            W, U, b = weights[g]
            vals = []
            for i in range(p):
                acc = b[i]
                for j in range(p):
                    acc += W[i, j] * seq[j, t] + U[i, j] * h[j]
                vals.append(fn(acc))
            return vals

        f = gate("f", act_sigmoid)
        i_gate = gate("i", act_sigmoid)
        z = gate("c", math.tanh)
        c = [f[k] * c[k] + i_gate[k] * z[k] for k in range(p)]
        o = gate("o", act_sigmoid)
        h = [o[k] * math.tanh(c[k]) for k in range(p)]
        out[:, t] = h
    return out


def test_criterion_2_lstm_scalar_oracle(capsys):
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        p = int(rng.integers(2, 7))
        n = int(rng.integers(3, 11))
        params = init_lstm(rng, p)
        seq = rng.normal(size=(p, n))
        got = lstm_layer(params, Tensor(seq.copy())).data
        want = scalar_lstm(params, seq)
        worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst < 1e-12
    report(
        capsys,
        2,
        ok,
        f"LSTM vs scalar-loop reference over 50 seeds: max abs diff {worst:.2e} "
        "(limit 1e-12)",
    )
    assert ok, f"worst deviation {worst:.3e}"


def test_criterion_3_window_count_and_slicing(capsys):
    rng = np.random.default_rng(31)
    ppd = 288
    days = 12
    cfg = WindowConfig(n=21, h=9, n_d=6, n_w=6)
    flows = rng.normal(size=(5, days * ppd))
    mask = rng.random((5, days * ppd)) > 0.1
    ds = FlowDataset(
        flows=flows,
        mask=mask,
        station_ids=tuple(f"s{i}" for i in range(5)),
        start_date=dt.date(2019, 1, 7),
        points_per_day=ppd,
    )

    one_day = extract_windows(ds, cfg, (7, 8))
    count_ok = len(one_day) == 253

    samples = extract_windows(ds, cfg, (7, days))
    anchors = sorted(sample.t for sample in samples)
    expected = sorted(
        d * ppd + pos for d in range(7, days) for pos in range(21, 274)
    )
    enumeration_ok = anchors == expected

    # Every checked window is compared twice against direct slicing: read on
    # its own, and as one column of a single gather over all windows.
    batch = stack_batch(samples)
    checked = rng.choice(len(samples), size=1000, replace=False)
    mismatches = 0
    for index in checked:
        w = samples[index]
        t = w.t
        td = t - ppd
        tw = t - 7 * ppd
        want = (
            flows[:, t - 21 : t],
            flows[:, td - 6 : td + 15],
            flows[:, tw - 6 : tw + 15],
            flows[:, t : t + 9],
            mask[:, t : t + 9],
        )
        alone = (w.s, w.s_d, w.s_w, w.target, w.target_mask)
        column = tuple(block[..., index] for block in batch[:5])
        agrees = batch[5][index] == t and all(
            np.array_equal(a, direct) and np.array_equal(c, direct)
            for a, c, direct in zip(alone, column, want)
        )
        if not agrees:
            mismatches += 1
    ok = count_ok and enumeration_ok and mismatches == 0
    report(
        capsys,
        3,
        ok,
        f"windows per day {len(one_day)} (want 253); brute-force slicer on "
        f"1000 samples: {mismatches} mismatches",
    )
    assert count_ok, f"{len(one_day)} windows in one day"
    assert enumeration_ok, "anchor enumeration differs from the closed form"
    assert mismatches == 0


def brute_fill(ds, method):
    """Naive per-cell reimputation used as the exact oracle."""
    p = ds.num_stations
    ppd = ds.points_per_day
    days = ds.num_days
    filled = ds.flows.copy()
    for s in range(p):
        station_values = ds.flows[s][ds.mask[s]]
        fallback = (
            float(np.median(station_values))
            if method == "median"
            else float(np.mean(station_values))
        )
        for t in range(ds.num_timestamps):
            if ds.mask[s, t]:
                continue
            tau = t % ppd
            obs_days = [d for d in range(days) if ds.mask[s, d * ppd + tau]]
            values = np.array([ds.flows[s, d * ppd + tau] for d in obs_days])
            if not obs_days:
                filled[s, t] = fallback
            elif method == "mean":
                filled[s, t] = np.mean(values)
            elif method == "median":
                filled[s, t] = np.median(values)
            else:
                filled[s, t] = np.interp(
                    t // ppd, np.array(obs_days, dtype=float), values
                )
    return filled


def test_criterion_4_imputation_matches_brute_force(capsys):
    shapes = [(4, 9, 288, 41), (10, 30, 12, 42), (7, 15, 48, 43)]
    exact = True
    details = []
    for p, days, ppd, seed in shapes:
        rng = np.random.default_rng(seed)
        T = days * ppd
        flows = np.abs(rng.normal(loc=100.0, scale=30.0, size=(p, T)))
        mask = rng.random((p, T)) > 0.15
        mask[:, 0] = True
        # One fully unobserved (station, time-of-day) column per dataset so
        # the fallback statistic is exercised too.
        mask[1, 3::ppd] = False
        flows = np.where(mask, flows, np.nan)
        ds = FlowDataset(
            flows=flows,
            mask=mask,
            station_ids=tuple(f"s{i}" for i in range(p)),
            start_date=dt.date(2019, 3, 4),
            points_per_day=ppd,
        )
        for method in METHODS:
            got = impute(fit(method, ds), ds)
            want = brute_fill(ds, method)
            same = np.array_equal(got.flows, want) and got.mask.all()
            exact = exact and same
            if not same:
                details.append(f"{method}@p={p}")

    complete = FlowDataset(
        flows=np.abs(np.random.default_rng(44).normal(size=(3, 2 * 24)) + 5.0),
        mask=np.ones((3, 48), dtype=bool),
        station_ids=("a", "b", "c"),
        start_date=dt.date(2019, 3, 4),
        points_per_day=24,
    )
    identity = all(
        np.array_equal(impute(fit(m, complete), complete).flows, complete.flows)
        for m in METHODS
    )
    ok = exact and identity
    report(
        capsys,
        4,
        ok,
        "imputation equals brute force exactly on 3 datasets x 3 methods; "
        f"identity on complete data: {identity}"
        + (f"; mismatches {details}" if details else ""),
    )
    assert exact, f"imputed values differ from brute force: {details}"
    assert identity


def test_criterion_5_metric_identities(capsys):
    rng = np.random.default_rng(55)
    violations = 0
    for _ in range(10_000):
        size = int(rng.integers(2, 65))
        a = rng.normal(size=size)
        b = rng.normal(size=size)
        if mae(a, b) > rmse(a, b):
            violations += 1
    hand = abs(rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) - math.sqrt(12.5))
    exact_mae = mae(np.array([0.0, 0.0]), np.array([3.0, 4.0]))
    ok = violations == 0 and hand < 1e-12 and exact_mae == 3.5
    report(
        capsys,
        5,
        ok,
        f"MAE<=RMSE on 10^4 random vectors: {violations} violations; "
        f"rmse([0,0],[3,4]) off sqrt(12.5) by {hand:.2e}",
    )
    assert violations == 0
    assert hand < 1e-12
    assert exact_mae == 3.5


def test_criterion_6_learning_beats_baselines(capsys, accept_run):
    trained = accept_run["trained"]
    log = accept_run["log"]
    prepared = accept_run["prepared"]
    h = prepared.window_cfg.h

    model_mae = evaluate(trained.model, prepared.test_samples).mae
    persist_mae = evaluate(persistence_predictor(h), prepared.test_samples).mae
    hist = historical_mean_predictor(prepared.dataset, prepared.ranges[0], h)
    hist_mae = evaluate(hist, prepared.test_samples).mae

    epochs = len(log.entries)
    ok = (
        model_mae < persist_mae
        and model_mae < hist_mae
        and epochs <= 30
        and log.wall_time < 900.0
    )
    report(
        capsys,
        6,
        ok,
        f"test MAE {model_mae:.4f} vs persistence {persist_mae:.4f} and "
        f"historical mean {hist_mae:.4f} after {epochs} epochs "
        f"({log.wall_time:.0f}s train)",
    )
    assert model_mae < persist_mae, "did not beat persistence"
    assert model_mae < hist_mae, "did not beat the historical mean"
    assert epochs <= 30
    assert log.wall_time < 900.0, f"training took {log.wall_time:.0f}s"


def test_criterion_7_robust_to_21_percent_missing(capsys, accept_run, accept_dataset):
    trained = accept_run["trained"]
    seeds = (0, 1, 2, 3, 4)
    grid = (0.0, 0.21)
    mean_sweep = robustness_sweep(
        trained, accept_dataset, "mean", ratios=grid, scope="test",
        injection_seeds=seeds,
    )
    interp_sweep = robustness_sweep(
        trained, accept_dataset, "interp", ratios=grid, scope="test",
        injection_seeds=seeds,
    )
    clean_mae = mean_sweep.point(0.0).mae_mean
    mean_21 = mean_sweep.point(0.21).mae_mean
    interp_21 = interp_sweep.point(0.21).mae_mean

    within = mean_21 <= 1.2 * clean_mae
    ordering = mean_21 <= interp_21
    ok = within and ordering
    report(
        capsys,
        7,
        ok,
        f"mean-impute MAE {mean_21:.4f} at 21% vs {clean_mae:.4f} clean "
        f"(ratio {mean_21 / clean_mae:.3f}, limit 1.2); "
        f"interp at 21% {interp_21:.4f}, mean<=interp: {ordering} "
        f"(5 injection seeds)",
    )
    assert within, f"degraded {mean_21 / clean_mae:.3f}x at 21% missing"
    assert ordering, f"mean {mean_21:.4f} > interp {interp_21:.4f} at 21%"


def test_criterion_8_metrics_csv_deterministic(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "config_version": 1,
                "synth": {"p": 3, "days": 14, "seed": 9},
                "train": {"max_epochs": 2},
            }
        )
    )
    data = tmp_path / "data.csv"
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(data)]) == 0
    args = [
        "train",
        "--config",
        str(cfg_path),
        "--dataset",
        str(data),
        "--arch",
        "LSTM1",
        "--impute",
        "mean",
        "--seed",
        "0",
        "--runs",
        "1",
    ]
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "metrics.csv").read_bytes()
    second = (tmp_path / "b" / "metrics.csv").read_bytes()
    ok = first == second
    report(
        capsys,
        8,
        ok,
        f"two cmd_train runs, metrics.csv byte-identical: {ok} "
        f"({len(first)} bytes)",
    )
    assert ok


def test_criterion_9_forward_shapes(capsys):
    rng = np.random.default_rng(99)
    failures = []
    for p in (8, 25, 65):
        for name, topo in ARCHITECTURES.items():
            model = build(ModelSpec(topology=topo, p=p, n=21, h=9), seed=7)
            single = forward(model, Streams(rng, p, 21)).data
            batch = forward_batch(
                model,
                rng.normal(size=(p, 21, 2)),
                rng.normal(size=(p, 21, 2)),
                rng.normal(size=(p, 21, 2)),
            ).data
            if single.shape != (p, 9) or batch.shape != (p, 9, 2):
                failures.append(f"{name}@p={p}")
    ok = not failures
    report(
        capsys,
        9,
        ok,
        "forward output is p x h for 12 architectures at p in {8, 25, 65}"
        + (f"; failures {failures}" if failures else ""),
    )
    assert ok, failures
