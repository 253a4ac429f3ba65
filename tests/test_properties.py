"""Property tests: the window gather, window arithmetic, CSV round trips,
missing-value injection and imputation, split invariance of evaluation, and
checkpoints with a flipped byte."""

import datetime as dt
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flowcast.checkpoint import build_manifest, load_checkpoint, save_checkpoint
from flowcast.dataset import (
    FlowDataset,
    WindowConfig,
    extract_windows,
    load_csv,
    save_csv,
    stack_batch,
)
from flowcast.errors import DataError
from flowcast.evaluation import VIEWS, evaluate, persistence_predictor
from flowcast.imputation import METHODS, fit, impute, inject_missing
from flowcast.training import parameter_digest

from test_checkpoint import fake_trained
from test_dataset import brute_force_blocks

# cadences that tile a day and leave room for every drawn window config
WINDOW_CADENCES = (24, 32, 48, 60, 72, 96)
CSV_CADENCES = (1, 2, 3, 4, 6, 8, 12, 24, 48)
MONDAY = dt.date(2019, 1, 7)


def table(rng, p, days, ppd, missing):
    flows = rng.normal(size=(p, days * ppd))
    mask = rng.random(flows.shape) >= missing
    ids = tuple(f"s{i}" for i in range(p))
    return FlowDataset(flows, mask, ids, MONDAY, points_per_day=ppd)


@st.composite
def windows(draw):
    """Windows over a random input table with targets from a second table."""
    cfg = WindowConfig(
        n=draw(st.integers(1, 8)),
        h=draw(st.integers(1, 6)),
        n_d=draw(st.integers(0, 4)),
        n_w=draw(st.integers(0, 4)),
    )
    ppd = draw(st.sampled_from(WINDOW_CADENCES))
    days = draw(st.integers(8, 10))
    p = draw(st.integers(1, 4))
    missing = draw(st.floats(0.0, 0.9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inputs = table(rng, p, days, ppd, missing)
    truth = table(rng, p, days, ppd, missing)
    first = draw(st.integers(0, days - 1))
    return extract_windows(inputs, cfg, (first, days), target_from=truth)


@settings(max_examples=40, deadline=None)
@given(windows())
def test_stack_batch_matches_brute_force_slicer(w):
    ppd = w.inputs.points_per_day
    s, s_d, s_w, target, target_mask, ts = stack_batch(w)
    assert np.array_equal(ts, w.anchors)
    for block in (s, s_d, s_w, target, target_mask):
        assert block.flags.c_contiguous and block.shape[-1] == len(w)
    for b, t in enumerate(ts):
        want = brute_force_blocks(w.inputs.flows, w.cfg, t, ppd)[:3]
        for got, block in zip((s, s_d, s_w), want):
            assert np.array_equal(got[..., b], block)
        *_, want_target = brute_force_blocks(w.targets.flows, w.cfg, t, ppd)
        *_, want_mask = brute_force_blocks(w.targets.mask, w.cfg, t, ppd)
        assert np.array_equal(target[..., b], want_target)
        assert np.array_equal(target_mask[..., b], want_mask)


@settings(max_examples=60, deadline=None)
@given(
    windows(),
    st.slices(400),
    st.slices(400),
)
def test_slicing_and_concatenation_keep_order_and_length(w, first, second):
    anchors = list(w.anchors)
    a, b = w[first], w[second]
    assert list(a.anchors) == anchors[first] and len(a) == len(anchors[first])
    assert a.inputs is w.inputs and a.targets is w.targets
    both = a + b
    assert list(both.anchors) == anchors[first] + anchors[second]
    assert len(both) == len(a) + len(b)
    assert [sample.t for sample in a[:5]] == anchors[first][:5]


def test_concatenation_needs_shared_tables():
    rng = np.random.default_rng(0)
    ds = table(rng, 2, 9, 24, 0.1)
    twin = table(np.random.default_rng(0), 2, 9, 24, 0.1)
    cfg = WindowConfig(n=3, h=2, n_d=1, n_w=1)
    mine = extract_windows(ds, cfg, (7, 9))
    with pytest.raises(DataError, match="same tables"):
        mine + extract_windows(twin, cfg, (7, 9))
    with pytest.raises(DataError, match="same tables"):
        mine + extract_windows(ds, WindowConfig(n=4, h=2, n_d=1, n_w=1), (7, 9))


@st.composite
def csv_tables(draw):
    ppd = draw(st.sampled_from(CSV_CADENCES))
    p = draw(st.integers(1, 3))
    shape = (p, draw(st.integers(1, 3)) * ppd)
    flows = draw(
        hnp.arrays(float, shape, elements=st.floats(allow_nan=False, allow_infinity=False))
    )
    mask = draw(hnp.arrays(bool, shape))
    start = draw(st.dates(dt.date(1990, 1, 1), dt.date(2040, 12, 31)))
    ids = tuple(f"vds{i}" for i in range(p))
    return FlowDataset(flows, mask, ids, start, points_per_day=ppd)


@settings(max_examples=60, deadline=None)
@given(csv_tables())
def test_csv_round_trip(ds):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "flows.csv"
        save_csv(ds, path)
        back = load_csv(path)
    assert back.points_per_day == ds.points_per_day
    assert back.start_date == ds.start_date
    assert back.station_ids == ds.station_ids
    assert np.array_equal(back.mask, ds.mask)
    assert np.array_equal(back.flows[back.mask], ds.flows[ds.mask])
    assert np.isnan(back.flows[~back.mask]).all()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(("all", "test")),
    st.lists(st.floats(0.0, 0.5), min_size=2, max_size=4),
    st.integers(0, 1000),
)
def test_injection_keeps_supersets_across_ratios(table_seed, scope, ratios, seed):
    rng = np.random.default_rng(table_seed)
    ds = table(rng, 3, 4, 24, 0.2 * rng.random())
    day_range = (2, 4) if scope == "test" else None
    first = 2 * 24 if scope == "test" else 0
    in_scope = ds.mask[:, first:]
    removed = set()
    for ratio in sorted(ratios):
        count = round(ratio * in_scope.size)
        if count > in_scope.sum():
            with pytest.raises(DataError, match="cannot remove"):
                inject_missing(ds, ratio, seed, scope=scope, day_range=day_range)
            break
        injected, pattern = inject_missing(
            ds, ratio, seed, scope=scope, day_range=day_range
        )
        cells = set(zip(*np.nonzero(ds.mask != injected.mask)))
        assert cells == set(map(tuple, pattern.cells.tolist()))
        assert len(cells) == count
        assert all(ds.mask[s, t] and t >= first for s, t in cells)
        assert removed <= cells
        removed = cells


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(METHODS), st.integers(1, 3))
def test_impute_is_identity_on_complete_tables(table_seed, method, days):
    ds = table(np.random.default_rng(table_seed), 2, days, 24, 0.0)
    filled = impute(fit(method, ds), ds)
    assert np.array_equal(filled.flows, ds.flows)
    assert filled.mask.all()


@settings(max_examples=40, deadline=None)
@given(windows(), st.data())
def test_evaluate_adds_up_over_any_split(w, data):
    assume(len(w) >= 2)
    cut = data.draw(st.integers(1, len(w) - 1))
    predict = persistence_predictor(w.cfg.h)
    start = w.inputs.start_date

    def score(part):
        return evaluate(predict, part, VIEWS, start_date=start).views

    def sums(vm):
        # per-bucket sums of |error| and error^2; empty buckets report NaN
        scored = vm.counts > 0
        return [
            np.where(scored, vm.mae, 0.0) * vm.counts,
            np.where(scored, vm.rmse, 0.0) ** 2 * vm.counts,
        ]

    whole, head, tail = score(w), score(w[:cut]), score(w[cut:])
    for view in VIEWS:
        assert np.array_equal(whole[view].counts, head[view].counts + tail[view].counts)
        for got, a, b in zip(sums(whole[view]), sums(head[view]), sums(tail[view])):
            np.testing.assert_allclose(got, a + b, rtol=1e-12)


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("flip") / "model.npz"
    trained = fake_trained(arch="LSTM1", p=1)
    save_checkpoint(path, trained)
    return path, parameter_digest(trained.model), build_manifest(trained)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_flipped_checkpoint_byte_is_rejected_or_harmless(saved_checkpoint, data):
    path, digest, manifest = saved_checkpoint
    raw = bytearray(path.read_bytes())
    raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
    flipped = path.with_name("flipped.npz")
    flipped.write_bytes(raw)
    try:
        loaded = load_checkpoint(flipped)
    except DataError:
        return
    assert parameter_digest(loaded.model) == digest
    assert build_manifest(loaded) == manifest
