"""Property tests: the window gather, window arithmetic, CSV round trips, the
CSV loader against its row-by-row reference, missing-value injection and
imputation, split invariance of evaluation, and checkpoints with a flipped
byte."""

import csv
import datetime as dt
import itertools
import tempfile
from dataclasses import replace
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
    Windows,
    extract_windows,
    load_csv,
    save_csv,
    slice_days,
    stack_batch,
)
from flowcast.errors import DataError
from flowcast.evaluation import VIEWS, evaluate, persistence_predictor
from flowcast.imputation import METHODS, fit, impute, inject_missing
from flowcast.training import parameter_digest

from csv_reference import load_csv_rows
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
    """Windows over a random table."""
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
    first = draw(st.integers(0, days - 1))
    return extract_windows(table(rng, p, days, ppd, missing), cfg, (first, days))


def assert_matches_slicer(w):
    ppd = w.table.points_per_day
    s, s_d, s_w, target, target_mask, ts = stack_batch(w)
    assert np.array_equal(ts, w.anchors)
    for block in (s, s_d, s_w, target, target_mask):
        assert not block.flags.writeable and block.shape[-1] == len(w)
    for b, t in enumerate(ts):
        want = brute_force_blocks(w.table.flows, w.cfg, t, ppd)[:3]
        for got, block in zip((s, s_d, s_w), want):
            assert np.array_equal(got[..., b], block)
        *_, want_target = brute_force_blocks(w.table.flows, w.cfg, t, ppd)
        *_, want_mask = brute_force_blocks(w.table.mask, w.cfg, t, ppd)
        assert np.array_equal(target[..., b], want_target)
        assert np.array_equal(target_mask[..., b], want_mask)


@settings(max_examples=40, deadline=None)
@given(windows())
def test_stack_batch_matches_brute_force_slicer(w):
    assert_matches_slicer(w)


def gappy_day(w, data):
    """One day's anchors with at least one interior anchor left out."""
    ppd = w.table.points_per_day
    day = data.draw(st.sampled_from(sorted(set(w.anchors // ppd))))
    anchors = w.anchors[w.anchors // ppd == day]
    anchors = np.delete(anchors, data.draw(st.integers(1, anchors.size - 2)))
    keep = data.draw(st.lists(st.booleans(), min_size=anchors.size, max_size=anchors.size))
    keep[0] = keep[-1] = True
    return anchors[keep]


def unsorted(w, data):
    anchors = data.draw(st.permutations(list(w.anchors)))
    assume(anchors != sorted(anchors))
    return anchors


def repeated(w, data):
    picks = data.draw(st.lists(st.sampled_from(list(w.anchors)), min_size=1, max_size=12))
    return picks + data.draw(st.lists(st.sampled_from(picks), min_size=1, max_size=6))


ANCHOR_SETS = {
    "gaps-in-one-day": gappy_day,
    "unsorted": unsorted,
    "repeated": repeated,
    "single": lambda w, data: [data.draw(st.sampled_from(list(w.anchors)))],
    "none": lambda w, data: [],
}


@pytest.mark.parametrize("anchor_set", ANCHOR_SETS)
@settings(max_examples=25, deadline=None)
@given(w=windows(), data=st.data())
def test_stack_batch_matches_slicer_on_anchor_sets_days_never_give(w, data, anchor_set):
    odd = replace(w, anchors=ANCHOR_SETS[anchor_set](w, data))
    assert_matches_slicer(odd)
    if not odd:
        cfg, p = w.cfg, w.table.num_stations
        widths = (cfg.n, cfg.daily_width, cfg.weekly_width, cfg.h, cfg.h)
        *blocks, ts = stack_batch(odd)
        assert [block.shape for block in blocks] == [(p, k, 0) for k in widths]
        assert ts.shape == (0,)


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
    assert a.table is w.table
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


# station ids are any text a file can hold: commas, quotes, line breaks, none
STATION_IDS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)


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
    ids = tuple(draw(st.lists(STATION_IDS, min_size=p, max_size=p)))
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


CELLS = (
    *("", " ", "\t", "nan", "NaN", "-nan", " NaN ", " 7.5 ", "1_000", "\x1c2\x1c"),
    *("inf", "-inf", "1e999", "abc", "1.2.3", "0x10"),
)
STAMPS = ("space", "no-seconds", "date-only", "offset", "one-minute-late", "garbage")


def _edit_stamp(text: str, how: str) -> str:
    stamp = dt.datetime.fromisoformat(text)
    return {
        "space": stamp.isoformat(" "),
        "no-seconds": stamp.isoformat(timespec="minutes"),
        "date-only": text[:10],
        "offset": text + "+00:00",
        "one-minute-late": (stamp + dt.timedelta(minutes=1)).isoformat(),
        "garbage": "half past nine",
    }[how]


@st.composite
def edits(draw, rows: int, p: int):
    """One edit of a saved table's records, whose body rows are 1..rows."""
    row = draw(st.integers(1, rows))
    kind = draw(st.sampled_from(["cell", "quote", "stamp", "ragged", "blank", "repeat", "cut"]))
    if kind == "cell":
        return kind, row, draw(st.integers(1, p)), draw(st.sampled_from(CELLS))
    if kind == "quote":
        return kind, row, draw(st.integers(0, p)), None
    if kind == "stamp":
        return kind, row, 0, draw(st.sampled_from(STAMPS))
    return kind, row, 0, draw(st.booleans())


def _render(records: list, quoted: set, ending: str) -> str:
    def field(text: str, force: bool) -> str:
        if force or any(ch in text for ch in ',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    return "".join(
        ",".join(field(text, (i, j) in quoted) for j, text in enumerate(record)) + ending
        for i, record in enumerate(records)
    )


def _outcome(load, path):
    try:
        ds = load(path)
    except DataError as exc:
        return str(exc)
    return (
        ds.flows.shape,
        ds.flows.tobytes(),
        ds.mask.tobytes(),
        ds.station_ids,
        ds.start_date,
        ds.points_per_day,
        ds.lane,
    )


def _edited(ds, edit_list, ending: str, path: Path) -> Path:
    """Save ``ds`` to ``path`` with the edits made, each in its own row."""
    save_csv(ds, path)
    with path.open(newline="") as handle:
        records = list(csv.reader(handle))
    quoted = set()
    # from the last row up, so inserting or cutting a row moves no later edit
    for kind, row, column, arg in sorted(edit_list, key=lambda edit: -edit[1]):
        record = records[row]
        if kind == "cell" and column < len(record):
            record[column] = arg
        elif kind == "quote":
            quoted.add((row, column))
        elif kind == "stamp":
            record[0] = _edit_stamp(record[0], arg)
        elif kind == "ragged":
            record[:] = record + ["9.0"] if arg else record[:-1]
        elif kind == "blank":
            records.insert(row, [])
        elif kind == "repeat":
            records.insert(row, list(record))
        elif kind == "cut":
            del records[row]
    path.write_text(_render(records, quoted, ending), newline="")
    return path


@settings(max_examples=400, deadline=None)
@given(csv_tables(), st.data())
def test_load_csv_matches_row_by_row_reference(ds, data):
    """Saved tables, edited: the block loader returns what the reference
    returns, flows bit for bit, or raises the same message."""
    edit_list = data.draw(
        st.lists(
            edits(ds.num_timestamps, ds.num_stations),
            max_size=3,
            unique_by=lambda edit: edit[1],
        )
    )
    ending = data.draw(st.sampled_from(["\r\n", "\n"]))
    with tempfile.TemporaryDirectory() as scratch:
        path = _edited(ds, edit_list, ending, Path(scratch) / "flows.csv")
        assert _outcome(load_csv, path) == _outcome(load_csv_rows, path)


FAULTS = (
    ("cell", 1, "abc"),
    ("cell", 2, "inf"),
    ("stamp", 0, "garbage"),
    ("stamp", 0, "one-minute-late"),
    ("ragged", 0, True),
    ("ragged", 0, False),
    ("blank", 0, None),
    ("cut", 0, None),
)


def test_load_csv_reports_the_first_of_two_faults(tmp_path):
    """Every pair of faults in two rows, in the same day and in different days:
    the reference's message, which names the earlier row."""
    rng = np.random.default_rng(0)
    ds = table(rng, 2, 2, 12, 0.2)
    mismatches = []
    pairs = itertools.product(FAULTS, repeat=2)
    for pair, rows in itertools.product(pairs, [(3, 8), (3, 17)]):
        edit_list = [(kind, row, column, arg) for (kind, column, arg), row in zip(pair, rows)]
        path = _edited(ds, edit_list, "\r\n", tmp_path / "flows.csv")
        got, want = _outcome(load_csv, path), _outcome(load_csv_rows, path)
        if got != want:
            mismatches.append((edit_list, got, want))
    assert not mismatches


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
                inject_missing(ds, ratio, seed, day_range=day_range)
            break
        injected = inject_missing(ds, ratio, seed, day_range=day_range)
        assert not (injected.mask & ~ds.mask).any()
        cells = set(zip(*np.nonzero(ds.mask & ~injected.mask)))
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


@st.composite
def gappy_tables(draw):
    """Random holes plus whole (station, time-of-day) slots never observed;
    every station keeps at least one observation."""
    p = draw(st.integers(1, 4))
    ppd = draw(st.sampled_from((12, 48, 288)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ds = table(rng, p, draw(st.integers(1, 30)), ppd, draw(st.floats(0.0, 0.9)))
    mask = ds.mask.copy()
    for s, tau in zip(rng.integers(0, p, 3), rng.integers(0, ppd, 3)):
        mask[s, tau::ppd] = False
    mask[:, 0] |= ~mask.any(axis=1)
    return replace(ds, flows=np.where(mask, ds.flows, np.nan), mask=mask)


def per_slot_statistics(method, ds):
    """Fill table reduced one (station, time-of-day) slot at a time."""
    p, ppd = ds.num_stations, ds.points_per_day
    cube = ds.flows.reshape(p, -1, ppd)
    seen = ds.mask.reshape(p, -1, ppd)
    reduce = np.mean if method == "mean" else np.median
    want = np.empty((p, ppd))
    for s in range(p):
        fallback = reduce(ds.flows[s][ds.mask[s]])
        for tau in range(ppd):
            values = cube[s, seen[s, :, tau], tau]
            want[s, tau] = reduce(values) if values.size else fallback
    return want


@settings(max_examples=40, deadline=None)
@given(gappy_tables(), st.sampled_from(("mean", "median")))
def test_grouped_fill_statistics_match_per_slot_reduction(ds, method):
    got = fit(method, ds).table
    assert got.tobytes() == per_slot_statistics(method, ds).tobytes()


@settings(max_examples=40, deadline=None)
@given(gappy_tables(), st.sampled_from(("mean", "median")))
def test_mean_and_median_fill_matches_tiled_where(ds, method):
    model = fit(method, ds)
    want = np.where(ds.mask, ds.flows, np.tile(model.table, (1, ds.num_days)))
    filled = impute(model, ds)
    assert filled.flows.tobytes() == want.tobytes()
    assert filled.mask.all()


@settings(max_examples=40, deadline=None)
@given(gappy_tables(), st.sampled_from(METHODS), st.data())
def test_fit_on_a_day_range_matches_fit_on_its_copy(ds, method, data):
    lo = data.draw(st.integers(0, ds.num_days - 1))
    days = (lo, data.draw(st.integers(lo + 1, ds.num_days)))
    train = slice_days(ds, days)
    assume(train.mask.any(axis=1).all())
    got, want = fit(method, ds, days), fit(method, train)
    assert got.table.tobytes() == want.table.tobytes()
    assert got.origin == want.origin
    assert impute(got, ds).flows.tobytes() == impute(want, ds).flows.tobytes()


@settings(max_examples=40, deadline=None)
@given(gappy_tables(), st.data())
def test_interp_matches_per_hole_np_interp(ds, data):
    # Fit on a day slice that may start after the table does, then fill a
    # differently masked table that may start earlier or later, so holes fall
    # on days the slice observed, between them, and before and after them.
    p, ppd = ds.num_stations, ds.points_per_day
    lo = data.draw(st.integers(0, ds.num_days - 1))
    hi = data.draw(st.integers(lo + 1, ds.num_days))
    train = slice_days(ds, (lo, hi))
    assume(train.mask.any(axis=1).all())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(ds.mask.shape) >= data.draw(st.floats(0.05, 0.9))
    other = replace(
        ds,
        flows=np.where(mask, rng.normal(size=mask.shape), np.nan),
        mask=mask,
        start_date=ds.start_date + dt.timedelta(days=data.draw(st.integers(-3, 3))),
    )
    filled = impute(fit("interp", train), other)

    cube = train.flows.reshape(p, -1, ppd)
    seen = train.mask.reshape(p, -1, ppd)
    offset = (other.start_date - train.start_date).days
    want = other.flows.copy()
    for s, t in zip(*np.nonzero(~mask)):
        days = np.nonzero(seen[s, :, t % ppd])[0]
        if days.size == 0:
            want[s, t] = np.mean(train.flows[s][train.mask[s]])
        else:
            x = t // ppd + offset
            want[s, t] = np.interp(x, days.astype(float), cube[s, days, t % ppd])
    assert filled.flows.tobytes() == want.tobytes()
    assert filled.mask.all()


@settings(max_examples=40, deadline=None)
@given(windows(), st.data())
def test_evaluate_adds_up_over_any_split(w, data):
    assume(len(w) >= 2)
    cut = data.draw(st.integers(1, len(w) - 1))
    predict = persistence_predictor(w.cfg.h)
    start = w.table.start_date

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


@st.composite
def scored_windows(draw):
    """Windows whose targets hide NaN and +-1e200 at masked-off cells, the
    per-cell predictions with the same junk at masked-off cells, and the same
    predictions with zeros there instead."""
    p, h = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    ppd = draw(st.sampled_from((12, 24, 48)))
    days = draw(st.integers(9, 10))
    start = MONDAY + dt.timedelta(days=draw(st.integers(0, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((p, days * ppd)) >= draw(st.floats(0.0, 0.9))
    dead = draw(st.one_of(st.none(), st.integers(0, p - 1)))
    if dead is not None:
        mask[dead] = False
    junk = rng.choice([np.nan, 1e200, -1e200], size=mask.shape)
    flows = np.where(mask, rng.normal(size=mask.shape), junk)
    ids = tuple(f"s{i}" for i in range(p))
    truth = FlowDataset(flows, mask, ids, start, points_per_day=ppd)
    cfg = WindowConfig(n=1, h=h, n_d=0, n_w=0)
    lo, hi = 7 * ppd, days * ppd - h
    anchors = set(draw(st.lists(st.integers(lo, hi), min_size=1, max_size=40)))
    if h > 1:
        # a horizon that runs past midnight into the next day's buckets
        anchors.add(draw(st.integers(8, days - 1)) * ppd - 1)
    windows = Windows(truth, cfg, np.array(sorted(anchors)))
    cells = rng.normal(size=(p, h, days * ppd))
    hidden = np.stack([np.roll(~mask, -j, axis=1) for j in range(h)], axis=1)
    junk_pred = np.where(hidden, rng.choice([np.nan, 1e200, -1e200], cells.shape), cells)
    zero_pred = np.where(hidden, 0.0, cells)
    return windows, junk_pred, zero_pred


def per_cell_oracle(windows, pred):
    """Sums of |error| and error^2 and cell counts per bucket, one cell at a time."""
    table, h = windows.table, windows.cfg.h
    p, ppd = table.num_stations, table.points_per_day
    sizes = {"overall": 1, "horizon": h, "timestamp": ppd, "weekday": 7, "station": p}
    sums = {name: np.zeros((size, 2)) for name, size in sizes.items()}
    counts = {name: np.zeros(size, dtype=int) for name, size in sizes.items()}
    for t in windows.anchors:
        for i in range(p):
            for j in range(h):
                when = int(t) + j
                if not table.mask[i, when]:
                    continue
                diff = pred[i, j, t] - table.flows[i, when]
                buckets = {
                    "overall": 0,
                    "horizon": j,
                    "timestamp": when % ppd,
                    "weekday": (table.start_date.weekday() + when // ppd) % 7,
                    "station": i,
                }
                for name, bucket in buckets.items():
                    sums[name][bucket] += (abs(diff), diff * diff)
                    counts[name][bucket] += 1
    return sums, counts


@settings(max_examples=60, deadline=None)
@given(scored_windows())
def test_evaluate_matches_per_cell_oracle(case):
    # The suite turns RuntimeWarning into an error, so the junk at masked-off
    # cells must also pass through without an overflow or invalid-value warning.
    windows, junk_pred, zero_pred = case

    def score(pred):
        predict = lambda s, s_d, s_w, ts: pred[:, :, ts]
        return evaluate(predict, windows, VIEWS).views

    got, clean_got = score(junk_pred), score(zero_pred)
    sums, counts = per_cell_oracle(windows, zero_pred)
    for view in VIEWS:
        vm = got[view]
        assert np.issubdtype(vm.counts.dtype, np.integer)
        assert np.array_equal(vm.counts, counts[view])
        assert np.array_equal(np.isnan(vm.mae), counts[view] == 0)
        assert np.array_equal(np.isnan(vm.rmse), counts[view] == 0)
        scored = counts[view] > 0
        want_mae = sums[view][scored, 0] / counts[view][scored]
        want_rmse = np.sqrt(sums[view][scored, 1] / counts[view][scored])
        np.testing.assert_allclose(vm.mae[scored], want_mae, rtol=1e-12, atol=0)
        np.testing.assert_allclose(vm.rmse[scored], want_rmse, rtol=1e-12, atol=0)
        for field in ("counts", "mae", "rmse"):
            assert np.array_equal(
                getattr(vm, field), getattr(clean_got[view], field), equal_nan=True
            )
