"""The exit-code contract of ``cli.main`` as hypothesis properties.

Whatever the config or the input files hold, ``main`` returns 0 (success),
1 (usage), 2 (data) or 3 (numeric), raises nothing, and a non-zero exit
prints a stderr line that starts with its code's prefix. One config value
or one CSV or sidecar mutation is drawn per example, over a p=2, 15-day
corpus and a checkpoint trained for one epoch, both built once per module.
A size (stations, days, epochs, runs, window lengths) drawn above 3 runs at
3, so no draw builds a large table.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcast import cli

PREFIXES = {1: "usage error:", 2: "data error:", 3: "numeric error:"}
SIZE_CAP = 3
SIZES = {"p", "days", "max_epochs", "runs", "n", "h", "n_d", "n_w"}
VALUES = [
    None, True, False, 0, 1, -1, 2, 3, -3, 0.5, -0.5, 1.5, 1e308, -1e308,
    float("nan"), float("inf"), float("-inf"), "", "x", "1", "all",
    [], [1], ["a"], [-1], [0, -1], [1, 1], [1.5], [True], {}, {"a": 1}, 10**30, 2**63,
]  # fmt: skip
SECTIONS = {
    None: [
        "config_version", "dataset", "checkpoint", "arch", "impute", "views",
        "out", "synth", "train", "window", "sweep",
    ],
    "synth": [
        "p", "days", "seed", "weekend_scale", "propagation_lag", "noise_std",
        "noise_phi", "native_missing_ratio", "start_date", "base_profile", "bogus",
    ],
    "train": [
        "lr", "l2", "max_epochs", "runs", "seeds", "beta1", "beta2", "eps", "bogus",
    ],
    "window": ["n", "h", "n_d", "n_w", "bogus"],
    "sweep": ["ratios", "scope", "impute", "seeds", "checkpoint", "bogus"],
}  # fmt: skip
COMMANDS = ["synth", "train", "eval", "sweep-test", "sweep-all"]
CELLS = ["", "nan", " NaN ", "-1", "0", "x", "1e400", "inf", "-inf", "1,2", '"', "2019-01-07"]
SIDECAR_KEYS = ["stations", "lane", "points_per_day", "bogus"]
UNREADABLE = [b"", b"{", b"[]", b"null", b"\xff\xfe", b'{"stations": ["a"]}']


def _capped(key, value):
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    if key in SIZES and numeric and value > SIZE_CAP:
        return type(value)(SIZE_CAP)
    return value


def _base_config(corpus: Path, checkpoint: Path, scope: str = "test") -> dict:
    return {
        "config_version": 1,
        "dataset": str(corpus),
        "checkpoint": str(checkpoint),
        "arch": "LSTM1",
        "impute": "mean",
        "views": "overall",
        "synth": {"p": 2, "days": 15, "seed": 0},
        "train": {"max_epochs": 1, "seeds": [0]},
        "window": {},
        "sweep": {
            "ratios": [0.0, 0.1],
            "seeds": [0],
            "impute": "mean",
            "checkpoint": str(checkpoint),
            "scope": scope,
        },
    }


def _argv(command: str) -> list[str]:
    return [command.split("-")[0], "--config", "cfg.json"]


def _run(config: dict, argv: list[str], files: dict[str, bytes]) -> tuple[int, str]:
    """``main`` on a config and any extra files, run from a fresh directory;
    its exit code and stderr."""
    err = io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)
        try:
            Path("cfg.json").write_text(json.dumps(config))
            for name, data in files.items():
                Path(name).write_bytes(data)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(home)
    return code, err.getvalue()


def _check(code, err: str) -> None:
    assert code in (0, 1, 2, 3), (code, err)
    if code:
        lines = err.splitlines()
        assert any(line.startswith(PREFIXES[code]) for line in lines), (code, err)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A p=2, 15-day synth corpus with its sidecar and an LSTM1 checkpoint
    trained on it for one epoch."""
    root = tmp_path_factory.mktemp("contract")
    data, checkpoint = root / "flows.csv", root / "ckpt.npz"
    config = _base_config(data, checkpoint)
    (root / "cfg.json").write_text(json.dumps(config))
    assert cli.main(["synth", "--config", str(root / "cfg.json"), "--out", str(data)]) == 0
    out = root / "run"
    assert cli.main(["train", "--config", str(root / "cfg.json"), "--out", str(out)]) == 0
    (out / "checkpoints" / "LSTM1_mean_seed0.npz").rename(checkpoint)
    return data, checkpoint


seed_flags = st.lists(st.integers(-3, 3), min_size=1, max_size=SIZE_CAP).map(
    lambda seeds: ["--seed", ",".join(map(str, seeds))]
)


@settings(max_examples=500, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    where=st.sampled_from([(s, k) for s, keys in SECTIONS.items() for k in keys]),
    value=st.sampled_from(VALUES),
    flags=st.one_of(st.just([]), seed_flags),
)
# A null out once reached Path(None) and raised TypeError.
@example(command="synth", where=(None, "out"), value=None, flags=[])
@example(command="train", where=(None, "out"), value=None, flags=[])
# A propagation lag past int64 once overflowed in numpy's index arithmetic.
@example(command="synth", where=("synth", "propagation_lag"), value=10**30, flags=[])
# Overflow in a divergent training step or in huge synth noise once
# escaped as a RuntimeWarning, an error under this suite's filter.
@example(command="train", where=("train", "lr"), value=1e308, flags=[])
@example(command="synth", where=("synth", "noise_std"), value=1e308, flags=[])
def test_any_config_value_keeps_the_exit_contract(corpus, command, where, value, flags):
    config = _base_config(*corpus, scope=command.split("-")[-1])
    section, key = where
    target = config if section is None else config[section]
    target[key] = _capped(key, value)
    _check(*_run(config, _argv(command) + flags, {}))


@st.composite
def mutations(draw, text: str, sidecar: str):
    """A corpus and sidecar with one change: a cell, a line, a dropped,
    doubled or swapped row, a truncation, a header cell, a sidecar field, or
    a sidecar that is not a readable JSON object."""
    lines = text.splitlines(keepends=True)
    meta = json.loads(sidecar)
    kind = draw(
        st.sampled_from(
            ["cell", "line", "drop", "double", "swap", "truncate", "header", "field", "sidecar"]
        )
    )
    row = draw(st.integers(1, len(lines) - 1))
    if kind == "cell":
        cells = lines[row].rstrip("\r\n").split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(CELLS))
        lines[row] = ",".join(cells) + "\r\n"
    elif kind == "line":
        lines[row] = draw(st.sampled_from(["\r\n", "x\r\n", ",,\r\n", "timestamp,a,b\r\n"]))
    elif kind == "drop":
        del lines[row]
    elif kind == "double":
        lines.insert(row, lines[row])
    elif kind == "swap" and row + 1 < len(lines):
        lines[row], lines[row + 1] = lines[row + 1], lines[row]
    elif kind == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
        lines = [text]
    elif kind == "header":
        cells = lines[0].rstrip("\r\n").split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(CELLS + ["a"]))
        lines[0] = ",".join(cells) + "\r\n"
    elif kind == "field":
        key = draw(st.sampled_from(SIDECAR_KEYS))
        if draw(st.booleans()):
            meta.pop(key, None)
        else:
            meta[key] = draw(st.sampled_from(VALUES))
    files = {"flows.csv": "".join(lines).encode()}
    if kind == "sidecar":
        files["flows.csv.meta.json"] = draw(st.sampled_from(UNREADABLE))
    else:
        files["flows.csv.meta.json"] = json.dumps(meta).encode()
    return files


@settings(max_examples=600, deadline=None)
@given(command=st.sampled_from(["eval", "train", "sweep-test"]), data=st.data())
def test_any_csv_or_sidecar_change_keeps_the_exit_contract(corpus, command, data):
    path, checkpoint = corpus
    sidecar = Path(str(path) + ".meta.json").read_text()
    files = data.draw(mutations(path.read_bytes().decode(), sidecar))
    config = _base_config(Path("flows.csv"), checkpoint)
    _check(*_run(config, _argv(command), files))
