"""End-to-end exercises of the command-line entry point.

Commands run in-process through cli.main so exit codes and emitted files can
be checked directly against small synthetic workspaces.
"""

import datetime as dt
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import flowcast
from flowcast import cli, imputation, training
from flowcast.checkpoint import load_checkpoint, save_checkpoint
from flowcast.dataset import load_csv, save_csv
from flowcast.errors import NumericError
from flowcast.evaluation import VIEWS
from flowcast.hybrid import ARCHITECTURES
from flowcast.synthgen import SynthConfig, generate
from flowcast.version import VERSION

from test_checkpoint import rewrite
from test_dataset import write_seven_per_day_csv, write_two_per_day_csv
from test_workers import alarm, counted_forks, use_cores  # noqa: F401 (alarm is a fixture)


def read_rows(path):
    """Data rows of a metric CSV: comment lines and the header stripped."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def provenance_lines(path):
    return path.read_text().splitlines()[:2]


@pytest.fixture(autouse=True)
def _run_in_tmp_path(tmp_path, monkeypatch):
    """Run each test from its own directory, so a default ``--out`` lands there."""
    monkeypatch.chdir(tmp_path)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with a config, two datasets, and one trained checkpoint."""
    root = tmp_path_factory.mktemp("cliws")
    cfg = root / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "config_version": 1,
                "synth": {"p": 3, "days": 14, "seed": 3},
                "train": {"max_epochs": 2},
            }
        )
    )
    data = root / "data.csv"
    assert cli.main(["synth", "--config", str(cfg), "--out", str(data)]) == 0

    complete_cfg = root / "complete.json"
    complete_cfg.write_text(
        json.dumps(
            {
                "config_version": 1,
                "synth": {"p": 3, "days": 14, "seed": 5, "native_missing_ratio": 0.0},
            }
        )
    )
    complete = root / "complete.csv"
    assert cli.main(["synth", "--config", str(complete_cfg), "--out", str(complete)]) == 0

    out = root / "run"
    rc = cli.main(
        [
            "train",
            "--config",
            str(cfg),
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
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    return {
        "root": root,
        "cfg": cfg,
        "data": data,
        "complete": complete,
        "out": out,
        "checkpoint": out / "checkpoints" / "LSTM1_mean_seed0.npz",
    }


class TestArgumentErrors:
    def test_no_arguments(self):
        assert cli.main([]) == 1

    def test_unknown_command(self):
        assert cli.main(["frobnicate"]) == 1

    def test_unknown_flag(self):
        assert cli.main(["synth", "--bogus", "1"]) == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["--help"])
        assert info.value.code == 0
        assert "synth" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command",
        [["eval", "--seed", "1"], ["synth", "--seed", "1,2"]],
        ids=["eval-seed", "synth-seed-list"],
    )
    def test_flag_the_command_would_not_read(self, ws, tmp_path, capsys, command):
        # everything else the command needs is given: only the flag is wrong
        inputs = ["--out", str(tmp_path / "out")]
        if command[0] == "eval":
            inputs += ["--checkpoint", str(ws["checkpoint"]), "--dataset", str(ws["data"])]
        assert cli.main(command + inputs) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["synth", "train", "eval", "sweep"])
    def test_help_lists_the_flags_readme_gives(self, capsys, command):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        (row,) = [ln for ln in section.splitlines() if ln.startswith(f"| `{command}` |")]
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--help"])
        assert info.value.code == 0
        shown = set(re.findall(r"--[a-z]+", capsys.readouterr().out)) - {"--help"}
        assert shown == set(re.findall(r"--[a-z]+", row))

    def test_synth_requires_seed(self, tmp_path):
        assert cli.main(["synth", "--out", str(tmp_path / "d.csv")]) == 1

    def test_synth_rejects_bad_values(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"config_version": 1, "synth": {"p": 0, "seed": 1}}))
        assert cli.main(["synth", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1, err

    def test_synth_past_the_last_date_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        section = {"p": 2, "days": 2, "seed": 0, "start_date": "9999-12-31"}
        cfg.write_text(json.dumps({"config_version": 1, "synth": section}))
        assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1, err
        assert "run past 9999-12-31" in err

    def test_every_exported_name_resolves(self):
        missing = [name for name in flowcast.__all__ if not hasattr(flowcast, name)]
        assert missing == []

    def test_import_loads_no_scipy(self):
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys, flowcast, flowcast.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["synth", "--config", str(tmp_path / "nope.json")]) == 1

    def test_config_must_be_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{oops")
        assert cli.main(["synth", "--config", str(cfg)]) == 1

    def test_config_version_enforced(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"config_version": 2, "synth": {"seed": 1}}))
        assert cli.main(["synth", "--config", str(cfg)]) == 1
        cfg.write_text(json.dumps({"synth": {"seed": 1}}))
        assert cli.main(["synth", "--config", str(cfg)]) == 1

    def test_unknown_architecture_reported(self, capsys, tmp_path):
        rc = cli.main(
            [
                "train",
                "--dataset",
                str(tmp_path / "d.csv"),
                "--arch",
                "Bogus",
                "--seed",
                "0",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "usage error:" in err
        assert "Bogus" in err
        assert "LSTM1" in err

    def test_train_requires_seeds(self, ws):
        rc = cli.main(
            ["train", "--dataset", str(ws["data"]), "--arch", "LSTM1"]
        )
        assert rc == 1

    def test_train_requires_dataset(self):
        assert cli.main(["train", "--arch", "LSTM1", "--seed", "0"]) == 1

    def test_eval_requires_checkpoint_flag(self, ws):
        assert cli.main(["eval", "--dataset", str(ws["data"])]) == 1

    def test_eval_unknown_view(self, ws, tmp_path):
        rc = cli.main(
            [
                "eval",
                "--checkpoint",
                str(ws["checkpoint"]),
                "--dataset",
                str(ws["data"]),
                "--views",
                "sideways",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 1

    def test_sweep_scope_test_requires_checkpoint(self, ws):
        rc = cli.main(["sweep", "--dataset", str(ws["data"]), "--seed", "0"])
        assert rc == 1

    def test_sweep_scope_all_requires_arch(self, ws):
        rc = cli.main(
            [
                "sweep",
                "--dataset",
                str(ws["data"]),
                "--scope",
                "all",
                "--seed",
                "0",
            ]
        )
        assert rc == 1

    def test_sweep_requires_seeds(self, ws):
        rc = cli.main(
            [
                "sweep",
                "--dataset",
                str(ws["data"]),
                "--checkpoint",
                str(ws["checkpoint"]),
            ]
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "config, command",
        [
            ([1], ["train", "--arch", "LSTM1", "--seed", "0"]),
            ({"train": {"seeds": 5}}, ["train", "--arch", "LSTM1"]),
            ({"train": [1]}, ["train", "--arch", "LSTM1", "--seed", "0"]),
            ({"arch": 5}, ["train", "--seed", "0"]),
            ({"dataset": 5}, ["train", "--arch", "LSTM1", "--seed", "0"]),
            ({"out": 5}, ["train", "--arch", "LSTM1", "--seed", "0"]),
            ({"views": 5}, ["eval"]),
            ({"sweep": {"ratios": 0.03}}, ["sweep", "--seed", "0"]),
            ({"sweep": {"ratios": [0, "x"]}}, ["sweep", "--seed", "0"]),
            ({"sweep": {"seeds": ["a"]}}, ["sweep"]),
            ({"sweep": {"impute": 5}}, ["sweep", "--seed", "0"]),
            ({"synth": {"seed": 1, "start_date": 5}}, ["synth"]),
            ({"train": {"max_epochs": 1.5}}, ["train", "--arch", "LSTM1", "--seed", "0"]),
            ({"synth": {"seed": "a"}}, ["synth"]),
        ],
        ids=[
            "top-level-list",
            "train-seeds",
            "train-section",
            "arch",
            "dataset",
            "out",
            "views",
            "sweep-ratios-number",
            "sweep-ratios-string",
            "sweep-seeds",
            "sweep-impute",
            "synth-start-date",
            "train-epochs",
            "synth-seed",
        ],
    )
    def test_config_value_of_wrong_type(self, ws, tmp_path, config, command):
        # Run as a user would, so an uncaught exception shows as a traceback.
        if isinstance(config, dict):
            config = {"config_version": 1, **config}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        data = ["--dataset", str(ws["data"])]
        scored = data + ["--checkpoint", str(ws["checkpoint"])]
        inputs = {"train": data, "eval": scored, "sweep": scored, "synth": []}
        if "dataset" in config:
            inputs["train"] = []
        out = [] if "out" in config else ["--out", str(tmp_path / "out")]
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "flowcast.cli", *command, "--config", str(cfg)]
            + inputs[command[0]]
            + out,
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("usage error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "command, code, message",
        [
            (["train", "--arch", "LSTM1", "--seed", "0,0"], 1, "seeds (0, 0) repeat"),
            (["train", "--arch", "LSTM1,LSTM1", "--seed", "0"], 1, "LSTM1 more than once"),
            (["sweep", "--impute", "mean,mean", "--seed", "1"], 1, "mean more than once"),
            (["sweep", "--scope", "all", "--arch", "LSTM1", "--seed", "1,1"], 1, "repeat"),
            (["sweep", "--impute", "mean", "--seed", "1,1"], 2, "seeds (1, 1) repeat"),
            (["eval", "--views", "overall,station,overall"], 1, "overall more than once"),
        ],
        ids=[
            "train-seeds",
            "train-archs",
            "sweep-methods",
            "sweep-all-seeds",
            "sweep-seeds",
            "eval-views",
        ],
    )
    def test_repeated_seed_or_name_rejected(self, ws, tmp_path, command, code, message):
        # Run as a user would, so an uncaught exception shows as a traceback.
        inputs = ["--dataset", str(ws["data"]), "--out", str(tmp_path / "out")]
        if command[0] in ("eval", "sweep"):
            inputs += ["--checkpoint", str(ws["checkpoint"])]
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "flowcast.cli", *command, *inputs],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.count("\n") == 1 and message in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.glob("out/*.csv"))

    @pytest.mark.parametrize(
        "config, command, code",
        [
            ({"train": {"lr": 10**400}}, ["train", "--arch", "LSTM1", "--seed", "0"], 1),
            ({"synth": {"seed": 0, "noise_std": 10**400}}, ["synth"], 1),
            ({"sweep": {"ratios": [0, 10**400]}}, ["sweep", "--seed", "0"], 2),
        ],
        ids=["train-lr", "synth-noise", "sweep-ratio"],
    )
    def test_integer_too_large_for_a_float(self, ws, tmp_path, capsys, config, command, code):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"config_version": 1, **config}))
        inputs = {
            "train": ["--dataset", str(ws["data"])],
            "synth": [],
            "sweep": ["--dataset", str(ws["data"]), "--checkpoint", str(ws["checkpoint"])],
        }[command[0]]
        out = ["--out", str(tmp_path / "out")]
        assert cli.main(command + ["--config", str(cfg)] + inputs + out) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        if code == 2:
            # the line names the problem, not the ratio's 401 digits
            assert err.startswith("data error:") and len(err) < 200, err

    @pytest.mark.parametrize(
        "command, code, prefix",
        [
            (["synth", "--seed", "-3"], 1, "usage error:"),
            (["train", "--arch", "LSTM1", "--seed", "-1"], 1, "usage error:"),
            (["sweep", "--ratios", "0,0.1", "--seed", "-1"], 2, "data error:"),
        ],
        ids=["synth", "train", "sweep"],
    )
    def test_negative_seed_rejected(self, ws, tmp_path, capsys, command, code, prefix):
        inputs = {
            "synth": [],
            "train": ["--dataset", str(ws["data"])],
            "sweep": ["--dataset", str(ws["data"]), "--checkpoint", str(ws["checkpoint"])],
        }[command[0]]
        assert cli.main(command + inputs + ["--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1, err
        assert "must be nonnegative" in err

    def test_resolve_archs_all(self):
        assert cli._choose("all", ARCHITECTURES, "architecture") == list(ARCHITECTURES)
        assert len(cli._choose("all", ARCHITECTURES, "architecture")) == 12


    @staticmethod
    def command_args(ws, command):
        """Arguments that run ``command`` in the workspace, all but ``--out``."""
        checkpoint = ["--checkpoint", str(ws["checkpoint"]), "--dataset", str(ws["data"])]
        return {
            "synth": ["synth", "--seed", "1"],
            "train": ["train", "--config", str(ws["cfg"]), "--dataset", str(ws["data"]),
                      "--arch", "LSTM1", "--seed", "0"],
            "eval": ["eval", *checkpoint],
            "sweep": ["sweep", *checkpoint, "--impute", "mean", "--ratios", "0,0.1",
                      "--seed", "0"],
        }[command]

    @pytest.mark.parametrize("command", ["train", "eval", "sweep"])
    @pytest.mark.parametrize("name", ["taken", "taken/sub"], ids=["file", "under_file"])
    def test_out_dir_through_a_file(self, ws, tmp_path, capsys, command, name):
        (tmp_path / "taken").write_text("kept")
        out = tmp_path / name
        assert cli.main(self.command_args(ws, command) + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1, err
        assert str(out) in err and "Traceback" not in err
        assert (tmp_path / "taken").read_text() == "kept"

    @pytest.mark.parametrize("part", ["checkpoints", "logs"])
    def test_train_output_subdirectory_taken_by_a_file(self, ws, tmp_path, capsys, part):
        (tmp_path / part).write_text("kept")
        args = self.command_args(ws, "train") + ["--out", str(tmp_path)]
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and str(tmp_path / part) in err, err
        assert (tmp_path / part).read_text() == "kept"
        assert not list(tmp_path.glob("checkpoints/*"))  # refused before training

    @pytest.mark.parametrize(
        "command, result",
        [
            ("train", "metrics.csv"),
            ("train", "checkpoints/LSTM1_mean_seed0.npz"),
            ("train", "logs/LSTM1_mean_seed0.jsonl"),
            ("eval", "eval_report.csv"),
            ("sweep", "sweep.csv"),
        ],
        ids=["train", "train-checkpoint", "train-log", "eval", "sweep"],
    )
    def test_result_name_taken_by_a_directory(self, ws, tmp_path, capsys, command, result):
        out = tmp_path / "out"
        (out / result).mkdir(parents=True)
        assert cli.main(self.command_args(ws, command) + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"usage error: result path {out / result} is a directory\n", err
        # Refused before any work: --out holds only the directories made here.
        made = {Path(result), *Path(result).parents} - {Path(".")}
        assert {path.relative_to(out) for path in out.rglob("*")} == made

    @pytest.mark.parametrize("name", ["", "taken/data.csv"], ids=["dir", "under_file"])
    def test_synth_out_not_a_file_path(self, ws, tmp_path, capsys, name):
        (tmp_path / "taken").write_text("kept")
        out = tmp_path / name
        assert cli.main(self.command_args(ws, "synth") + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1, err
        assert str(out if out.is_dir() else out.parent) in err
        assert (tmp_path / "taken").read_text() == "kept"


class TestDataErrors:
    def test_missing_dataset_file(self, tmp_path, capsys):
        rc = cli.main(
            [
                "train",
                "--dataset",
                str(tmp_path / "nope.csv"),
                "--arch",
                "LSTM1",
                "--seed",
                "0",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        assert "data error:" in capsys.readouterr().err

    def test_table_past_the_last_date(self, tmp_path, capsys):
        data = write_two_per_day_csv(tmp_path / "late.csv", ["9999-12-31", "10000-01-01"])
        args = ["train", "--dataset", str(data), "--arch", "LSTM1", "--seed", "0"]
        rc = cli.main(args + ["--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1, err
        assert "row 4" in err

    def test_cnn_wider_than_station_axis(self, ws, tmp_path):
        # p=3 stations against a 4-wide kernel; run as a user would, so an
        # uncaught exception would show as a traceback and exit status 1
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "flowcast.cli",
                "train",
                "--dataset",
                str(ws["data"]),
                "--arch",
                "LSTM1-S-CNN1",
                "--seed",
                "0",
                "--out",
                str(tmp_path / "out"),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 2
        assert "data error:" in proc.stderr
        assert "3 stations" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_cadence_not_tiling_a_day(self, ws, tmp_path, capsys):
        data = write_seven_per_day_csv(tmp_path / "seven.csv", days=14)
        rc = cli.main(
            [
                "eval",
                "--checkpoint",
                str(ws["checkpoint"]),
                "--dataset",
                str(data),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "data error:" in err and "does not divide" in err
        assert "Traceback" not in err

    def test_non_finite_flow_rejected_at_load(self, ws, tmp_path):
        data = tmp_path / "inf.csv"
        lines = ws["data"].read_text().splitlines()
        stamp, _, *rest = lines[100].split(",")
        lines[100] = ",".join([stamp, "inf", *rest])
        data.write_text("\n".join(lines) + "\n")
        Path(str(data) + ".meta.json").write_bytes(
            Path(str(ws["data"]) + ".meta.json").read_bytes()
        )
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "flowcast.cli", "train", "--dataset", str(data)]
            + ["--arch", "LSTM1", "--seed", "0", "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("data error:") and "not finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_sidecar_cadence_not_an_integer(self, ws, tmp_path, capsys):
        data = tmp_path / "hourly.csv"
        data.write_bytes(ws["data"].read_bytes())
        sidecar = json.loads(Path(str(ws["data"]) + ".meta.json").read_text())
        sidecar["points_per_day"] = "hourly"
        Path(str(data) + ".meta.json").write_text(json.dumps(sidecar))
        rc = cli.main(
            [
                "train",
                "--dataset",
                str(data),
                "--arch",
                "LSTM1",
                "--seed",
                "0",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "data error:" in err and "points_per_day" in err
        assert "Traceback" not in err

    def test_sidecar_lane_not_a_string(self, ws, tmp_path, capsys):
        data = tmp_path / "numeric_lane.csv"
        data.write_bytes(ws["data"].read_bytes())
        sidecar = json.loads(Path(str(ws["data"]) + ".meta.json").read_text())
        sidecar["lane"] = 3
        Path(str(data) + ".meta.json").write_text(json.dumps(sidecar))
        rc = cli.main(
            [
                "train",
                "--dataset",
                str(data),
                "--arch",
                "LSTM1",
                "--seed",
                "0",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "data error:" in err and "lane" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("change", ["stations", "cadence"])
    def test_eval_on_data_the_model_does_not_fit(self, ws, tmp_path, capsys, change):
        ds = load_csv(ws["data"])
        if change == "stations":
            ds = replace(
                ds,
                flows=np.vstack([ds.flows, ds.flows[:1]]),
                mask=np.vstack([ds.mask, ds.mask[:1]]),
                station_ids=ds.station_ids + ("extra",),
            )
        else:
            ds = replace(
                ds, flows=ds.flows[:, ::2], mask=ds.mask[:, ::2], points_per_day=144
            )
        data = tmp_path / "other.csv"
        save_csv(ds, data)
        rc = cli.main(
            [
                "eval",
                "--checkpoint",
                str(ws["checkpoint"]),
                "--dataset",
                str(data),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "data error:" in err and "the model fits 3 stations at 288" in err
        assert "Traceback" not in err

    def test_missing_checkpoint_file(self, ws, tmp_path):
        rc = cli.main(
            [
                "eval",
                "--checkpoint",
                str(tmp_path / "nope.npz"),
                "--dataset",
                str(ws["data"]),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 2

    def test_corrupt_checkpoint(self, ws, tmp_path):
        bogus = tmp_path / "bogus.npz"
        bogus.write_text("hello")
        rc = cli.main(
            [
                "eval",
                "--checkpoint",
                str(bogus),
                "--dataset",
                str(ws["data"]),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "damage",
        [
            lambda m: m.update(start_date="someday"),
            lambda m: m["params"][0].pop("sha256"),
            lambda m: m.update(stats={"mean": [1]}),
            lambda m: m.update(window={"n": "x"}),
            lambda m: m.update(ranges=5),
            lambda m: m.pop("arch"),
        ],
        ids=["start_date", "params_sha256", "stats", "window", "ranges", "arch"],
    )
    def test_malformed_manifest_field(self, ws, tmp_path, capsys, damage):
        def rewrite_manifest(payload):
            manifest = json.loads(str(payload["manifest"]))
            damage(manifest)
            payload["manifest"] = np.asarray(json.dumps(manifest))
            return payload

        damaged = tmp_path / "damaged.npz"
        rewrite(ws["checkpoint"], damaged, rewrite_manifest)
        rc = cli.main(
            [
                "eval",
                "--checkpoint",
                str(damaged),
                "--dataset",
                str(ws["data"]),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "data error:" in err and "manifest" in err
        assert "Traceback" not in err

    def test_ranges_unlike_the_stats_rejected(self, ws, tmp_path, capsys):
        # The training days are recorded twice, as ranges[0] and as the
        # stats' train_days; ranges that disagree would score training and
        # validation days as test days.
        def shift_ranges(payload):
            manifest = json.loads(str(payload["manifest"]))
            manifest["ranges"] = [[0, 6], [6, 8], [8, 14]]
            payload["manifest"] = np.asarray(json.dumps(manifest))
            return payload

        damaged = tmp_path / "shifted.npz"
        rewrite(ws["checkpoint"], damaged, shift_ranges)
        args = ["eval", "--checkpoint", str(damaged), "--dataset", str(ws["data"])]
        assert cli.main(args + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: manifest ranges") and err.count("\n") == 1, err
        assert "[0, 12]" in err

    def test_text_parameter_array_rejected(self, ws, tmp_path):
        # run as a user would, so an uncaught exception would show as a
        # traceback and exit status 1
        def to_text(payload):
            payload["param/head.b"] = np.array(["abc"] * payload["param/head.b"].size)
            return payload

        damaged = tmp_path / "text.npz"
        rewrite(ws["checkpoint"], damaged, to_text)
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        command = ["eval", "--checkpoint", str(damaged), "--dataset", str(ws["data"])]
        proc = subprocess.run(
            [sys.executable, "-m", "flowcast.cli", *command, "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("data error: checkpoint integrity check failed")
        assert "head.b: dtype <U3, expected float64" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    @pytest.mark.parametrize(
        "table, message",
        [
            ({"days": 20}, "has 20 days from 2019-01-07"),
            ({"start_date": dt.date(2020, 3, 4)}, "has 14 days from 2020-03-04"),
        ],
        ids=["longer", "shifted"],
    )
    def test_checkpoint_bound_to_its_table(
        self, ws, tmp_path, capsys, command, table, message
    ):
        data = tmp_path / "other.csv"
        save_csv(generate(SynthConfig(**{"p": 3, "days": 14, "seed": 3, **table})), data)
        args = [command, "--checkpoint", str(ws["checkpoint"]), "--dataset", str(data)]
        if command == "eval":
            args += ["--views", "overall,weekday"]
        else:
            args += ["--impute", "mean", "--ratios", "0,0.1", "--seed", "0"]
        assert cli.main(args + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1, err
        assert "trained on 14 days from 2019-01-07" in err and message in err
        assert "Traceback" not in err

    def test_sweep_grid_must_start_at_zero(self, ws, tmp_path):
        rc = cli.main(
            [
                "sweep",
                "--checkpoint",
                str(ws["checkpoint"]),
                "--dataset",
                str(ws["data"]),
                "--ratios",
                "0.1,0.2",
                "--seed",
                "0",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 2


class TestNumericErrors:
    def test_numeric_failures_exit_three(self, monkeypatch, capsys):
        def boom(args, config):
            raise NumericError("training diverged")

        monkeypatch.setattr(cli, "cmd_train", boom)
        assert cli.main(["train"]) == 3
        assert "numeric error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    @pytest.mark.parametrize(
        "value, code, message",
        [
            (np.nan, 2, "data error: checkpoint integrity check failed"),
            (1e300, 3, "numeric error: scored cells give non-finite error sums"),
        ],
        ids=["nan", "overflow"],
    )
    def test_non_finite_scores_are_loud(
        self, ws, tmp_path, capsys, command, value, code, message
    ):
        # saved through save_checkpoint, so every hash agrees with the weight
        trained = load_checkpoint(ws["checkpoint"])
        trained.model.head.W.data[0, 0] = value
        bad = tmp_path / "bad.npz"
        save_checkpoint(bad, trained)
        args = TestArgumentErrors.command_args({**ws, "checkpoint": bad}, command)
        assert cli.main(args + ["--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err, err
        assert not list(tmp_path.glob("out/*"))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestWorkerErrors:
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_a_dead_worker_exits_three(self, ws, tmp_path, capsys, monkeypatch, alarm, command):
        # The weekly stream of train, or a test-scope sweep's forked share
        # (ratio 0 and the second injected point), dies without replying, as
        # when the kernel kills it for memory.
        use_cores(monkeypatch, 2)
        parent = os.getpid()
        module, name = {"train": (training, "apply_topology"),
                        "sweep": (imputation, "inject_missing")}[command]
        original = getattr(module, name)

        def dies_in_a_child(*args):
            if os.getpid() != parent:
                os._exit(1)
            return original(*args)

        monkeypatch.setattr(module, name, dies_in_a_child)
        args = TestArgumentErrors.command_args(ws, command)
        if command == "sweep":
            args[args.index("--ratios") + 1] = "0,0.1,0.2"
        assert cli.main(args + ["--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err == "worker error: a forked worker ended without replying\n", err


class TestSynth:
    def test_deterministic_for_a_seed(self, ws, tmp_path):
        paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
        for path, seed in zip(paths, ("7", "7", "8")):
            rc = cli.main(
                [
                    "synth",
                    "--config",
                    str(ws["cfg"]),
                    "--seed",
                    seed,
                    "--out",
                    str(path),
                ]
            )
            assert rc == 0
        digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in paths]
        assert digests[0] == digests[1]
        assert digests[0] != digests[2]

    def test_days_control_row_count(self, ws):
        lines = ws["data"].read_text().splitlines()
        assert len(lines) == 1 + 14 * 288

    def test_round_trips_through_loader(self, ws):
        ds = load_csv(ws["data"])
        assert ds.num_stations == 3
        assert ds.num_timestamps == 14 * 288
        assert not ds.mask.all()
        assert (ws["root"] / "data.csv.meta.json").exists()


class TestTrain:
    def test_artifact_layout(self, ws):
        assert ws["checkpoint"].exists()
        assert (ws["out"] / "logs" / "LSTM1_mean_seed0.jsonl").exists()
        metrics = ws["out"] / "metrics.csv"
        first, second = provenance_lines(metrics)
        assert first == f"# flowcast {VERSION}"
        assert second.startswith("# config sha256 ")
        assert len(second.split()[-1]) == 64
        header = metrics.read_text().splitlines()[2]
        assert header == "arch,impute," + ",".join(cli.SUMMARY_KEYS)
        rows = read_rows(metrics)
        assert len(rows) == 1
        assert rows[0][:2] == ["LSTM1", "mean"]
        for cell in rows[0][2:]:
            float(cell)

    def test_rerun_is_byte_identical(self, ws, tmp_path):
        args = [
            "train",
            "--config",
            str(ws["cfg"]),
            "--dataset",
            str(ws["data"]),
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
        assert first == second
        reference = (ws["out"] / "metrics.csv").read_bytes()
        assert first == reference

    def test_digest_covers_flags_over_config(self, ws, tmp_path):
        args = [
            "train",
            "--config",
            str(ws["cfg"]),
            "--dataset",
            str(ws["data"]),
            "--arch",
            "LSTM1",
            "--impute",
            "mean",
            "--seed",
            "1",
            "--runs",
            "1",
            "--out",
            str(tmp_path),
        ]
        assert cli.main(args) == 0
        seed0 = provenance_lines(ws["out"] / "metrics.csv")[1]
        seed1 = provenance_lines(tmp_path / "metrics.csv")[1]
        assert seed0 != seed1

    def test_declared_types_keep_their_hash(self, ws):
        # the digest of a config whose values have their declared types
        digest = "70661472f2a82263fa81ab3c82c207074b174ab686674244a79b4453037335cf"
        assert provenance_lines(ws["out"] / "metrics.csv")[1] == f"# config sha256 {digest}"

    def test_integral_float_setting_hashes_like_the_float(self, ws, tmp_path):
        outs = []
        for l2 in ("0", "0.0"):
            cfg = tmp_path / f"cfg-{l2}.json"
            train = f'{{"max_epochs": 1, "l2": {l2}}}'
            cfg.write_text(f'{{"config_version": 1, "train": {train}}}')
            out = tmp_path / l2
            args = ["train", "--config", str(cfg), "--dataset", str(ws["data"])]
            assert cli.main(args + ["--arch", "LSTM1", "--seed", "0", "--out", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()

    def test_writes_each_run_as_it_finishes(self, ws, tmp_path, monkeypatch):
        original = training.train
        calls = []

        def second_run_diverges(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise NumericError("training diverged: loss nan at epoch 1")
            return original(*args, **kwargs)

        monkeypatch.setattr(training, "train", second_run_diverges)
        args = ["train", "--config", str(ws["cfg"]), "--dataset", str(ws["data"])]
        args += ["--arch", "LSTM1", "--seed", "0,1", "--out", str(tmp_path)]
        assert cli.main(args) == 3
        assert (tmp_path / "checkpoints" / "LSTM1_mean_seed0.npz").exists()
        assert (tmp_path / "logs" / "LSTM1_mean_seed0.jsonl").exists()
        assert not (tmp_path / "checkpoints" / "LSTM1_mean_seed1.npz").exists()
        assert not (tmp_path / "metrics.csv").exists()

    def test_architectures_share_one_prepared_table(self, ws, tmp_path, monkeypatch):
        original = training.prepare_data
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(training, "prepare_data", counted)
        args = ["train", "--config", str(ws["cfg"]), "--dataset", str(ws["data"])]
        args += ["--arch", "LSTM1,LSTM2", "--seed", "0,1", "--out", str(tmp_path)]
        assert cli.main(args) == 0
        assert len(calls) == 1
        assert len(list((tmp_path / "checkpoints").iterdir())) == 4
        assert [row[0] for row in read_rows(tmp_path / "metrics.csv")] == ["LSTM1", "LSTM2"]

    def test_one_core_writes_the_bytes_of_two(self, ws, tmp_path, monkeypatch, capsys):
        # With a second usable core, each run forks a worker that computes its
        # weekly stream; one core computes every stream in this process.
        data = tmp_path / "wide.csv"
        save_csv(generate(SynthConfig(p=4, days=14, seed=3)), data)
        args = ["train", "--config", str(ws["cfg"]), "--dataset", str(data)]
        args += ["--arch", "LSTM2,LSTM1-SP-CNN1", "--seed", "0,1", "--out", "out"]
        forks = counted_forks(monkeypatch)
        outputs = []
        for name, cores in (("two-cores", 2), ("one-core", 1)):
            use_cores(monkeypatch, cores)
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            assert cli.main(args) == 0
            files = {}
            for path in sorted(Path("out").rglob("*")):
                if path.suffix == ".jsonl":
                    lines = [json.loads(line) for line in path.read_text().splitlines()]
                    lines[-1].pop("wall_time")
                    files[str(path)] = lines
                elif path.is_file():
                    files[str(path)] = path.read_bytes()
            outputs.append((files, capsys.readouterr().out))
            assert len(forks) == 4
        assert outputs[0] == outputs[1]
        assert len([f for f in outputs[0][0] if f.endswith(".npz")]) == 4

    def test_log_lines_parse(self, ws):
        lines = (ws["out"] / "logs" / "LSTM1_mean_seed0.jsonl").read_text().splitlines()
        entries = [json.loads(line) for line in lines]
        assert [e["epoch"] for e in entries[:-1]] == [1, 2]
        assert "checkpoint_id" in entries[-1]


class TestEval:
    def run_eval(self, ws, out, views=None):
        args = [
            "eval",
            "--checkpoint",
            str(ws["checkpoint"]),
            "--dataset",
            str(ws["data"]),
            "--out",
            str(out),
        ]
        if views:
            args += ["--views", views]
        assert cli.main(args) == 0
        return out

    def test_default_is_single_overall_row(self, ws, tmp_path):
        out = self.run_eval(ws, tmp_path)
        rows = read_rows(out / "eval_report.csv")
        assert len(rows) == 1
        assert rows[0][0] == "overall"

    def test_station_view_has_one_row_per_station(self, ws, tmp_path):
        out = self.run_eval(ws, tmp_path, views="station")
        rows = read_rows(out / "eval_report.csv")
        assert len(rows) == 3
        assert all(row[0] == "station" for row in rows)
        assert [row[1] for row in rows] == ["synth000", "synth001", "synth002"]

    def test_combined_views_row_counts(self, ws, tmp_path):
        out = self.run_eval(ws, tmp_path, views="overall,horizon")
        rows = read_rows(out / "eval_report.csv")
        assert len(rows) == 1 + 9
        assert sum(row[0] == "horizon" for row in rows) == 9

    def test_digest_hashes_dataset_content_not_path(self, ws, tmp_path):
        copy = tmp_path / "copy.csv"
        copy.write_bytes(ws["data"].read_bytes())
        Path(str(copy) + ".meta.json").write_bytes(
            Path(str(ws["data"]) + ".meta.json").read_bytes()
        )
        stamps = []
        for data in (ws["data"], copy, ws["complete"]):
            out = tmp_path / f"out-{len(stamps)}"
            args = ["eval", "--checkpoint", str(ws["checkpoint"]), "--dataset", str(data)]
            assert cli.main(args + ["--out", str(out)]) == 0
            stamps.append(provenance_lines(out / "eval_report.csv")[1])
        assert stamps[0] == stamps[1]
        assert stamps[0] != stamps[2]

    def test_views_all_is_every_view(self, ws, tmp_path):
        every = self.run_eval(ws, tmp_path / "all", views="all")
        listed = self.run_eval(ws, tmp_path / "listed", views=",".join(VIEWS))
        for name in ("eval_report.csv", "eval_report.json"):
            assert (every / name).read_bytes() == (listed / name).read_bytes()
        assert {row[0] for row in read_rows(every / "eval_report.csv")} == set(VIEWS)

    def test_json_report_carries_provenance(self, ws, tmp_path):
        out = self.run_eval(ws, tmp_path)
        payload = json.loads((out / "eval_report.json").read_text())
        stamp = payload["metadata"]["provenance"]
        assert stamp["flowcast"] == VERSION
        assert len(stamp["config_sha256"]) == 64
        assert "overall" in payload["views"]


class TestSweep:
    @pytest.mark.parametrize(
        "command, message",
        [
            (["--seed", "1,1"], "seeds (1, 1) repeat"),
            (["--seed", "0", "--ratios", "0,0.7"], "within [0, 0.5]"),
            (["--seed", "0", "--ratios", "0.1,0.2"], "must start at 0"),
            (["--scope", "all", "--arch", "LSTM1", "--seed", "0", "--ratios", "0,0.7"],
             "within [0, 0.5]"),
        ],
        ids=["test-seeds", "test-ratios", "test-grid", "all-ratios"],
    )
    def test_bad_arguments_rejected_before_anything_is_read_or_made(
        self, ws, tmp_path, monkeypatch, capsys, command, message
    ):
        reads = []
        for name in ("load_csv", "load_checkpoint"):
            monkeypatch.setattr(cli, name, lambda *a, _n=name: reads.append(_n))
        args = ["sweep", "--impute", "mean", "--dataset", str(ws["data"]), *command]
        if "all" not in command:
            args += ["--checkpoint", str(ws["checkpoint"])]
        assert cli.main(args + ["--out", str(tmp_path / "new_dir")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err, err
        assert reads == []
        assert not (tmp_path / "new_dir").exists()

    def test_one_core_writes_the_bytes_of_the_default(self, ws, tmp_path, monkeypatch, capsys):
        # A test-scope sweep shares its points among forked workers,
        # one per usable core; one core scores them all in this process.
        args = ["sweep", "--checkpoint", str(ws["checkpoint"]), "--dataset", str(ws["data"])]
        args += ["--impute", "all", "--ratios", "0,0.1,0.21", "--seed", "0,1,2"]
        outputs = []
        for name in ("default", "one-core"):
            if name == "one-core":
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            else:
                use_cores(monkeypatch, 2)  # so that the default forks, whatever the BLAS
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)  # stdout names the relative --out
            assert cli.main(args + ["--out", "out"]) == 0
            outputs.append((Path("out", "sweep.csv").read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert outputs[0][1].count("degradation at 21%") == 3

    def test_grid_layout(self, ws, tmp_path):
        rc = cli.main(
            [
                "sweep",
                "--checkpoint",
                str(ws["checkpoint"]),
                "--dataset",
                str(ws["data"]),
                "--impute",
                "mean,interp",
                "--ratios",
                "0,0.05,0.1",
                "--seed",
                "0,1",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        path = tmp_path / "sweep.csv"
        header = path.read_text().splitlines()[2]
        assert header == "ratio,method,mae_mean,mae_sd,rmse_mean,rmse_sd"
        rows = read_rows(path)
        assert [(row[1], row[0]) for row in rows] == [
            ("mean", "0.0"),
            ("mean", "0.05"),
            ("mean", "0.1"),
            ("interp", "0.0"),
            ("interp", "0.05"),
            ("interp", "0.1"),
        ]

    def test_zero_ratio_matches_eval_output(self, ws, tmp_path):
        evout = tmp_path / "ev"
        swout = tmp_path / "sw"
        assert (
            cli.main(
                [
                    "eval",
                    "--checkpoint",
                    str(ws["checkpoint"]),
                    "--dataset",
                    str(ws["data"]),
                    "--out",
                    str(evout),
                ]
            )
            == 0
        )
        assert (
            cli.main(
                [
                    "sweep",
                    "--checkpoint",
                    str(ws["checkpoint"]),
                    "--dataset",
                    str(ws["data"]),
                    "--impute",
                    "mean",
                    "--ratios",
                    "0,0.1",
                    "--seed",
                    "0,1",
                    "--out",
                    str(swout),
                ]
            )
            == 0
        )
        overall = next(
            row for row in read_rows(evout / "eval_report.csv") if row[0] == "overall"
        )
        zero = next(
            row
            for row in read_rows(swout / "sweep.csv")
            if row[0] == "0.0" and row[1] == "mean"
        )
        # The printed decimal strings must agree, not just the rounded values.
        assert zero[2] == overall[3]
        assert zero[4] == overall[4]
        assert zero[3] == "0.0"

    def test_integral_ratios_hash_like_floats(self, ws, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"config_version": 1, "sweep": {"ratios": [0, 0.1]}}))
        common = ["sweep", "--checkpoint", str(ws["checkpoint"]), "--dataset", str(ws["data"])]
        common += ["--impute", "mean", "--seed", "0,1"]
        flag, config = tmp_path / "flag", tmp_path / "config"
        assert cli.main(common + ["--ratios", "0,0.1", "--out", str(flag)]) == 0
        assert cli.main(common + ["--config", str(cfg), "--out", str(config)]) == 0
        assert (flag / "sweep.csv").read_bytes() == (config / "sweep.csv").read_bytes()

    def test_all_scope_runs_once_per_seed_whatever_train_runs_says(self, ws, tmp_path):
        outs = []
        for name, train in (("runs", {"max_epochs": 1, "runs": 3}), ("plain", {"max_epochs": 1})):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"config_version": 1, "train": train}))
            args = ["sweep", "--config", str(cfg), "--dataset", str(ws["data"])]
            args += ["--scope", "all", "--arch", "LSTM1", "--impute", "mean"]
            args += ["--ratios", "0,0.1", "--seed", "0,1", "--out", str(tmp_path / name)]
            assert cli.main(args) == 0
            outs.append((tmp_path / name / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_zero_ratio_identical_across_methods_on_complete_data(self, ws, tmp_path):
        rc = cli.main(
            [
                "sweep",
                "--checkpoint",
                str(ws["checkpoint"]),
                "--dataset",
                str(ws["complete"]),
                "--impute",
                "all",
                "--ratios",
                "0",
                "--seed",
                "0",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        rows = read_rows(tmp_path / "sweep.csv")
        assert [row[1] for row in rows] == ["mean", "median", "interp"]
        assert len({row[2] for row in rows}) == 1
        assert len({row[4] for row in rows}) == 1


class TestCheckpointWindow:
    """eval and test-scope sweeps score with the checkpoint's window."""

    COMMANDS = {
        "eval": ["eval", "--views", "all"],
        "sweep": ["sweep", "--impute", "all", "--ratios", "0,0.1", "--seed", "0"],
    }

    def run(self, ws, tmp_path, command, window):
        args = self.COMMANDS[command] + ["--checkpoint", str(ws["checkpoint"])]
        args += ["--dataset", str(ws["data"])]
        if window is not None:
            tmp_path.mkdir(exist_ok=True)
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"config_version": 1, "window": window}))
            args += ["--config", str(cfg)]
        out = tmp_path / "out"
        return cli.main(args + ["--out", str(out)]), out

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "window, named",
        [({"h": 3}, "'h': 3"), ({"h": "x"}, "'x'"), ({"n": 0}, "n=0")],
        ids=["other-horizon", "text-horizon", "zero-length"],
    )
    def test_window_unlike_the_checkpoint_is_a_usage_error(
        self, ws, tmp_path, capsys, command, window, named
    ):
        rc, out = self.run(ws, tmp_path, command, window)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1, err
        assert named in err and "'h': 9" in err and str(ws["checkpoint"]) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("window", [{}, {"n": 21, "h": 9}], ids=["empty", "same"])
    def test_window_equal_to_the_checkpoint_changes_nothing(
        self, ws, tmp_path, command, window
    ):
        rc, plain = self.run(ws, tmp_path / "plain", command, None)
        assert rc == 0
        rc, given = self.run(ws, tmp_path / "given", command, window)
        assert rc == 0
        files = sorted(path.name for path in plain.iterdir())
        assert files == sorted(path.name for path in given.iterdir())
        for name in files:
            assert (plain / name).read_bytes() == (given / name).read_bytes()


class TestBlasThreads:
    """``import flowcast`` before numpy runs numpy on one BLAS thread, the
    one count under which every CLI output is written."""

    @staticmethod
    def python(args, cwd, **variables):
        """Run ``python args`` with the package on the path and, of the BLAS
        thread variables, only ``variables`` set; its stdout."""
        env = {
            key: value
            for key, value in os.environ.items()
            if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        }
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            env={**env, **variables},
            cwd=cwd,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_outputs_do_not_depend_on_the_blas_variables(self, tmp_path):
        # Two OpenBLAS threads round some matrix products differently from one.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"config_version": 1, "train": {"max_epochs": 2}}))
        data = tmp_path / "data.csv"
        save_csv(generate(SynthConfig(p=4, days=20, seed=3)), data)
        checkpoint = Path("out", "checkpoints", "LSTM2-SP-CNN3_mean_seed0.npz")
        commands = [
            ["train", "--arch", "LSTM2-SP-CNN3", "--impute", "mean", "--seed", "0"],
            ["eval", "--checkpoint", str(checkpoint)],
            ["sweep", "--checkpoint", str(checkpoint), "--impute", "mean", "--seed", "0,1,2"],
        ]
        common = ["--config", str(cfg), "--dataset", str(data), "--out", "out"]
        outputs = []
        for name, variables in (
            ("unset", {}),
            ("one", {"OPENBLAS_NUM_THREADS": "1"}),
            ("two", {"OPENBLAS_NUM_THREADS": "2"}),
        ):
            (tmp_path / name).mkdir()
            printed = [
                self.python(["-m", "flowcast.cli", *command, *common], tmp_path / name, **variables)
                for command in commands
            ]
            files = {}
            for path in sorted((tmp_path / name / "out").rglob("*")):
                if path.suffix == ".jsonl":
                    lines = [json.loads(line) for line in path.read_text().splitlines()]
                    lines[-1].pop("wall_time")
                    files[path.name] = lines
                elif path.is_file():
                    files[path.name] = path.read_bytes()
            outputs.append((files, printed))
        assert sorted(outputs[0][0]) == [
            "LSTM2-SP-CNN3_mean_seed0.jsonl",
            "LSTM2-SP-CNN3_mean_seed0.npz",
            "eval_report.csv",
            "eval_report.json",
            "metrics.csv",
            "sweep.csv",
        ]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_the_entry_point_forks_on_every_usable_core(self, tmp_path):
        code = (
            "import os, flowcast.cli; from flowcast import workers; "
            "print(workers._fork_cores(), len(os.sched_getaffinity(0)))"
        )
        forks, usable = self.python(["-c", code], tmp_path).split()
        assert forks == usable

    def test_a_caller_that_loaded_numpy_first_keeps_its_count(self, tmp_path):
        code = (
            "import os, numpy, flowcast; from flowcast import workers; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], workers._fork_cores())"
        )
        printed = self.python(["-c", code], tmp_path, OPENBLAS_NUM_THREADS="2")
        assert printed.split() == ["2", "1"]
