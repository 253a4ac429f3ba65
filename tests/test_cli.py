"""End-to-end exercises of the command-line entry point.

Commands run in-process through cli.main so exit codes and emitted files can
be checked directly against small synthetic workspaces.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from flowcast import cli
from flowcast.dataset import load_csv, save_csv
from flowcast.errors import NumericError
from flowcast.hybrid import ARCHITECTURES
from flowcast.version import VERSION

from test_checkpoint import rewrite
from test_dataset import write_seven_per_day_csv, write_two_per_day_csv


def read_rows(path):
    """Data rows of a metric CSV: comment lines and the header stripped."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def provenance_lines(path):
    return path.read_text().splitlines()[:2]


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
        ],
        ids=["train-seeds", "train-archs", "sweep-methods", "sweep-all-seeds", "sweep-seeds"],
    )
    def test_repeated_seed_or_name_rejected(self, ws, tmp_path, command, code, message):
        # Run as a user would, so an uncaught exception shows as a traceback.
        inputs = ["--dataset", str(ws["data"]), "--out", str(tmp_path / "out")]
        if command[0] == "sweep":
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

    def test_resolve_archs_all(self):
        assert cli._resolve_archs("all") == list(ARCHITECTURES)
        assert len(cli._resolve_archs("all")) == 12


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
            ]
        )
        assert rc == 2
        assert "data error:" in capsys.readouterr().err

    def test_table_past_the_last_date(self, tmp_path, capsys):
        data = write_two_per_day_csv(tmp_path / "late.csv", ["9999-12-31", "10000-01-01"])
        rc = cli.main(["train", "--dataset", str(data), "--arch", "LSTM1", "--seed", "0"])
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
        def boom(args):
            raise NumericError("training diverged")

        monkeypatch.setattr(cli, "cmd_train", boom)
        assert cli.main(["train"]) == 3
        assert "numeric error:" in capsys.readouterr().err


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

    def test_json_report_carries_provenance(self, ws, tmp_path):
        out = self.run_eval(ws, tmp_path)
        payload = json.loads((out / "eval_report.json").read_text())
        stamp = payload["metadata"]["provenance"]
        assert stamp["flowcast"] == VERSION
        assert len(stamp["config_sha256"]) == 64
        assert "overall" in payload["views"]


class TestSweep:
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
