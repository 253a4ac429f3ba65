"""Self-tests for the benchmark: the tracer's accounting and tiny runs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import bench
from tracer import Binding, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class FakeClock:
    """Advances by one second per reading, so every duration is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def fake_module():
    mod = types.SimpleNamespace()
    mod.leaf = lambda x: x + 1
    mod.middle = lambda x: mod.leaf(x) + mod.leaf(x)
    mod.outer = lambda x: mod.middle(x) * 2

    def boom(x):
        raise ValueError("boom")

    mod.boom = boom
    mod.calls_boom = lambda x: mod.boom(x)
    return mod


def install(mod, clock=None) -> Tracer:
    tracer = Tracer(clock=clock or FakeClock())
    tracer.install(
        [
            Binding(f"fake.{name}", mod, name)
            for name in ("leaf", "middle", "outer", "boom", "calls_boom")
        ]
    )
    return tracer


def test_self_times_and_untracked_sum_to_wall_time():
    mod = fake_module()
    tracer = install(mod)
    assert mod.outer(1) == 8
    tracer.clock()  # time outside any span
    assert mod.leaf(1) == 2
    tracer.uninstall()
    selfs = tracer.self_times()
    wall = tracer.stopped - tracer.started
    assert selfs.sum() + tracer.untracked_s() == wall
    assert tracer.untracked_s() > 0
    stats = tracer.by_name()
    assert stats["fake.leaf"]["calls"] == 3
    assert stats["fake.outer"]["calls"] == 1
    # outer's duration covers middle's, which covers two leaves
    outer = next(s for s in tracer.spans if s.name == "fake.outer")
    middle = next(s for s in tracer.spans if s.name == "fake.middle")
    assert middle.parent == tracer.spans.index(outer)
    assert stats["fake.outer"]["self_s"] == (outer.end - outer.start) - (
        middle.end - middle.start
    )


def test_exception_is_counted_once_and_reraised():
    mod = fake_module()
    tracer = install(mod)
    with pytest.raises(ValueError, match="boom"):
        mod.calls_boom(1)
    tracer.uninstall()
    assert [s.error for s in tracer.spans] == [False, True]
    assert tracer.errors_by_module() == {"fake": 1}
    assert all(s.end > 0 for s in tracer.spans)


def test_uninstall_restores_the_original_functions():
    mod = fake_module()
    original = mod.leaf
    tracer = install(mod)
    assert mod.leaf is not original
    tracer.uninstall()
    assert mod.leaf is original


def write_checkpoint(directory: Path, scale: float) -> None:
    manifest = {"arch": "X", "flowcast_version": "0", "digest": str(scale),
                "stats": {"mean": [1.5, 2.5]},
                "params": [{"name": "w", "sha256": str(scale)}]}
    np.savez(directory / bench.CHECKPOINT, manifest=np.array(json.dumps(manifest)),
             **{"param/w": np.arange(1.0, 7.0).reshape(2, 3) * scale, "param/b": np.ones(2)})


def test_checkpoint_fingerprint_tolerates_rounding_only(tmp_path):
    write_checkpoint(tmp_path, 1.0)
    pinned = bench.checkpoint_fingerprint(tmp_path)
    assert pinned["params.count"] == 8 and pinned["manifest.stats.mean.1"] == 2.5
    assert not {"manifest.flowcast_version", "manifest.digest"} & set(pinned)
    write_checkpoint(tmp_path, 1.0 + 1e-13)  # last-digit change, new byte hashes
    assert bench.mismatches(pinned, bench.checkpoint_fingerprint(tmp_path), "ck") == []
    write_checkpoint(tmp_path, 1.001)
    found = bench.mismatches(pinned, bench.checkpoint_fingerprint(tmp_path), "ck")
    assert [f.split(":")[0] for f in found] == ["ck.params.abs_sum", "ck.params.sq_sum"]


def test_setup_s_averages_modes_and_drops_an_outlier():
    # A fast spell then a slow one: the median of single set-ups would be the
    # slow mode, 2.0; each group spans both spells.
    assert bench.setup_seconds([1.0] * 7 + [2.0] * 8) == pytest.approx(5 / 3)
    assert bench.setup_seconds([1.0] * 14 + [100.0]) == 1.0


def test_unreadable_node_counter_fails_instead_of_reading_zero(monkeypatch):
    assert bench.node_counter()() >= 0
    monkeypatch.setattr(bench.autodiff, "_node_ids", iter(range(3)))
    with pytest.raises(TypeError, match="_node_ids"):
        bench.node_counter()


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", ["train-p8", "sweep-p8", "baselines-p64"])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_at_tiny_size(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        assert result["metrics"]["ops_failed_ratio"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def copy_benchmark(tmp_path: Path, with_sources: bool) -> Path:
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src")
    return tmp_path


def test_wrong_output_fails_the_run(tmp_path):
    root = copy_benchmark(tmp_path, with_sources=True)
    refs_path = root / "perfbench" / "references.json"
    refs = json.loads(refs_path.read_text())
    refs["train-p8"]["tiny"]["0"]["outputs"]["train_loss"] *= 1.0001
    refs_path.write_text(json.dumps(refs))
    proc = run_bench("train-p8", 0, cwd=root)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert "train_loss" in proc.stderr


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    root = copy_benchmark(tmp_path, with_sources=False)
    proc = run_bench("train-p8", 0, cwd=root)
    assert proc.returncode != 0
    assert proc.stdout == ""
