"""Run the flowcast benchmark.

One workload:

    python3 perfbench/run.py --workload train-p8 --seed 3 --seconds 30 --trace 0

prints the run's details, then, as its last stdout line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. It exits 1 when
an output check fails and 2 when the benchmark cannot run at all.

With no ``--workload`` it runs every workload ``--runs`` times untraced and
once traced, and prints each metric by name with its unit: end-to-end metrics
as the median and quartiles over the runs.

Each run starts two fresh Python processes (bench.py): one generates the
inputs from the seed, one measures. Generation lives in its own process so
that its memory never counts towards ``peak_rss_mb``. The BLAS thread count
is fixed here, in the children's environment, before numpy loads. Results,
with their environment and input hash, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("train-p8", "sweep-p8", "baselines-p64")
# Seeds map onto this many input variants, each pinned in references.json
# with its input hash and outputs, so every seed has references to check.
VARIANTS = 16
REFERENCES = HERE / "references.json"
GENERATE_TIMEOUT_S = 40


class BenchError(Exception):
    pass


def child_env() -> dict:
    """Closed loop, one client: the measured process gets one BLAS thread."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(args: list[str], timeout: float) -> dict:
    """Run bench.py to completion; its last stdout line is its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "bench.py"), *args],
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"bench.py {args[0]} ran past {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"bench.py {args[0]} exited {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError(f"bench.py {args[0]} printed no result") from None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    return proc.stdout.strip() or None


def run_one(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """Generate inputs, measure, and record the detailed result."""
    if not (ROOT / "src" / "flowcast").is_dir():
        raise BenchError(f"no flowcast sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    directory = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT)
    try:
        launch(["generate", *common, "--dir", directory], GENERATE_TIMEOUT_S)
        # The timed phase overruns by at most half a round; start-up, the
        # topped-up set-ups and the checks fit in the rest.
        result = launch(
            ["run", *common, "--dir", directory, "--seconds", str(seconds),
             "--trace", str(trace)],
            seconds + 90,
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    result["env"]["git_commit"] = git_commit()
    name = f"{workload}-{size}-seed{seed}-trace{trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1))
    return result


def run_all(seed: int, seconds: float, runs: int, size: str) -> bool:
    """Every workload: ``runs`` untraced runs on consecutive seeds, then one
    traced run. Prints each metric with its unit; end-to-end metrics as the
    median and quartiles over the runs."""
    ok = True
    summary = {}
    for workload in WORKLOADS:
        values: dict[str, list] = {}
        units = {}
        for i in range(runs):
            result = run_one(workload, seed + i, seconds, 0, size)
            ok = ok and result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        traced = run_one(workload, seed, seconds, 1, size)
        ok = ok and traced["correct"]
        print(f"# {workload}: {runs} untraced runs from seed {seed}, one traced run")
        rows = summary[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if runs > 1 else vals * 3
            rows[name] = {"median": med, "q1": q1, "q3": q3, "unit": units[name]}
            print(f"{workload}\t{name}\t{med:.6g} [{q1:.6g}, {q3:.6g}]\t{units[name]}")
        for name, metric in traced["metrics"].items():
            rows[name] = metric
            print(f"{workload}\t{name}\t{metric['value']:.6g}\t{metric['unit']}")
    (OUT / "summary.json").write_text(json.dumps(summary, indent=1))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="flowcast benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--runs", type=int, default=1, help="untraced runs per workload, without --workload"
    )
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny is for self-tests"
    )
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    try:
        if not args.workload:
            return 0 if run_all(args.seed, seconds, args.runs, args.size) else 1
        result = run_one(args.workload, args.seed, seconds, args.trace, args.size)
        for problem in result["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
        print(json.dumps({"env": result["env"], "inputs": result["inputs_sha256"]}))
        keys = ("correct", "attempted", "failed", "metrics")
        print(json.dumps({key: result[key] for key in keys}))
        return 0 if result["correct"] else 1
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
