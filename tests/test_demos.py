"""The demo scripts still run against the package they demonstrate.

The quick demos run end to end in a subprocess, as a reader would run them.
The slow ones train models for minutes, so for those only the names they
import from flowcast are resolved.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowcast

DEMOS = Path(__file__).resolve().parents[1] / "demos"
QUICK = ["autodiff_tour", "architectures", "imputation_walkthrough"]
SLOW = ["quickstart", "robustness_curve", "cli_session"]


@pytest.mark.parametrize("name", QUICK)
def test_quick_demo_runs(name, tmp_path):
    env = dict(os.environ)
    src = str(Path(flowcast.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def flowcast_imports(path):
    """Every ``from flowcast... import ...`` statement of a script."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "flowcast"
    ]


@pytest.mark.parametrize("name", SLOW)
def test_slow_demo_imports_resolve(name):
    statements = flowcast_imports(DEMOS / f"{name}.py")
    assert statements
    for node in statements:
        code = compile(ast.Module(body=[node], type_ignores=[]), name, "exec")
        exec(code, {})
