"""Session fixtures shared by the slow acceptance checks.

Training the reference hybrid takes minutes, so the corpus and the trained
bundle are built once per session and reused by every test that needs them.
"""

import os

import pytest

from flowcast.synthgen import SynthConfig, generate
from flowcast.training import TrainConfig, train_once


@pytest.fixture(autouse=True)
def _no_child_left():
    """Fail a test that leaves a child process running or unreaped. The
    check reaps nothing (WNOWAIT), so it cannot steal a caller's status."""
    yield
    if not hasattr(os, "waitid"):
        return
    try:
        left = os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return
    state = "running" if left is None else f"unreaped (pid {left.si_pid})"
    pytest.fail(f"the test left a child process {state}")


@pytest.fixture(scope="session")
def accept_dataset():
    """Complete synthetic corpus: 8 stations, 60 days, no native holes."""
    return generate(SynthConfig(p=8, days=60, seed=11, native_missing_ratio=0.0))


@pytest.fixture(scope="session")
def accept_run(accept_dataset):
    """LSTM2-SP-CNN3 trained once on the corpus with default settings."""
    cfg = TrainConfig(max_epochs=30, runs=1, seeds=(0,))
    trained, log, prepared = train_once(
        "LSTM2-SP-CNN3", accept_dataset, "mean", cfg, seed=0
    )
    return {"trained": trained, "log": log, "prepared": prepared}
