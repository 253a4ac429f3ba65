"""Tests for the fork rule and the one forked-worker type, and the fork
helpers that the sweep, training and CLI tests share."""

import errno
import os
import signal
import threading
import time

import pytest

from conftest import open_pipes
from flowcast import workers
from flowcast.errors import DataError, NumericError
from flowcast.workers import _fork_map, _Worker


def use_cores(monkeypatch, n):
    """Make ``n`` cores usable, as ``taskset`` would, in a process whose only
    threads are Python's, as under a one-thread BLAS."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(workers, "_process_threads", threading.active_count)


def counted_forks(monkeypatch):
    forks = []
    original = os.fork

    def fork():
        forks.append(os.getpid())
        return original()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def refused_forks(monkeypatch):
    """Make ``os.fork`` raise ``EAGAIN``, as it does when no process id is
    free; returns the pids that called it."""
    refused = []

    def fork():
        refused.append(os.getpid())
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", fork)
    return refused


def refused_pipes(monkeypatch, first):
    """Make ``os.pipe`` raise ``EMFILE`` from its ``first``-th call on, as it
    does when the process has no descriptor to spare; returns the pids of
    every call."""
    calls = []
    original = os.pipe

    def pipe():
        calls.append(os.getpid())
        if len(calls) >= first:
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        return original()

    monkeypatch.setattr(os, "pipe", pipe)
    return calls


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)


@pytest.fixture
def alarm():
    """Fail a test that waits a minute, on a child that should have ended."""

    def hung(signum, frame):
        raise TimeoutError("waited a minute on a forked worker")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkMap:
    # Ten items at three cores: shares 0, 3, 6, 9 and 1, 4, 7 go to two
    # children, forked in that order, and 2, 5, 8 stay in the parent. The
    # second child inherits the parent's ends of the first child's pipes.
    ITEMS = list(range(10))

    def test_three_cores_return_every_result_in_order(self, monkeypatch, alarm):
        use_cores(monkeypatch, 3)
        forks = counted_forks(monkeypatch)
        got = _fork_map(lambda item: (item * item, os.getpid()), self.ITEMS)
        assert [square for square, _ in got] == [item * item for item in self.ITEMS]
        pids = [pid for _, pid in got]
        assert forks == [os.getpid()] * 2
        assert len(set(pids)) == 3
        assert [pids[i] for i in (2, 5, 8)] == [os.getpid()] * 3
        for share in (0, 1):
            assert len({pids[i] for i in self.ITEMS[share::3]}) == 1
        assert_no_child()

    @pytest.mark.parametrize(
        "failing, share",
        [
            ({3: DataError, 4: NumericError, 5: ValueError}, 0),
            ({4: NumericError, 6: DataError, 8: ValueError}, 1),
            ({2: ValueError, 7: NumericError, 9: DataError}, 2),
        ],
        ids=["first-child", "second-child", "parent"],
    )
    def test_the_earliest_failure_of_three_shares_is_raised(
        self, monkeypatch, alarm, failing, share
    ):
        use_cores(monkeypatch, 3)

        def fn(item):
            if item in failing:
                raise failing[item](f"item {item} failed in {os.getpid()}")
            return item

        first = min(failing)
        with pytest.raises(failing[first], match=f"^item {first} failed in ") as raised:
            _fork_map(fn, self.ITEMS)
        pid = int(str(raised.value).rsplit(" ", 1)[1])
        assert (pid == os.getpid()) == (share == 2)
        assert first % 3 == share
        assert_no_child()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    @pytest.mark.parametrize("first", [1, 2], ids=["first-pipe", "second-pipe"])
    def test_a_refused_pipe_computes_here(self, monkeypatch, first):
        # The pipe to the child, or the one back, cannot be made: no share is
        # forked, and the parent computes every item, in order.
        use_cores(monkeypatch, 2)
        forks = counted_forks(monkeypatch)
        calls = refused_pipes(monkeypatch, first)
        before = open_pipes()
        got = _fork_map(lambda item: (item * item, os.getpid()), self.ITEMS)
        assert got == [(item * item, os.getpid()) for item in self.ITEMS]
        assert open_pipes() == before
        assert calls == [os.getpid()] * first
        assert forks == []
        assert_no_child()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestWorker:
    def test_tell_and_reply_run_both_ways(self, alarm):
        def serve(worker):
            while True:
                try:
                    message = worker.reply()
                except ChildProcessError:  # the parent closed its pipe
                    return
                worker.tell((message, os.getpid()))

        with _Worker(serve) as worker:
            for message in ("a", 2, [3.0]):
                worker.tell(message)
                assert worker.reply() == (message, worker.pid)
        assert_no_child()

    def test_a_reply_that_is_an_exception_is_raised_here(self, alarm):
        with _Worker(lambda w: w.tell(NumericError(f"failed in {os.getpid()}"))) as worker:
            with pytest.raises(NumericError, match="^failed in ") as raised:
                worker.reply()
        assert str(raised.value) == f"failed in {worker.pid}"
        assert_no_child()

    def test_a_child_that_ends_without_replying_raises(self, alarm):
        with pytest.raises(ChildProcessError, match="^a forked worker ended without replying$"):
            with _Worker(lambda w: os._exit(1)) as worker:
                worker.reply()
        assert_no_child()

    def test_a_raising_block_kills_the_child(self, alarm):
        with pytest.raises(DataError, match="^the block failed$"):
            with _Worker(lambda w: time.sleep(120)):
                raise DataError("the block failed")
        assert_no_child()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_a_refused_fork_leaves_no_pipe_open(self, monkeypatch):
        refused = refused_forks(monkeypatch)
        before = len(os.listdir("/proc/self/fd"))
        with _Worker(lambda w: None) as worker:
            assert worker.pid is None
        assert len(os.listdir("/proc/self/fd")) == before
        assert refused == [os.getpid()]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    @pytest.mark.parametrize("first", [1, 2], ids=["first-pipe", "second-pipe"])
    def test_a_refused_pipe_forks_nothing_and_leaves_no_pipe_open(self, monkeypatch, first):
        forks = counted_forks(monkeypatch)
        refused_pipes(monkeypatch, first)
        before = open_pipes()
        with _Worker(lambda w: None) as worker:
            assert worker.pid is None
        assert open_pipes() == before
        assert forks == []
