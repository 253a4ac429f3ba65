"""Forked workers: the one fork rule and the one worker type.

A test-scope sweep shares its injected points out among forked children
(``_fork_map``), and training computes its weekly stream in a forked worker
(``training._LastStream``). Both ask ``_fork_cores`` whether to fork, and
both talk to their children through ``_Worker``: two pipes of pickled
messages, one child exit, and one kill-and-reap path.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading
from typing import Callable, Sequence


def _process_threads() -> int:
    """The threads this process runs: every one the system lists, so a BLAS
    library's own pool counts, else (with no ``/proc/self/task``) its Python
    threads."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _fork_cores() -> int:
    """How many processes may share this process's work: the cores it may run
    on (``os.sched_getaffinity``, so ``taskset -c 0`` gives 1) when it is
    single-threaded, else 1. It is 1 without ``os.fork`` or
    ``os.sched_getaffinity``, and with any other thread alive: a forked child
    copies only the calling thread, and a BLAS library that runs a pool of
    threads already uses the cores, so that two such processes crowd them
    (both ran about x1.8 slower on two cores with a two-thread OpenBLAS)."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if _process_threads() > 1:
        return 1
    return len(os.sched_getaffinity(0))


class _Worker:
    """A forked child that runs ``serve(worker)`` and then leaves at once,
    flushing no inherited buffer and running no exit handler.

    The two processes talk through two pipes of pickled messages: ``tell``
    sends one to the other side, and ``reply`` receives one, raising it if it
    is an exception. ``pid`` is None when ``os.fork`` raised ``OSError`` (no
    process to spare); the caller then does the work itself. On leaving its
    ``with`` block the child is killed if the block raised, then both pipes
    are closed and the child is reaped.
    """

    def __init__(self, serve: Callable[[_Worker], object]):
        self.pid = None
        down, up = os.pipe(), os.pipe()  # to the child, and back
        with contextlib.suppress(OSError):
            self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                os.close(down[1])
                os.close(up[0])
                self._send, self._receive = os.fdopen(up[1], "wb"), os.fdopen(down[0], "rb")
                serve(self)
                code = 0
            finally:
                os._exit(code)
        os.close(down[0])
        os.close(up[1])
        if self.pid is None:
            os.close(down[1])
            os.close(up[0])
        else:
            self._send, self._receive = os.fdopen(down[1], "wb"), os.fdopen(up[0], "rb")

    def __enter__(self) -> _Worker:
        return self

    def __exit__(self, kind, exc, traceback) -> None:
        if self.pid is None:
            return
        if kind is not None:
            os.kill(self.pid, signal.SIGKILL)
        with contextlib.suppress(BrokenPipeError):  # a write the child never read
            self._send.close()
        self._receive.close()
        os.waitpid(self.pid, 0)

    def tell(self, message) -> None:
        try:
            pickle.dump(message, self._send, pickle.HIGHEST_PROTOCOL)
            self._send.flush()
        except BrokenPipeError:
            raise ChildProcessError("a forked worker ended without replying") from None

    def reply(self):
        try:
            message = pickle.load(self._receive)
        except (EOFError, pickle.UnpicklingError):
            raise ChildProcessError("a forked worker ended without replying") from None
        if isinstance(message, Exception):
            raise message
        return message


def _run_share(fn: Callable, items: Sequence, share: range) -> tuple[list, tuple | None]:
    """``fn`` of each item of a share in order, up to its first failure: the
    results so far and, if an item raised, that item's index and exception."""
    done = []
    for index in share:
        try:
            done.append(fn(items[index]))
        except Exception as exc:
            return done, (index, exc)
    return done, None


def _fork_map(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]``, computed in forked children, one per
    usable core (``_fork_cores``), and returned in the items' order.

    The items are dealt into ``min(usable cores, len(items))`` interleaved
    shares. Each child (a ``_Worker``) computes one share and replies its
    results; the parent computes a smallest share itself, and any share whose
    ``os.fork`` raised ``OSError``, then takes every child's reply before it
    reaps any child. A share stops at its first failing item, and the
    exception of the earliest failing item is raised, with its own type and
    message, once every child is reaped. If the parent itself raises, or a
    child ends without replying, the children are killed first. With one
    usable core or one item the items are computed here, in order.
    """
    workers = min(_fork_cores(), len(items))
    if workers < 2:
        return [fn(item) for item in items]
    shares = [range(i, len(items), workers) for i in range(workers)]
    with contextlib.ExitStack() as stack:
        # Each child serves its share as soon as it is forked.
        children = [
            (share, stack.enter_context(_Worker(lambda w: w.tell(_run_share(fn, items, share)))))
            for share in shares[:-1]
        ]
        here = [shares[-1]] + [share for share, worker in children if worker.pid is None]
        outcomes = {share: _run_share(fn, items, share) for share in here}
        for share, worker in children:
            if worker.pid is not None:
                outcomes[share] = worker.reply()
    results = [None] * len(items)
    failures = []
    for share, (done, failed) in outcomes.items():
        for index, result in zip(share, done):
            results[index] = result
        if failed is not None:
            failures.append(failed)
    if failures:
        raise min(failures, key=lambda failed: failed[0])[1]
    return results
