"""Traced memory of one call, for the tests' memory gates."""

import tracemalloc


def traced_peak(fn):
    """Call ``fn()`` with tracemalloc on; return its result and the peak bytes
    traced above what was traced when it started.

    Traced bytes are deterministic, so a bound on them is a stable gate. Only
    allocations made inside the call count; ``fn`` may read and reset the
    peak itself (``tracemalloc.get_traced_memory``, ``reset_peak``).
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak
