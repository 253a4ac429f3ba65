"""Outside-in span tracer for the flowcast benchmark.

The tracer replaces a library function where another module has bound it
(``hybrid.lstm_layer``, ``training.backward``, ...) with a wrapper that
records one span per call: name, start, end, parent span and the job it
belongs to. Nothing inside ``src/`` changes; ``uninstall`` puts every
original back. Spans stay in memory and are summarised when the run ends.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    parent: int
    job: int
    end: float = 0.0
    error: bool = False
    mark_start: int = 0
    mark_end: int = 0
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Binding:
    """Where a function is looked up at call time, and the span it records."""

    span: str
    module: object
    attr: str
    count: Callable | None = None  # result -> {counter: value}


class Tracer:
    """Records nested spans around patched module attributes.

    ``mark`` is read at the start and end of every span; the benchmark
    passes a reader of the autodiff node counter so that graph nodes per
    training step can be counted from node ids.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter, mark=None):
        self.clock = clock
        self.mark = mark or (lambda: 0)
        self.spans: list[Span] = []
        self.job = 0
        self.gc_s = 0.0
        self.gc_collections = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._last_error: BaseException | None = None
        self._gc_started = 0.0
        self.started = 0.0
        self.stopped = 0.0

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        spans, stack, clock, mark = self.spans, self._stack, self.clock, self.mark

        def traced(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else -1, self.job)
            span.mark_start = mark()
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # Count an exception once, at the innermost span it leaves.
                if exc is not self._last_error:
                    span.error = True
                    self._last_error = exc
                raise
            finally:
                stack.pop()
                span.mark_end = mark()
                span.end = clock()
            if count is not None:
                span.counts = count(result)
            return result

        return traced

    def install(self, bindings) -> None:
        """Patch every binding and start collecting GC time."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for b in bindings:
            original = getattr(b.module, b.attr)
            self._patches.append((b.module, b.attr, original))
            setattr(b.module, b.attr, self.wrap(b.span, original, b.count))
        gc.callbacks.append(self._on_gc)
        self.started = self.clock()

    def uninstall(self) -> None:
        self.stopped = self.clock()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = self.clock()
        else:
            self.gc_s += self.clock() - self._gc_started
            self.gc_collections += 1

    # -- summaries -------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        own = np.array([s.end - s.start for s in self.spans])
        out = own.copy()
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def untracked_s(self) -> float:
        """Wall time between install and uninstall that no span covers."""
        top = sum(s.end - s.start for s in self.spans if s.parent < 0)
        return (self.stopped - self.started) - top

    def by_name(self) -> dict[str, dict]:
        """Self seconds, calls and per-call self-time quantiles per span name."""
        selfs = self.self_times()
        groups: dict[str, list[int]] = {}
        for i, s in enumerate(self.spans):
            groups.setdefault(s.name, []).append(i)
        out = {}
        for name, idx in groups.items():
            per_call = selfs[idx]
            out[name] = {
                "self_s": float(per_call.sum()),
                "calls": len(idx),
                "p50_ms": float(np.percentile(per_call, 50)) * 1e3,
                "p90_ms": float(np.percentile(per_call, 90)) * 1e3,
            }
        return out

    def errors_by_module(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.spans:
            module = s.name.split(".", 1)[0]
            out[module] = out.get(module, 0) + int(s.error)
        return out
