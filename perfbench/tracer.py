"""In-memory span tracer that wraps functions at their bindings.

`Tracer.span` replaces `owner.attr` (a module global or a class attribute)
with a wrapper that records a span [name, start, end, parent] in the
current run; `Tracer.count` replaces it with a wrapper that only counts
calls, for hot functions where a span per call would cost more than the
call. Every patched binding is put back by `restore`, which checks that it
was.

A span's parent is the index of the innermost open span on the same thread
or, for a worker thread with no open span, the innermost open span of the
thread that made the tracer (the call that submitted the work); -1 for
none.
"""
from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Any, Callable, Sequence

Span = list  # [name, start, end, parent index]


class Tracer:
    def __init__(self) -> None:
        self.runs: list[list[Span]] = []  # spans of each run; `next_run` opens one
        self.counts: Counter[str] = Counter()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self._patched: list[tuple[Any, str, Any]] = []
        self._lock = threading.Lock()

    def next_run(self) -> None:
        """Start recording a new run: an empty span list and zero counts."""
        self.runs.append([])
        self.counts.clear()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def span(self, owner: Any, attr: str, name: str, *,
             before: Callable[[tuple, dict], None] | None = None,
             after: Callable[[tuple, dict, Any], None] | None = None) -> None:
        """Record a span around every call of `owner.attr`.

        `before(args, kwargs)` runs ahead of the call and `after(args,
        kwargs, result)` once it has returned, both outside the span.
        """
        def make(fn):
            def traced(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                stack = self._stack()
                parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
                record = [name, time.perf_counter(), None, parent]
                with self._lock:
                    spans = self.runs[-1]
                    index = len(spans)
                    spans.append(record)
                stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    stack.pop()
                if after is not None:
                    after(args, kwargs, result)
                return result
            return traced
        self._patch(owner, attr, make)

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of `owner.attr` without recording spans."""
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        self._patch(owner, attr, make)

    def restore(self) -> None:
        """Put back every patched binding, newest first, and verify it."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"binding {owner!r}.{attr} was not restored")

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("run\tname\tstart\tend\tparent\n")
            for run_id, spans in enumerate(self.runs):
                for name, start, end, parent in spans:
                    handle.write(f"{run_id}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def durations(spans: Sequence[Span], name: str) -> list[float]:
    return [end - start for n, start, end, _ in spans if n == name]


def self_times(spans: Sequence[Span]) -> Counter[str]:
    """Sum of self time per span name.

    Self time is a span's duration minus the part of its interval that its
    child spans cover; overlapping children (worker threads) count once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: Counter[str] = Counter()
    for index, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[name] += (end - start) - covered
    return totals


def inclusive_without(spans: Sequence[Span], name: str, excluded: str) -> float:
    """Total duration of `name` spans minus their `excluded` descendants."""
    tops = {i for i, span in enumerate(spans) if span[0] == name}
    total = 0.0
    for index, (n, start, end, parent) in enumerate(spans):
        if index in tops:
            total += end - start
        elif n == excluded:
            while parent >= 0 and parent not in tops:
                parent = spans[parent][3]
            if parent >= 0:
                total -= end - start
    return total
