"""In-memory span tracing installed from the benchmark's own code.

:meth:`Tracer.wrap` replaces a public function or method of the program
with a wrapper that records a span (id, parent id, name, start, end,
extra) around each call.  Synchronous spans nest through a per-thread
stack, so a span's parent is the innermost wrapped call that caused it
on the same thread; coroutine spans (which interleave on an event loop)
are recorded without a parent.  Spans stay in memory until the run ends.

A layer's self time is its span's duration minus the durations of its
direct children, which on one thread nest strictly inside it.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
from collections import defaultdict
from time import perf_counter

ID, PARENT, NAME, START, END, EXTRA = range(6)


class Tracer:
    """Record spans around wrapped calls; undo every wrap on :meth:`restore`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, extra=None) -> None:
        """Trace ``owner.attr`` as span ``name``.

        ``extra(args, kwargs, result)``, when given, computes a value
        stored on the span after the call returns (row counts, solver
        statistics, ...).
        """
        original = getattr(owner, attr)
        spans = self.spans
        ids = self._ids

        if inspect.iscoroutinefunction(original):

            async def wrapper(*args, **kwargs):
                span = [next(ids), None, name, perf_counter(), 0.0, None]
                try:
                    result = await original(*args, **kwargs)
                finally:
                    span[END] = perf_counter()
                    spans.append(span)
                if extra is not None:
                    span[EXTRA] = extra(args, kwargs, result)
                return result

        else:
            stack_of = self._stack

            def wrapper(*args, **kwargs):
                stack = stack_of()
                span = [next(ids), stack[-1][ID] if stack else None, name,
                        perf_counter(), 0.0, None]
                stack.append(span)
                try:
                    result = original(*args, **kwargs)
                finally:
                    span[END] = perf_counter()
                    stack.pop()
                    spans.append(span)
                if extra is not None:
                    span[EXTRA] = extra(args, kwargs, result)
                return result

        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def named(spans, name: str) -> list:
    return [span for span in spans if span[NAME] == name]


def total_s(spans, name: str) -> float:
    return sum(span[END] - span[START] for span in spans if span[NAME] == name)


def self_times(spans) -> dict[str, float]:
    """Total self time per span name, in seconds."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[span[NAME]] += span[END] - span[START] - child_time.get(span[ID], 0.0)
    return dict(out)


def stage_table(spans, layer_of: dict[str, str], end_to_end_s: float):
    """Self time per layer plus an explicit ``unaccounted`` row.

    ``layer_of`` maps span names to layer (module) names.  The rows add
    up to ``end_to_end_s``: whatever the wrapped calls do not cover is
    the ``unaccounted`` row.  Returns ``(rows, unaccounted_share)``.
    """
    per_layer: dict[str, float] = defaultdict(float)
    for name, seconds in self_times(spans).items():
        per_layer[layer_of.get(name, name)] += seconds
    rows = sorted(per_layer.items(), key=lambda item: -item[1])
    unaccounted = end_to_end_s - sum(seconds for _, seconds in rows)
    rows.append(("unaccounted", unaccounted))
    return rows, unaccounted / end_to_end_s if end_to_end_s > 0 else 0.0


def format_stage_table(title: str, rows, total: float, unit: str = "s",
                       scale: float = 1.0) -> list[str]:
    lines = [title, f"  {'layer':<32} {'self ' + unit:>12} {'share':>7}"]
    for layer, seconds in rows:
        share = seconds / total if total > 0 else 0.0
        lines.append(f"  {layer:<32} {seconds * scale:>12.4f} {share:>7.1%}")
    lines.append(f"  {'end-to-end':<32} {total * scale:>12.4f} {1.0:>7.1%}")
    return lines
