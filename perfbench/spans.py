"""Span recording from outside the program.

:class:`Recorder` replaces module or class attributes of the program
with thin wrappers that record a span (name, start, end, parent) around
each call, and puts the originals back on :meth:`Recorder.restore`.
Spans stay in memory; :func:`layer_totals` reduces them to per-name
call counts, inclusive time and self time (inclusive time minus the
part its child spans cover).
"""

from __future__ import annotations

import functools
import time

perf_counter = time.perf_counter

# span record layout: [name, start, end, parent_index, request_id]
NAME, START, END, PARENT, RID = range(5)


class Recorder:
    """Wraps callables so each call records a nested span.

    Nesting follows the call stack of the one thread that runs the
    in-process workloads.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = getattr(owner, attr)
        spans = self.spans
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = [name, perf_counter(), 0.0, stack[-1] if stack else None, None]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                return original(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back (last wrapped first)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer_totals(
    spans: list[list], lo: int = 0, hi: int | None = None
) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total`` and ``self`` seconds.

    ``lo``/``hi`` restrict the reduction to ``spans[lo:hi]`` (parents
    stay absolute indices).
    Self time subtracts the union of the child intervals, clipped to the
    parent, so overlapping children (concurrent work under one parent)
    are not subtracted twice.  ``root_total`` sums only spans without a
    parent.
    """
    hi = len(spans) if hi is None else hi
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans[lo:hi]:
        parent = rec[PARENT]
        if parent is not None:
            children.setdefault(parent, []).append((rec[START], rec[END]))
    out: dict[str, dict[str, float]] = {}
    for i in range(lo, hi):
        rec = spans[i]
        start, end = rec[START], rec[END]
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        row = out.setdefault(
            rec[NAME], {"calls": 0, "total": 0.0, "self": 0.0, "root_total": 0.0}
        )
        row["calls"] += 1
        row["total"] += end - start
        row["self"] += end - start - covered
        if rec[PARENT] is None:
            row["root_total"] += end - start
    return out
