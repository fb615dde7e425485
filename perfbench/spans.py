"""Span recording for the benchmark's traced run.

The traced run replaces methods at each layer boundary of the serving
stack with wrappers that record a span per call (name, start, end,
parent span, request id, rows), then puts the originals back.  Spans
live in memory and are written out when the run ends.  Nothing here
changes what the wrapped calls compute.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One span: (id, name, start, end, parent id, request id, rows).
Span = Tuple[int, str, float, float, Optional[int], Optional[int], int]


class Recorder:
    """Thread-aware span store; a thread's open spans form its stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Span id -> the interval of its wrapper, bookkeeping included.
        self.outer: Dict[int, Tuple[float, float]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        rid: Optional[int] = None,
        rows: int = 0,
    ) -> int:
        """Record a span whose times were taken elsewhere."""
        sid = next(self._ids)
        self.spans.append((sid, name, start, end, parent, rid, rows))
        return sid

    def wrap(
        self,
        fn: Callable,
        name: str,
        rows_of: Callable[..., int] = lambda *a, **k: 0,
    ) -> Callable:
        """``fn`` with a span around every call, nested under the
        calling thread's innermost open span.

        The span is the call of ``fn``; :attr:`outer` keeps the
        wrapper's interval, which adds the span's own bookkeeping.
        """

        def traced(*args, **kwargs):
            entered = time.perf_counter()
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                rid = getattr(self._local, "rid", None)
                rows = int(rows_of(*args, **kwargs))
                self.spans.append((sid, name, start, end, parent, rid, rows))
                self.outer[sid] = (entered, time.perf_counter())

        return traced

    def lock(self, lock, name: str) -> "TracedLock":
        """``lock`` with a span over every ``with`` block that holds
        it, from the wait for it to its release."""
        return TracedLock(self, lock, name)

    def call_as(self, rid: int, fn: Callable, *args):
        """Run ``fn(*args)`` with spans it opens tagged ``rid``."""
        self._local.rid = rid
        try:
            return fn(*args)
        finally:
            self._local.rid = None

    def write(self, path) -> None:
        """One JSON object per span; ``outer`` is the wrapper's
        interval where the span has one."""
        with open(path, "w") as out:
            for sid, name, start, end, parent, rid, rows in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": rid,
                            "rows": rows,
                            "outer": self.outer.get(sid),
                        }
                    )
                    + "\n"
                )


class TracedLock:
    """A lock used through ``with`` that records a span per hold."""

    def __init__(self, rec: Recorder, lock, name: str) -> None:
        self._rec, self._lock, self._name = rec, lock, name
        self._open = threading.local()

    def __enter__(self):
        entered = time.perf_counter()
        stack = self._rec._stack()
        parent = stack[-1] if stack else None
        sid = next(self._rec._ids)
        stack.append(sid)
        held = getattr(self._open, "held", None)
        if held is None:
            held = self._open.held = []
        start = time.perf_counter()
        self._lock.__enter__()
        held.append((sid, entered, start, parent))
        return self

    def __exit__(self, *exc):
        sid, entered, start, parent = self._open.held.pop()
        try:
            return self._lock.__exit__(*exc)
        finally:
            end = time.perf_counter()
            self._rec._stack().pop()
            rid = getattr(self._rec._local, "rid", None)
            self._rec.spans.append(
                (sid, self._name, start, end, parent, rid, 0)
            )
            self._rec.outer[sid] = (entered, time.perf_counter())


class Patches:
    """Attribute replacements that :meth:`restore` undoes."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, bool, object]] = []

    def wrap(self, owner, attr: str, make: Callable[[Callable], Callable]):
        own = vars(owner)
        had = attr in own
        self._undo.append((owner, attr, had, own.get(attr)))
        setattr(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> None:
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _children(
    spans: Sequence[Span], outer: Optional[Dict[int, Tuple[float, float]]]
) -> Dict[int, List[Tuple[float, float]]]:
    """Parent id -> its children's intervals; a child's ``outer``
    interval when it has one, so its bookkeeping counts as covered."""
    outer = outer or {}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append(outer.get(sid, (start, end)))
    return children


def self_times(
    spans: Sequence[Span], outer: Optional[Dict[int, Tuple[float, float]]] = None
) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, rows, total and self seconds.

    A span's self time is its duration minus the part of its interval
    that its child spans (their ``outer`` intervals, when given) cover.
    """
    children = _children(spans, outer)
    table: Dict[str, Dict[str, float]] = {}
    for sid, name, start, end, _, _, rows in spans:
        row = table.setdefault(
            name, {"calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0}
        )
        inner = covered(children.get(sid, ()), start, end)
        row["calls"] += 1
        row["rows"] += rows
        row["total_s"] += end - start
        row["self_s"] += (end - start) - inner
    return table


def coverage(
    spans: Sequence[Span],
    root: str,
    outer: Optional[Dict[int, Tuple[float, float]]] = None,
) -> Tuple[List[float], float]:
    """``(per-span shares, share of the summed time)`` that the
    children of the ``root`` spans cover."""
    children = _children(spans, outer)
    shares, inner, total = [], 0.0, 0.0
    for sid, name, start, end, _, _, _ in spans:
        if name == root and end > start:
            part = covered(children.get(sid, ()), start, end)
            shares.append(part / (end - start))
            inner += part
            total += end - start
    return shares, (inner / total if total else 0.0)


def render_table(table: Dict[str, Dict[str, float]]) -> List[str]:
    lines = [
        f"  {'span':<22} {'calls':>7} {'rows':>8} "
        f"{'total ms':>10} {'self ms':>10} {'self/call us':>13}"
    ]
    for name, row in sorted(
        table.items(), key=lambda kv: -kv[1]["self_s"]
    ):
        lines.append(
            f"  {name:<22} {row['calls']:>7d} {row['rows']:>8d} "
            f"{1e3 * row['total_s']:>10.1f} {1e3 * row['self_s']:>10.1f} "
            f"{1e6 * row['self_s'] / max(row['calls'], 1):>13.1f}"
        )
    return lines
