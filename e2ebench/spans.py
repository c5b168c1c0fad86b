"""Span tracing from outside the program: wrap public functions, record
one span per call in memory, compute self times, export Chrome JSON.

The tracer patches module or class attributes in place (``wrap``) and
restores them on ``restore``; nothing under ``src/`` is edited.  A span
is ``(name, start, end, parent, op, id)``: ``parent`` is the enclosing
span on the same thread, and ``op`` the measured op the call served.
Work done on another thread for an op (a scheduler batch) is tied back
to the op's spans by listing their ids in ``span.extra["links"]``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Span", "Tracer", "union_length"]


class Span:
    """One recorded call."""

    __slots__ = ("name", "start", "end", "parent", "op", "id", "tid",
                 "extra")

    def __init__(self, name: str, start: float, parent: Optional[int],
                 op: Optional[int], span_id: int, tid: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.id = span_id
        self.tid = tid
        self.extra: Dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []
        self._pid = os.getpid()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def op(self) -> Optional[int]:
        """The op the calling thread is serving (None outside one)."""
        return getattr(self._local, "op", None)

    @op.setter
    def op(self, value: Optional[int]) -> None:
        self._local.op = value

    def begin(self, name: str, parent: Optional[int] = None) -> Span:
        """Open a span; its parent is the thread's innermost open span."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(name, time.perf_counter(), parent, self.op,
                    next(self._ids), threading.get_ident())
        stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span.id:
            stack.pop()
        self.spans.append(span)

    def span(self, name: str, parent: Optional[int] = None):
        """Context manager form of begin/end (no-op while disabled)."""
        return _SpanContext(self, name, parent)

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str,
             measure: Optional[Callable] = None,
             on_start: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper.

        ``on_start(span, args)`` and ``measure(span, args, result)`` may
        store counts in ``span.extra``.  Calls made while the tracer is
        disabled, or in a forked child (pool workers inherit the patch),
        pass straight through.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            span = tracer.begin(name)
            try:
                if on_start is not None:
                    on_start(span, args)
                result = original(*args, **kwargs)
                if measure is not None:
                    measure(span, args, result)
                return result
            finally:
                tracer.end(span)

        self.patch(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def children(self) -> Dict[int, List[Span]]:
        """parent id -> child spans, with linked batch spans attached to
        every op span they served."""
        out: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                out[span.parent].append(span)
            for linked_parent in span.extra.get("links", ()):
                out[linked_parent].append(span)
        return out

    def op_breakdown(self, root: Span,
                     children: Dict[int, List[Span]]) -> Dict[str, float]:
        """Self time per span name over one op's tree (seconds).

        Each span counts only inside its parent's (clipped) interval:
        work a server thread finishes after the client gave up is not
        part of the op.  ``children`` is :meth:`children`, computed once
        per analysis.
        """
        out: Dict[str, float] = defaultdict(float)
        stack = [(root, root.start, root.end)]
        seen = set()
        while stack:
            span, lo, hi = stack.pop()
            if span.id in seen:
                continue
            seen.add(span.id)
            kids = []
            for child in children.get(span.id, ()):
                c_lo, c_hi = max(child.start, lo), min(child.end, hi)
                if c_hi > c_lo:
                    kids.append((child, c_lo, c_hi))
            out[span.name] += (hi - lo) - union_length(
                (c_lo, c_hi) for _, c_lo, c_hi in kids)
            stack.extend(kids)
        return dict(out)

    def write_chrome(self, path) -> int:
        """Write the spans as Chrome trace-viewer JSON; returns the count."""
        if not self.spans:
            return 0
        t0 = min(s.start for s in self.spans)
        events = []
        for s in sorted(self.spans, key=lambda s: s.start):
            args = {"id": s.id, "parent": s.parent, "op": s.op}
            args.update({k: v for k, v in s.extra.items()
                         if isinstance(v, (int, float, str, list))})
            events.append({
                "name": s.name, "ph": "X", "pid": self._pid, "tid": s.tid,
                "ts": (s.start - t0) * 1e6, "dur": s.duration * 1e6,
                "args": args,
            })
        with open(path, "w", encoding="utf-8") as stream:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      stream)
        return len(events)


class _SpanContext:
    __slots__ = ("tracer", "name", "parent", "span")

    def __init__(self, tracer: Tracer, name: str,
                 parent: Optional[int]) -> None:
        self.tracer = tracer
        self.name = name
        self.parent = parent
        self.span: Optional[Span] = None

    def __enter__(self) -> Optional[Span]:
        if self.tracer.enabled:
            self.span = self.tracer.begin(self.name, self.parent)
        return self.span

    def __exit__(self, *exc) -> None:
        if self.span is not None:
            self.tracer.end(self.span)
