"""Spans for the traced run: record in memory, write once, join later.

A span is one call into a layer: a name, start and end on the system-wide
monotonic clock, the span that was open on the same thread when it began
(its parent), and the trace id of the request it served.  Processes keep
their spans in memory and write them out as JSON lines when they end.
The benchmark then merges the files of the client, the coordinator and
the workers:

* :func:`self_times` — a span's duration minus the part of its interval
  covered by its child spans;
* :func:`join_by_trace` — per trace id, an outer span's duration minus an
  inner span's duration from the same request (the router hop, or the
  transport around ``ServeApp.handle``).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    span_id: str
    parent: Optional[str] = None
    trace: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Per-process span sink with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: name -> values recorded alongside the spans (sizes, rows, ...).
        self.values: Dict[str, List[float]] = defaultdict(list)
        #: Wrapped layers call straight through while this is False.
        self.enabled = True
        self._ids = itertools.count(1)
        self._prefix = f"{os.getpid()}-"
        self._local = threading.local()

    def _stack(self) -> List[Tuple[str, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Tuple[str, str]]:
        """``(name, span_id)`` of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    @property
    def trace(self) -> Optional[str]:
        return getattr(self._local, "trace", None)

    @trace.setter
    def trace(self, value: Optional[str]) -> None:
        self._local.trace = value

    def new_id(self) -> str:
        return self._prefix + str(next(self._ids))

    @contextmanager
    def span(self, name: str) -> Iterator[str]:
        stack = self._stack()
        parent = stack[-1][1] if stack else None
        span_id = self.new_id()
        stack.append((name, span_id))
        start = time.monotonic()
        try:
            yield span_id
        finally:
            end = time.monotonic()
            stack.pop()
            self.spans.append(Span(name, start, end, span_id, parent,
                                   self.trace))

    def add(self, name: str, start: float, end: float,
            parent: Optional[str] = None, trace: Optional[str] = None) -> None:
        """Record a span measured elsewhere, e.g. on another thread."""
        self.spans.append(Span(name, start, end, self.new_id(), parent,
                               trace))

    def record(self, name: str, value: float) -> None:
        self.values[name].append(float(value))

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
            fh.write(json.dumps({"values": self.values}) + "\n")


def load(paths: Iterable[Path]) -> Tuple[List[Span], Dict[str, List[float]]]:
    """Merge span files written by :meth:`Recorder.dump`."""
    spans: List[Span] = []
    values: Dict[str, List[float]] = defaultdict(list)
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                if "values" in row:
                    for name, vals in row["values"].items():
                        values[name].extend(vals)
                else:
                    spans.append(Span(**row))
    return spans, values


def _covered(start: float, end: float,
             intervals: List[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Iterable[Span]) -> Dict[str, List[float]]:
    """Span name -> self time of each of its spans, in seconds."""
    spans = list(spans)
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        covered = _covered(span.start, span.end,
                           children.get(span.span_id, []))
        out[span.name].append(span.duration - covered)
    return out


def join_by_trace(spans: Iterable[Span], outer: str,
                  inner_prefix: str) -> List[float]:
    """Per trace id: the ``outer`` span's duration minus the inner one's.

    The inner span is the one whose name starts with ``inner_prefix``;
    the two usually come from different processes (client and server, or
    coordinator and worker).  A trace with several spans of one kind (a
    retried request) uses the longest.
    """
    outers: Dict[str, float] = {}
    inners: Dict[str, float] = {}
    for span in spans:
        if span.trace is None:
            continue
        if span.name == outer:
            seen = outers
        elif span.name.startswith(inner_prefix):
            seen = inners
        else:
            continue
        seen[span.trace] = max(seen.get(span.trace, 0.0), span.duration)
    return [outers[trace] - inners[trace] for trace in outers
            if trace in inners]
