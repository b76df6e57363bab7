"""In-memory spans recorded around calls into the layers.

The benchmark measures ``repro`` from outside: a span is opened by the
benchmark's own code right before it calls a public function, and closed
when that call returns.  Calls one level further down are captured by
wrapping a public method on an object the benchmark itself created
(:meth:`Tracer.instrument`), so no module of the package is patched.

Spans are nested by a stack (the traced passes are single-threaded from
the benchmark's point of view), kept in memory, and written as one
Chrome-trace JSON when the pass ends.  A span's *self time* is its
duration minus the durations of its direct children; the layer of a span
is the part of its name before the first dot.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import NamedTuple


class Total(NamedTuple):
    calls: int
    seconds: float
    self_seconds: float
    work: int


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        #: [name, start, end, parent index or -1, work items]
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, work: int = 0):
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), None, parent, work]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    @contextmanager
    def instrument(self, *targets: tuple):
        """Record a span per call of ``obj.attr`` for each
        ``(obj, attr, name, work)`` target.

        ``work(args, result)`` counts the items the call processed, so
        counts are taken at the same boundary as the time.  The wrapper is
        an instance attribute shadowing the bound method, removed again on
        exit.
        """
        for obj, attr, name, work in targets:
            setattr(obj, attr, self.traced(getattr(obj, attr), name, work))
        try:
            yield
        finally:
            for obj, attr, _, _ in targets:
                delattr(obj, attr)

    def traced(self, fn, name: str, work=None):
        """``fn`` wrapped so that every call records a span."""

        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if work is not None:
                record[4] = work(args, result)
            return result

        return wrapper

    # -- aggregation --------------------------------------------------------

    def mark(self) -> int:
        """Position in the span list, to aggregate one section later."""
        return len(self.spans)

    def totals(self, start: int = 0, stop: int | None = None) -> dict:
        """``{name: Total(calls, seconds, self_seconds, work)}`` of a section."""
        stop = len(self.spans) if stop is None else stop
        child_time: dict[int, float] = defaultdict(float)
        for index in range(start, stop):
            _, t0, t1, parent, _ = self.spans[index]
            if parent >= start:
                child_time[parent] += t1 - t0
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for index in range(start, stop):
            name, t0, t1, _, work = self.spans[index]
            entry = out[name]
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += t1 - t0 - child_time[index]
            entry[3] += work
        return defaultdict(
            lambda: Total(0, 0.0, 0.0, 0),
            {name: Total(*entry) for name, entry in out.items()},
        )

    # -- export -------------------------------------------------------------

    def chrome_events(self, pid: int) -> list[dict]:
        if not self.spans:
            return []
        origin = self.spans[0][1]
        events = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "args": {"name": self.workload},
            }
        ]
        for index, (name, t0, t1, parent, work) in enumerate(self.spans):
            events.append(
                {
                    "ph": "X",
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "pid": pid,
                    "tid": 0,
                    "ts": (t0 - origin) * 1e6,
                    "dur": (t1 - t0) * 1e6,
                    "args": {
                        "id": index,
                        "parent": parent,
                        "workload": self.workload,
                        "work": work,
                    },
                }
            )
        return events


def write_chrome_trace(path: Path, events: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}))
