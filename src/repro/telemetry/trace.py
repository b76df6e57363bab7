"""Structured event tracing on the *simulated* clock.

The :class:`TraceRecorder` captures span and counter events
stamped with simulated seconds and exports them in the Chrome trace-event
JSON format, so a run of the producer-consumer matvec (Sec. 5.3, Fig. 5 of
the paper) can be opened directly in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing`` and inspected track by track.

Tracks are named by a ``(process_label, thread_label)`` pair — e.g.
``("locale1", "producer0")`` — which maps onto the pid/tid dimensions of
the Chrome format: Perfetto then renders one process group per locale with
one timeline row per simulated worker, making the pipeline overlap
literally visible.

Timestamps handed to the recorder are *relative* simulated seconds; the
recorder adds its running :attr:`offset` so that successive simulations
(each of which restarts its own :class:`~repro.runtime.events.Simulator`
at ``t = 0``) lay out sequentially on one global timeline.  Callers that
complete a simulated phase advance the offset with :meth:`advance`.

A :class:`NullTraceRecorder` (``enabled = False``) makes disabled tracing
cost approximately nothing: instrumented code guards on ``enabled`` or
calls the no-op methods directly.

**Clock domains.**  A recorder starts in the simulated-seconds domain
(``clock == "sim"``).  When the real-parallel ``threads`` backend merges
its wall-clock spans, it calls :meth:`mark_wall` and the exported trace
carries a top-level ``"clock": "wall"`` key (ignored by Perfetto, read by
``repro-inspect`` so reports label their domain and ``calibrate`` checks
which trace is the model and which the measurement).

**Thread safety.**  The recorder itself is single-writer; concurrent
producers (the threads backend's workers) never touch it directly.  Each
appends to its own span list instead, which the executor merges here —
in per-track monotone order — after the workers have joined.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = ["TraceRecorder", "NullTraceRecorder"]

#: Chrome trace-event timestamps are microseconds.
_US_PER_SECOND = 1e6

Track = "tuple[str, str]"


class TraceRecorder:
    """Collects trace events and serializes them as Chrome trace JSON."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []
        #: seconds added to every recorded timestamp (global timeline)
        self.offset = 0.0
        #: clock domain of the recorded timestamps: "sim" (simulated
        #: seconds, the default) or "wall" (measured wall seconds — set by
        #: the threads backend via :meth:`mark_wall`)
        self.clock = "sim"
        self._pids: dict[str, int] = {}
        self._tids: dict[tuple[str, str], int] = {}

    # -- track bookkeeping -------------------------------------------------

    def _ids(self, track: tuple[str, str]) -> tuple[int, int]:
        process, thread = track
        pid = self._pids.get(process)
        if pid is None:
            pid = len(self._pids) + 1
            self._pids[process] = pid
        tid = self._tids.get(track)
        if tid is None:
            tid = sum(1 for t in self._tids if t[0] == process) + 1
            self._tids[track] = tid
        return pid, tid

    def _ts(self, seconds: float) -> float:
        return (self.offset + seconds) * _US_PER_SECOND

    # -- recording ---------------------------------------------------------

    def advance(self, seconds: float) -> None:
        """Shift the global timeline forward (end of one simulation).

        The offset is the recorder's running clock: it must never move
        backwards, or spans of successive operations (an empty sector, a
        cached-plan replay that records zero events) would overlap on the
        global timeline.  Negative shifts are therefore rejected.
        """
        if seconds < 0.0:
            raise ValueError(
                f"cannot advance the trace offset by {seconds!r} s: the "
                "global timeline must be monotone"
            )
        self.offset += seconds

    def mark_wall(self) -> None:
        """Declare this trace's timestamps to be measured wall seconds.

        Called by the ``threads`` backend when it merges wall-clock
        spans.  Sticky: once any wall-clock phase lands in a trace, the
        whole file is labelled ``wall`` (model-timed phases recorded
        around it, e.g. basis enumeration, keep their spans but the
        authoritative clock is the measured one).
        """
        self.clock = "wall"

    def complete(
        self,
        track: tuple[str, str],
        name: str,
        start: float,
        duration: float,
        args: dict | None = None,
    ) -> None:
        """One complete span ``[start, start + duration]`` (phase ``X``)."""
        pid, tid = self._ids(track)
        event = {
            "ph": "X",
            "name": name,
            "pid": pid,
            "tid": tid,
            "ts": self._ts(start),
            "dur": duration * _US_PER_SECOND,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def complete_abs(
        self,
        track: tuple[str, str],
        name: str,
        abs_start: float,
        duration: float,
        args: dict | None = None,
    ) -> None:
        """Like :meth:`complete` but ``abs_start`` is global-timeline time
        (already includes any offset)."""
        self.complete(track, name, abs_start - self.offset, duration, args)

    def counter(
        self, track: tuple[str, str], name: str, when: float, value: float
    ) -> None:
        """A counter sample (phase ``C``) — queue depth, NIC usage, ..."""
        pid, tid = self._ids(track)
        self.events.append(
            {
                "ph": "C",
                "name": name,
                "pid": pid,
                "tid": tid,
                "ts": self._ts(when),
                "args": {name: value},
            }
        )

    # -- export -------------------------------------------------------------

    def _metadata_events(self) -> list[dict[str, Any]]:
        def meta(kind: str, pid: int, tid: int, /, **args) -> dict[str, Any]:
            return {"ph": "M", "name": kind, "pid": pid, "tid": tid, "args": args}

        events = []
        for process, pid in self._pids.items():
            events.append(meta("process_name", pid, 0, name=process))
            events.append(meta("process_sort_index", pid, 0, sort_index=pid))
        for (process, thread), tid in self._tids.items():
            events.append(meta("thread_name", self._pids[process], tid, name=thread))
        return events

    def to_chrome(self) -> dict[str, Any]:
        """The trace as a Chrome trace-event JSON object."""
        return {
            "displayTimeUnit": "ms",
            "clock": self.clock,
            "traceEvents": self._metadata_events() + self.events,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_chrome(), indent=indent)

    def save(self, path) -> None:
        """Write the trace to ``path`` (open the file in Perfetto)."""
        from pathlib import Path

        Path(path).write_text(self.to_json())


class NullTraceRecorder(TraceRecorder):
    """A recorder whose every method is a no-op (disabled telemetry)."""

    enabled = False

    def advance(self, seconds: float) -> None:
        pass

    def mark_wall(self) -> None:
        pass

    def complete(self, track, name, start, duration, args=None) -> None:
        pass

    def complete_abs(self, track, name, abs_start, duration, args=None) -> None:
        pass

    def counter(self, track, name, when, value) -> None:
        pass
