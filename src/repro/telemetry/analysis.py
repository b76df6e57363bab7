"""Post-mortem analysis of simulated-cluster traces (``repro-inspect``).

Raw trace events do not answer the questions the paper's Sec. 5.3 and
Figs. 5/8/9 raise: does the producer-consumer pipeline actually *overlap*
communication with computation, how much time is lost to stalls, how
evenly is the work spread, and who talks to whom.  This module turns a
recorded trace (and optionally a metrics snapshot) into those verdicts,
in the spirit of HPCToolkit-style post-mortem analysis:

- **per-locale span accounting** — busy time split into compute / send /
  stall / idle per locale, from the span names the instrumented runtime
  emits;
- **pipeline overlap efficiency** — how much of the communication time is
  hidden under computation: ``|compute ∩ send| / min(|compute|, |send|)``
  on the interval unions per locale (1.0 = perfectly overlapped, 0.0 =
  fully serialized, the bulk-synchronous SPINPACK regime);
- **stall fraction** — blocked time (full ``RemoteBuffer`` flags, NIC
  waits, empty ready queues) over total accounted worker time;
- **load-imbalance index** — max/mean of per-locale busy time (1.0 is a
  perfect balance; the paper's hashed distribution keeps this near 1);
- **critical path** — the longest time-respecting chain of busy spans
  through the timeline and its share of the makespan;
- **communication matrix** — locale×locale bytes and messages, harvested
  from span ``args`` (``{"src", "dst", "bytes", "msgs"}`` on ``send`` /
  ``memcpy`` spans; ``{"comm": [[src, dst, bytes, msgs], ...]}`` on BSP
  phase spans) so no name-based heuristics are needed.

Use it as a library (:func:`analyze_trace`) or from the command line::

    python -m repro.telemetry.analysis trace.json
    python -m repro.telemetry.analysis trace.json --metrics metrics.json --json
    python -m repro.telemetry.analysis calibrate sim_trace.json wall_trace.json

(also installed as the ``repro-inspect`` console script; ``repro-inspect
COMMAND --help`` says what each sub-command of the ``_COMMANDS`` table
reports).  Each sub-command computes one JSON payload: ``--json`` prints
it as it is, and :func:`report_text` prints the same keys for a reader.
The exact regression gates are the sim snapshot (simulated numbers) and
the ``benchmarks/e2e`` ladder (wall time).

Every report works on both clock domains — the simulator's simulated
seconds and the threads backend's measured wall seconds — and labels
which one it read (``clock: sim|wall``).  The deliberate cross-domain
comparison is ``calibrate`` (the table the performance model is tuned
against).
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.errors import ReproError, TraceFormatError
from repro.telemetry.metrics import MetricsSnapshot, series_name

__all__ = [
    "Span",
    "TraceAnalysis",
    "TraceFormatError",
    "analyze_trace",
    "load_spans",
    "calibrate_traces",
    "report_text",
    "main",
]


_US = 1e6
_LOCALE_RE = re.compile(r"^locale(\d+)$")

#: span names that are *waiting*, not work
_STALL_NAMES = {"stall"}
_IDLE_NAMES = {"idle"}
#: span names that are communication work
_SEND_NAMES = {"send"}


def _clock_label(clock: str) -> str:
    return "wall seconds" if clock == "wall" else "simulated seconds"


def _category(name: str) -> str:
    """Classify a span name into compute / send / stall / idle."""
    if name in _SEND_NAMES:
        return "send"
    if name in _STALL_NAMES or name.startswith("wait:"):
        return "stall"
    if name in _IDLE_NAMES:
        return "idle"
    return "compute"


@dataclass(frozen=True)
class Span:
    """One complete span of the trace, in seconds on the global timeline."""

    process: str
    thread: str
    name: str
    start: float
    duration: float
    #: traffic the span carried, ``(src, dst, bytes, msgs)`` per entry
    comm: tuple = ()

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def locale(self) -> int | None:
        m = _LOCALE_RE.match(self.process)
        return int(m.group(1)) if m else None

    @property
    def category(self) -> str:
        return _category(self.name)


def _read_json(path):
    """The JSON document in ``path``; unreadable, empty or truncated files
    raise :class:`TraceFormatError` (never a bare traceback)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise TraceFormatError(f"cannot read {path}: {exc}") from exc
    if not text.strip():
        raise TraceFormatError(f"{path} is empty — not a trace/metrics file")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(
            f"{path} is not valid JSON (truncated or corrupt?): {exc}"
        ) from exc


def _load_chrome(source) -> dict:
    """A Chrome trace dict from a path, dict, or recorder; anything that
    parses to something else (no ``traceEvents`` list) raises
    :class:`TraceFormatError`."""
    if hasattr(source, "to_chrome"):  # TraceRecorder
        return source.to_chrome()
    data = source if isinstance(source, dict) else _read_json(source)
    events = data.get("traceEvents") if isinstance(data, dict) else None
    if not isinstance(events, list):
        raise TraceFormatError(
            f"{source if not isinstance(source, dict) else 'input'} is "
            "valid JSON but not a Chrome trace (no 'traceEvents' list); "
            "pass a file produced by --trace"
        )
    return data


def _field(holder: dict, key: str, types, where: str, *default):
    """``holder[key]`` (``default`` when absent), which must be of ``types``."""
    if default and key not in holder:
        return default[0]
    value = holder.get(key)
    if not isinstance(value, types):
        raise TraceFormatError(
            f"{where}: field {key!r} is missing or mistyped: {value!r}"
        )
    return value


def _finite(value, where: str, key: str, low: float = -math.inf):
    """``value`` if it is a finite number ``>= low`` (a bool is not one)."""
    if (
        isinstance(value, bool) or not isinstance(value, (int, float))
        or not math.isfinite(value) or value < low
    ):
        bound = " >= 0" if low == 0 else ""
        raise TraceFormatError(
            f"{where}: field {key!r} must be a finite number{bound}: {value!r}"
        )
    return value


def _comm_entry(entry, where: str):
    """``[src, dst, bytes, msgs]`` as a span's args carry it, checked."""
    if (
        not isinstance(entry, list) or len(entry) != 4
        or not all(type(v) is int and v >= 0 for v in entry[:2])
    ):
        raise TraceFormatError(
            f"{where}: {entry!r} is not [src, dst, bytes, msgs] with "
            "locale numbers first"
        )
    for key, value in zip(("bytes", "msgs"), entry[2:]):
        _finite(value, f"{where}, traffic {entry!r}", key, 0)
    return entry


def load_spans(source) -> list[Span]:
    """Parse the complete (``ph: "X"``) spans of a trace.

    ``source`` may be a :class:`~repro.telemetry.trace.TraceRecorder`, a
    Chrome trace dict, or a path to a trace JSON file.  Track labels are
    resolved through the ``process_name`` / ``thread_name`` metadata
    events; timestamps come back in seconds.  Fields are checked here,
    once (every later stage reads spans): a missing or mistyped one, a
    ``ts`` that is not finite, or a ``dur`` / traffic byte or message count
    that is not finite and ``>= 0`` raises :class:`TraceFormatError` naming
    the event's index and the field.
    """
    processes: dict[int, str] = {}
    threads: dict[tuple[int, int], str] = {}
    parsed = []
    for index, event in enumerate(_load_chrome(source)["traceEvents"]):
        where = f"trace event {index}"
        if not isinstance(event, dict):
            raise TraceFormatError(f"{where} is not an object: {event!r}")
        if event.get("ph") not in ("M", "X"):
            continue
        name = _field(event, "name", str, where)
        track = tuple(_field(event, key, (int, str), where) for key in ("pid", "tid"))
        args = _field(event, "args", dict, where, {})
        if event["ph"] == "M":
            if name == "process_name":
                processes[track[0]] = _field(args, "name", str, where)
            elif name == "thread_name":
                threads[track] = _field(args, "name", str, where)
            continue
        # The two shapes traffic takes in span args (see module docstring).
        comm = list(_field(args, "comm", list, where, ()))
        if "src" in args and "dst" in args:
            comm.insert(0, [args["src"], args["dst"], args.get("bytes", 0),
                            args.get("msgs", 1)])
        comm = tuple(_comm_entry(entry, where) for entry in comm)
        start = _finite(event.get("ts"), where, "ts") / _US
        duration = _finite(event.get("dur", 0.0), where, "dur", 0) / _US
        parsed.append((track, name, start, duration, comm))
    spans = [
        Span(
            process=processes.get(pid, f"pid{pid}"),
            thread=threads.get((pid, tid), f"tid{tid}"),
            name=name, start=start, duration=duration, comm=comm,
        )
        for (pid, tid), name, start, duration, comm in parsed
    ]
    spans.sort(key=lambda s: (s.start, s.end))
    return spans


# -- interval arithmetic ----------------------------------------------------


def _merge(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of intervals as a sorted list of disjoint (start, end) pairs."""
    out: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if out and start <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        else:
            out.append((start, end))
    return out


def _total(intervals: list[tuple[float, float]]) -> float:
    return sum(end - start for start, end in intervals)


def _intersection_length(
    a: list[tuple[float, float]], b: list[tuple[float, float]]
) -> float:
    """Length of the intersection of two disjoint-interval unions."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


# -- critical path ----------------------------------------------------------


def _critical_path(spans: list[Span]) -> list[Span]:
    """The longest (by summed duration) time-respecting chain of spans.

    A chain is a sequence of spans where each starts no earlier than the
    previous one ends (up to a nanosecond of float slack) — the heaviest
    serialization witness through the simulated timeline.  Computed with a
    longest-chain DP over spans sorted by end time (O(n log n)).
    """
    if not spans:
        return []
    eps = 1e-9
    ordered = sorted(spans, key=lambda s: s.end)
    ends = [s.end for s in ordered]
    best: list[float] = []  # best[i]: max chain weight ending at span i
    prefix_best: list[float] = []  # running max of best[:i+1]
    prefix_arg: list[int] = []
    prev: list[int] = []
    for i, span in enumerate(ordered):
        # Only spans already processed (index < i) can precede span i; a
        # zero-duration span shares its end with its own start, so the
        # bisect must be clamped below i.
        j = min(bisect_right(ends, span.start + eps) - 1, i - 1)
        base, link = 0.0, -1
        if j >= 0:
            base, link = prefix_best[j], prefix_arg[j]
        weight = base + span.duration
        best.append(weight)
        prev.append(link)
        if not prefix_best or weight > prefix_best[-1]:
            prefix_best.append(weight)
            prefix_arg.append(i)
        else:
            prefix_best.append(prefix_best[-1])
            prefix_arg.append(prefix_arg[-1])
    i = prefix_arg[-1]
    chain: list[Span] = []
    while i >= 0:
        chain.append(ordered[i])
        i = prev[i]
    chain.reverse()
    return chain


# -- communication matrix ----------------------------------------------------


def _harvest_comm(spans: list[Span]) -> dict[tuple[int, int], list[float]]:
    """(src, dst) -> [bytes, msgs] from instrumented span args."""
    comm: dict[tuple[int, int], list[float]] = {}
    for span in spans:
        for src, dst, nbytes, msgs in span.comm:
            entry = comm.setdefault((src, dst), [0.0, 0.0])
            entry[0] += float(nbytes)
            entry[1] += float(msgs)
    return comm


# -- the analysis -----------------------------------------------------------


@dataclass
class TraceAnalysis:
    """Computed diagnostics for one trace (see :func:`analyze_trace`)."""

    makespan: float
    n_locales: int
    n_spans: int
    per_locale: dict[int, dict[str, float]]
    overlap_efficiency: float
    stall_fraction: float
    imbalance_index: float
    critical_path: list[Span]
    comm: dict[tuple[int, int], list[float]]
    counters: dict[str, float] = field(default_factory=dict)
    #: clock domain of the trace: "sim" (simulated seconds) or "wall"
    #: (measured wall seconds from the threads backend)
    clock: str = "sim"
    #: span name -> [category, seconds summed over the locale tracks]
    #: (what ``calibrate`` compares phase by phase)
    phases: dict[str, list] = field(default_factory=dict)

    # -- derived -----------------------------------------------------------

    @property
    def critical_path_seconds(self) -> float:
        return sum(s.duration for s in self.critical_path)

    @property
    def critical_path_utilization(self) -> float:
        return (
            self.critical_path_seconds / self.makespan if self.makespan else 0.0
        )

    def comm_matrix(self, kind: str = "bytes") -> list[list[float]]:
        """The dense locale×locale matrix (``kind``: "bytes" or "msgs")."""
        idx = 0 if kind == "bytes" else 1
        n = self.n_locales
        for src, dst in self.comm:
            n = max(n, src + 1, dst + 1)
        matrix = [[0.0] * n for _ in range(n)]
        for (src, dst), entry in self.comm.items():
            matrix[src][dst] = entry[idx]
        return matrix

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        """A machine-readable form of every computed diagnostic."""
        return {
            "clock": self.clock,
            "makespan_seconds": self.makespan,
            "n_locales": self.n_locales,
            "n_spans": self.n_spans,
            "overlap_efficiency": self.overlap_efficiency,
            "stall_fraction": self.stall_fraction,
            "imbalance_index": self.imbalance_index,
            "per_locale": [
                {"locale": locale, **acct}
                for locale, acct in sorted(self.per_locale.items())
            ],
            "critical_path": {
                "busy_seconds": self.critical_path_seconds,
                "n_spans": len(self.critical_path),
                "utilization": self.critical_path_utilization,
                "segments": [
                    {
                        "name": s.name,
                        "track": f"{s.process}/{s.thread}",
                        "start": s.start,
                        "duration": s.duration,
                    }
                    for s in self.critical_path[:20]
                ],
            },
            "communication": {
                "bytes": self.comm_matrix("bytes"),
                "messages": self.comm_matrix("msgs"),
                "total_bytes": sum(e[0] for e in self.comm.values()),
                "total_messages": sum(e[1] for e in self.comm.values()),
            },
            "counters": dict(sorted(self.counters.items())),
        }

    def scalars(self) -> dict[str, float]:
        """The headline figures (``calibrate`` puts both runs' side by side)."""
        return {
            "makespan_seconds": self.makespan,
            "overlap_efficiency": self.overlap_efficiency,
            "stall_fraction": self.stall_fraction,
            "imbalance_index": self.imbalance_index,
            "critical_path_utilization": self.critical_path_utilization,
            "total_bytes": sum(e[0] for e in self.comm.values()),
            "total_messages": sum(e[1] for e in self.comm.values()),
        }


def _flat(snapshot, prefixes: tuple[str, ...]) -> dict[str, float]:
    """Counters and gauges whose name starts with one of ``prefixes``,
    rendered flat: ``name{label=value,...}`` -> value."""
    out: dict[str, float] = {}
    for (name, labels), value in {**snapshot.counters, **snapshot.gauges}.items():
        if name.startswith(prefixes):
            out[series_name(name, labels)] = value
    return out


def analyze_trace(source, metrics=None) -> TraceAnalysis:
    """Analyze a trace (path / dict / recorder), optionally with metrics.

    ``metrics`` may be a :class:`~repro.telemetry.metrics.MetricsSnapshot`,
    a live :class:`~repro.telemetry.metrics.MetricsRegistry`, or a path to
    a snapshot JSON file; when given, its plan-cache and kernel-strategy
    counters are folded into the report.  The communication matrix comes
    from the spans alone: every span that moves data carries its traffic.
    """
    chrome = _load_chrome(source)
    clock = str(chrome.get("clock", "sim"))
    spans = load_spans(chrome)
    locale_spans = [s for s in spans if s.locale is not None]
    locales = sorted({s.locale for s in locale_spans})
    phases: dict[str, list] = {}
    for span in locale_spans:
        phases.setdefault(span.name, [span.category, 0.0])[1] += span.duration

    if locale_spans:
        t0 = min(s.start for s in locale_spans)
        t1 = max(s.end for s in locale_spans)
        makespan = t1 - t0
    else:
        makespan = 0.0

    per_locale: dict[int, dict[str, float]] = {}
    overlap_num = overlap_den = 0.0
    for locale in locales:
        mine = [s for s in locale_spans if s.locale == locale]
        compute_union = _merge(
            (s.start, s.end) for s in mine if s.category == "compute"
        )
        send_union = _merge((s.start, s.end) for s in mine if s.category == "send")
        compute = sum(s.duration for s in mine if s.category == "compute")
        send = sum(s.duration for s in mine if s.category == "send")
        stall = sum(s.duration for s in mine if s.category == "stall")
        idle = sum(s.duration for s in mine if s.category == "idle")
        hidden = _intersection_length(compute_union, send_union)
        hideable = min(_total(compute_union), _total(send_union))
        overlap = hidden / hideable if hideable > 0.0 else 0.0
        overlap_num += hidden
        overlap_den += hideable
        per_locale[locale] = {
            "compute": compute,
            "send": send,
            "stall": stall,
            "idle": idle,
            "busy": compute + send,
            "overlap_efficiency": overlap,
        }

    busies = [acct["busy"] for acct in per_locale.values()]
    mean_busy = sum(busies) / len(busies) if busies else 0.0
    imbalance = max(busies) / mean_busy if mean_busy > 0.0 else 1.0
    accounted = sum(
        acct["busy"] + acct["stall"] + acct["idle"]
        for acct in per_locale.values()
    )
    stall_fraction = (
        sum(acct["stall"] for acct in per_locale.values()) / accounted
        if accounted > 0.0
        else 0.0
    )

    busy_spans = [s for s in locale_spans if s.category in ("compute", "send")]
    chain = _critical_path(busy_spans)

    counters: dict[str, float] = {}
    if metrics is not None:
        counters = _flat(_as_snapshot(metrics), ("plan.", "kernel."))

    return TraceAnalysis(
        makespan=makespan,
        n_locales=len(locales),
        n_spans=len(spans),
        per_locale=per_locale,
        overlap_efficiency=(
            overlap_num / overlap_den if overlap_den > 0.0 else 0.0
        ),
        stall_fraction=stall_fraction,
        imbalance_index=imbalance,
        critical_path=chain,
        comm=_harvest_comm(spans),
        counters=counters,
        clock=clock,
        phases=phases,
    )


def _as_snapshot(metrics):
    if isinstance(metrics, MetricsSnapshot):
        return metrics
    if hasattr(metrics, "snapshot"):  # a live registry
        return metrics.snapshot()
    return MetricsSnapshot.from_json(_read_json(metrics))


# -- model-vs-measured calibration -------------------------------------------


def calibrate_traces(model_source, measured_source) -> dict:
    """Align a simulated trace with a wall-clock trace of the same workload.

    ``model_source`` must be a sim-clock trace (a sim backend run) and
    ``measured_source`` a wall-clock one (the same workload on the
    threads backend); anything else raises :class:`TraceFormatError`.
    Returns the per-phase model-vs-measured ratios — grouped by span
    name over the locale tracks — plus the headline scalars of both
    analyses.  A ratio above 1 means that phase runs slower in real life
    than the machine model predicts; this is the table the performance
    model is tuned against.
    """
    model = analyze_trace(model_source)
    measured = analyze_trace(measured_source)
    if model.clock != "sim":
        raise TraceFormatError(
            "calibrate expects a sim-clock model trace first, but the "
            f"model input is {_clock_label(model.clock)} — pass the "
            "sim backend trace as MODEL and the threads trace as MEASURED"
        )
    if measured.clock != "wall":
        raise TraceFormatError(
            "calibrate expects a wall-clock measured trace second, but "
            f"the measured input is {_clock_label(measured.clock)} — "
            "record it with '--backend threads --trace'"
        )

    model_phases, measured_phases = model.phases, measured.phases
    phases = []
    for name in sorted(
        set(model_phases) | set(measured_phases),
        key=lambda n: -(model_phases.get(n, (None, 0.0))[1]),
    ):
        category, model_s = model_phases.get(name, (None, 0.0))
        meas_category, measured_s = measured_phases.get(name, (None, 0.0))
        phases.append(
            {
                "phase": name,
                "category": category or meas_category,
                "model_seconds": model_s,
                "measured_seconds": measured_s,
                # None when the model predicts zero time for a phase the
                # measurement observed (strict JSON has no Infinity)
                "ratio": measured_s / model_s if model_s > 0.0 else None,
            }
        )
    return {
        "clock": {"model": "sim", "measured": "wall"},
        "model": model.scalars(),
        "measured": measured.scalars(),
        "makespan_ratio": (
            measured.makespan / model.makespan if model.makespan else None
        ),
        "n_locales": {
            "model": model.n_locales,
            "measured": measured.n_locales,
        },
        "phases": phases,
    }


# -- CLI --------------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):  # whole numbers (byte counts) in full
        return f"{value:.{15 if value.is_integer() else 6}g}"
    return str(value)


def _table(value: list, indent: str) -> str:
    """Row objects under their keys, or a grid under its column numbers
    with each row's number first; every column as wide as its widest cell,
    text left-aligned and numbers right-aligned."""
    if isinstance(value[0], dict):
        header, rows = list(value[0]), [list(row.values()) for row in value]
    else:
        header = ["", *map(str, range(len(value[0])))]
        rows = [[i, *row] for i, row in enumerate(value)]
    cells = [header] + [[_cell(v) for v in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "\n".join(
        indent + "  ".join(
            c.ljust(w) if isinstance(v, str) else c.rjust(w)
            for c, w, v in zip(row, widths, rows[0])
        ).rstrip()
        for row in cells
    )


def report_text(payload: dict, indent: str = "") -> str:
    """A JSON payload as text: a scalar is one ``key: value`` line, a list
    of row objects a table, a list of lists a grid, a nested object an
    indented section; an empty list or object reads ``(none)``."""
    lines = []
    for key, value in payload.items():
        if isinstance(value, (dict, list)) and not value:
            lines.append(f"{indent}{key}: (none)")
        elif isinstance(value, dict):
            lines += [f"{indent}{key}:", report_text(value, indent + "  ")]
        elif isinstance(value, list) and isinstance(value[0], (dict, list)):
            lines += [f"{indent}{key}:", _table(value, indent + "  ")]
        else:
            lines.append(f"{indent}{key}: {_cell(value)}")
    return "\n".join(lines)


#: sub-command ("" = the bare ``repro-inspect TRACE`` form) ->
#: (description, positional arguments, parsed arguments -> JSON payload)
_COMMANDS = {
    "": (
        "Analyze a repro telemetry trace: overlap efficiency, stalls, load "
        "imbalance, critical path, communication matrix.",
        (("trace", "path to a Chrome trace-event JSON file"),),
        lambda args: analyze_trace(args.trace, metrics=args.metrics).to_json(),
    ),
    "calibrate": (
        "Align a simulated (model) trace with a wall-clock (measured) trace "
        "of the same workload and report per-phase model-vs-measured time "
        "ratios",
        (("model", "sim-clock trace JSON (sim backend run)"),
         ("measured", "wall-clock trace JSON (threads backend run)")),
        lambda args: calibrate_traces(args.model, args.measured),
    ),
}


def main(argv: list[str] | None = None) -> int:
    import argparse
    import sys

    argv = list(sys.argv[1:] if argv is None else argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else ""
    description, positionals, run = _COMMANDS[command]
    parser = argparse.ArgumentParser(
        prog=f"repro-inspect {command}".rstrip(), description=description
    )
    for name, text in positionals:
        parser.add_argument(name, help=text)
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    if not command:
        parser.add_argument(
            "--metrics",
            metavar="PATH",
            help="metrics snapshot JSON to fold in (plan/kernel counters)",
        )
    args = parser.parse_args(argv[1:] if command else argv)
    try:
        payload = run(args)
    except ReproError as exc:
        print(f"repro-inspect: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(payload, indent=2) if args.json else report_text(payload))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
