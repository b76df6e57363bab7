"""Observability for the simulated cluster: event tracing and metrics.

Two sinks, bundled by :class:`~repro.telemetry.context.Telemetry` and made
ambient through :func:`~repro.telemetry.context.use`:

- :class:`~repro.telemetry.trace.TraceRecorder` — structured span /
  counter events on the *simulated* clock, exported as Chrome
  trace-event JSON (open in Perfetto).  One track per (locale, worker), so
  the paper's Fig. 5 producer-consumer pipeline is directly visible.
- :class:`~repro.telemetry.metrics.MetricsRegistry` — labelled counters,
  gauges, and histograms (bytes on the wire per locale pair, plan-cache
  hits and footprint, kernel strategy counts), frozen into
  :class:`~repro.telemetry.metrics.MetricsSnapshot` objects that render as
  text tables or JSON.

Both have no-op implementations, installed by default, so disabled
telemetry costs approximately nothing.  See ``docs/OBSERVABILITY.md`` for
the trace schema and the metric-name catalogue.

The real ``threads`` backend records into the same trace on the wall
clock (``clock: wall``): each worker keeps its own span list, merged
after the threads join.

Post-mortem analysis lives in :mod:`repro.telemetry.analysis`
(:func:`analyze_trace`, the ``repro-inspect`` CLI): per-locale span
accounting, pipeline overlap efficiency, stall fraction, load-imbalance
index, critical path, and the locale×locale communication matrix — on
both clock domains, plus ``repro-inspect calibrate`` for
model-vs-measured ratios.
"""

from repro.telemetry.context import (
    NULL_TELEMETRY,
    Telemetry,
    current,
    install,
    use,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    NullMetricsRegistry,
)
from repro.telemetry.trace import NullTraceRecorder, TraceRecorder

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "current",
    "install",
    "use",
    "TraceRecorder",
    "NullTraceRecorder",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "MetricsSnapshot",
    "Counter",
    "Gauge",
    "Histogram",
    "TraceAnalysis",
    "analyze_trace",
    "calibrate_traces",
    "load_spans",
]

_ANALYSIS_EXPORTS = {
    "TraceAnalysis",
    "analyze_trace",
    "calibrate_traces",
    "load_spans",
}


def __getattr__(name: str):
    # Lazy so that `python -m repro.telemetry.analysis` does not import
    # the module twice (runpy would warn), and plain telemetry users
    # don't pay for the analysis machinery.  importlib (not a from-import)
    # because a from-import would bounce back through this very
    # __getattr__ and recurse.
    import importlib

    if name in _ANALYSIS_EXPORTS:
        analysis = importlib.import_module("repro.telemetry.analysis")
        return getattr(analysis, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
