"""The ambient telemetry context.

Instrumentation points throughout the codebase (the discrete-event
simulator, the three matvec variants, enumeration/conversion, Lanczos)
fetch the active :class:`Telemetry` bundle with :func:`current` instead of
threading recorder objects through every call signature.  By default the
bundle holds the no-op recorder and registry, so un-telemetered runs pay
only a module-level attribute read per instrumented site.

Enable telemetry for a block of code with::

    from repro import telemetry

    tele = telemetry.Telemetry.enabled()
    with telemetry.use(tele):
        operator.matvec(x)
    tele.trace.save("trace.json")
    print(tele.metrics.snapshot().table())
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.telemetry.metrics import MetricsRegistry, NullMetricsRegistry
from repro.telemetry.trace import NullTraceRecorder, TraceRecorder

__all__ = ["Telemetry", "NULL_TELEMETRY", "current", "install", "use"]


@dataclass
class Telemetry:
    """The pair of observability sinks instrumented code writes to."""

    trace: TraceRecorder
    metrics: MetricsRegistry

    @classmethod
    def enabled(
        cls, trace: bool = True, metrics: bool = True
    ) -> "Telemetry":
        """A live bundle, with either half individually disableable."""
        return cls(
            trace=TraceRecorder() if trace else NullTraceRecorder(),
            metrics=MetricsRegistry() if metrics else NullMetricsRegistry(),
        )


#: The default, all-no-op bundle (shared; never mutated).
NULL_TELEMETRY = Telemetry(
    trace=NullTraceRecorder(), metrics=NullMetricsRegistry()
)

_current: Telemetry = NULL_TELEMETRY


def current() -> Telemetry:
    """The active telemetry bundle (no-op unless one was installed)."""
    return _current


def install(telemetry: Telemetry | None) -> Telemetry:
    """Make ``telemetry`` the ambient bundle; returns the previous one.

    Passing ``None`` restores the no-op bundle.
    """
    global _current
    previous = _current
    _current = NULL_TELEMETRY if telemetry is None else telemetry
    return previous


@contextmanager
def use(telemetry: Telemetry | None):
    """Context manager form of :func:`install` (restores on exit)."""
    previous = install(telemetry)
    try:
        yield telemetry
    finally:
        install(previous)
