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
from types import SimpleNamespace

from repro.telemetry.metrics import MetricsRegistry, NullMetricsRegistry
from repro.telemetry.trace import NullTraceRecorder, TraceRecorder

__all__ = ["Telemetry", "NULL_TELEMETRY", "Recording", "current", "install", "use"]


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


class _MetricsLog(MetricsRegistry):
    """A registry that logs ``(instrument class, (name, labels), method,
    value)`` per update instead of applying it."""

    def __init__(self) -> None:
        super().__init__()
        self.log: list = []

    def _intern(self, table: dict, key, factory) -> SimpleNamespace:
        def logged(method):
            return lambda value=1.0: self.log.append((factory, key, method, value))

        return SimpleNamespace(**{m: logged(m) for m in ("inc", "set")})


class _TraceLog(TraceRecorder):
    """A trace that logs ``(method, args)`` per call instead of recording
    events; its offset stays 0, so every logged time is relative."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list = []


for _method in ("complete", "counter", "advance", "mark_wall"):
    setattr(_TraceLog, _method, lambda self, *a, _m=_method: self.calls.append((_m, a)))


class Recording(Telemetry):
    """A live bundle that logs, in order, every metric update and trace
    call made on it.  :meth:`replay`
    writes the log to another bundle, which then holds what it would hold
    had the recorded code run under it — bit for bit, times shifted to its
    trace offset."""

    def __init__(self) -> None:
        super().__init__(trace=_TraceLog(), metrics=_MetricsLog())

    def replay(self, into: Telemetry) -> None:
        """Write the log to ``into``'s enabled halves."""
        if into.metrics.enabled:
            for kind, (name, labels), method, value in self.metrics.log:
                series = getattr(into.metrics, kind.__name__.lower())
                getattr(series(name, **dict(labels)), method)(value)
        if into.trace.enabled:
            for method, args in self.trace.calls:
                getattr(into.trace, method)(*args)


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
