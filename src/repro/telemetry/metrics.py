"""A labelled metrics registry: counters and gauges.

Instrumented code asks the registry for an instrument by name plus labels
(``metrics.counter("matvec.bytes", src=0, dst=3).inc(nbytes)``); the
registry interns one instrument per distinct ``(name, labels)`` pair, so
repeated lookups are cheap dict hits.  :meth:`MetricsRegistry.snapshot`
freezes everything into a :class:`MetricsSnapshot` that renders as a text
table (attached to :class:`~repro.runtime.clock.SimReport` summaries) or
serializes to JSON for the ``--metrics PATH`` CLI flag.

The :class:`NullMetricsRegistry` hands out shared no-op instruments, so
code instrumented against a disabled registry costs one dict-free method
call per event and allocates nothing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from repro.errors import TraceFormatError

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "MetricsSnapshot",
    "series_name",
]

LabelKey = "tuple[tuple[str, Any], ...]"


class Counter:
    """A monotonically increasing total (messages, bytes, iterations)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins sample (queue depth, residual, imbalance)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Creates and interns labelled instruments."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        # Guards instrument creation only: on the threads execution
        # backend, concurrent first lookups of the same (name, labels)
        # must intern exactly one instrument (a lost write would fork a
        # counter family).  The hot path — a lookup that hits — stays a
        # lock-free dict get.
        self._intern_lock = threading.Lock()

    def _intern(self, table: dict, key, factory):
        instrument = table.get(key)
        if instrument is None:
            with self._intern_lock:
                instrument = table.get(key)
                if instrument is None:
                    instrument = table[key] = factory()
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._intern(
            self._counters, (name, _label_key(labels)), Counter
        )

    def gauge(self, name: str, **labels) -> Gauge:
        return self._intern(self._gauges, (name, _label_key(labels)), Gauge)

    def counter_total(self, name: str) -> float:
        """Sum of one counter family over all label combinations."""
        return sum(
            c.value for (n, _), c in self._counters.items() if n == name
        )

    def snapshot(self) -> "MetricsSnapshot":
        """An immutable copy of every instrument's current state."""
        return MetricsSnapshot(
            counters={
                key: c.value for key, c in sorted(self._counters.items())
            },
            gauges={key: g.value for key, g in sorted(self._gauges.items())},
        )


class NullMetricsRegistry(MetricsRegistry):
    """Disabled metrics: every instrument is a shared no-op singleton."""

    enabled = False

    def counter(self, name: str, **labels) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels) -> Gauge:
        return _NULL_GAUGE


def series_name(name: str, labels: LabelKey) -> str:
    """``name{label=value,...}``, or the bare name of an unlabelled series."""
    text = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{text}}}" if text else name


@dataclass(frozen=True)
class MetricsSnapshot:
    """A frozen view of a :class:`MetricsRegistry`.

    Keys are ``(name, ((label, value), ...))`` pairs; values are plain
    floats.
    """

    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)

    def counter_total(self, name: str) -> float:
        return sum(v for (n, _), v in self.counters.items() if n == name)

    def table(self) -> str:
        """A human-readable metrics table."""
        lines: list[str] = []
        for kind, series, fmt in (
            ("counter", self.counters, ".0f"), ("gauge", self.gauges, ".6g")
        ):
            if series:
                lines.append(f"{kind:<44} {'value':>14}")
            for (name, labels), value in series.items():
                lines.append(f"{series_name(name, labels):<44} {value:>14{fmt}}")
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def to_json(self) -> dict:
        """A JSON-serializable form (for the ``--metrics`` CLI flag)."""

        def rows(mapping):
            return [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in mapping.items()
            ]

        return {"counters": rows(self.counters), "gauges": rows(self.gauges)}

    @classmethod
    def from_json(cls, data) -> "MetricsSnapshot":
        """Inverse of :meth:`to_json` (label order is normalized).

        ``data`` usually comes from a file, so it is checked here, once: a
        row that is not ``{"name": str, "labels": {str: scalar}, "value":
        number}`` raises :class:`~repro.errors.TraceFormatError`
        naming the row and the field.
        """

        def rows_of(kind):
            rows = data.get(kind, []) if isinstance(data, dict) else None
            if not isinstance(rows, list):
                raise TraceFormatError(f"metrics {kind!r} is not a list of rows")
            out = {}
            for index, row in enumerate(rows):
                row = row if isinstance(row, dict) else {}
                labels = row.get("labels")
                for key, ok in (
                    ("name", isinstance(row.get("name"), str)),
                    ("value", isinstance(row.get("value"), (int, float))),
                    ("labels", isinstance(labels, dict) and all(
                        isinstance(v, (str, int, float)) for v in labels.values()
                    )),
                ):
                    if not ok:
                        raise TraceFormatError(
                            f"metrics {kind}[{index}]: field {key!r} is "
                            f"missing or mistyped: {row.get(key)!r}"
                        )
                out[row["name"], _label_key(labels)] = row["value"]
            return out

        return cls(
            counters=rows_of("counters"), gauges=rows_of("gauges"),
        )
