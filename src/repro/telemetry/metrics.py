"""A labelled metrics registry: counters, gauges, and histograms.

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
    "Histogram",
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


class Histogram:
    """A streaming distribution summary (count/sum/min/max/mean)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Creates and interns labelled instruments."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}
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

    def histogram(self, name: str, **labels) -> Histogram:
        return self._intern(
            self._histograms, (name, _label_key(labels)), Histogram
        )

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
            histograms={
                # Empty histograms carry min=inf/max=-inf internally;
                # serialize those as None so the JSON stays strict (no
                # bare Infinity tokens).
                key: {
                    "count": h.count,
                    "sum": h.total,
                    "min": h.min if h.count else None,
                    "max": h.max if h.count else None,
                    "mean": h.mean,
                }
                for key, h in sorted(self._histograms.items())
            },
        )


class NullMetricsRegistry(MetricsRegistry):
    """Disabled metrics: every instrument is a shared no-op singleton."""

    enabled = False

    def counter(self, name: str, **labels) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels) -> Gauge:
        return _NULL_GAUGE

    def histogram(self, name: str, **labels) -> Histogram:
        return _NULL_HISTOGRAM


def series_name(name: str, labels: LabelKey) -> str:
    """``name{label=value,...}``, or the bare name of an unlabelled series."""
    text = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{text}}}" if text else name


@dataclass(frozen=True)
class MetricsSnapshot:
    """A frozen view of a :class:`MetricsRegistry`.

    Keys are ``(name, ((label, value), ...))`` pairs; values are plain
    floats (counters/gauges) or stat dicts (histograms).
    """

    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)

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
        if self.histograms:
            lines.append(
                f"{'histogram':<32} {'count':>8} {'mean':>12} "
                f"{'min':>12} {'max':>12}"
            )
            for (name, labels), stats in self.histograms.items():
                label = series_name(name, labels)
                lo = stats["min"] if stats["min"] is not None else "-"
                hi = stats["max"] if stats["max"] is not None else "-"
                lo = f"{lo:.4g}" if isinstance(lo, (int, float)) else str(lo)
                hi = f"{hi:.4g}" if isinstance(hi, (int, float)) else str(hi)
                lines.append(
                    f"{label:<32} {stats['count']:>8} {stats['mean']:>12.4g} "
                    f"{lo:>12} {hi:>12}"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def to_json(self) -> dict:
        """A JSON-serializable form (for the ``--metrics`` CLI flag)."""

        def rows(mapping):
            return [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in mapping.items()
            ]

        return {
            "counters": rows(self.counters),
            "gauges": rows(self.gauges),
            "histograms": rows(self.histograms),
        }

    @classmethod
    def from_json(cls, data) -> "MetricsSnapshot":
        """Inverse of :meth:`to_json` (label order is normalized).

        ``data`` usually comes from a file, so it is checked here, once: a
        row that is not ``{"name": str, "labels": {str: scalar}, "value":
        number or stats}`` raises :class:`~repro.errors.TraceFormatError`
        naming the row and the field.
        """

        def rows_of(kind, value_types):
            rows = data.get(kind, []) if isinstance(data, dict) else None
            if not isinstance(rows, list):
                raise TraceFormatError(f"metrics {kind!r} is not a list of rows")
            out = {}
            for index, row in enumerate(rows):
                row = row if isinstance(row, dict) else {}
                labels = row.get("labels")
                for key, ok in (
                    ("name", isinstance(row.get("name"), str)),
                    ("value", isinstance(row.get("value"), value_types)),
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
            counters=rows_of("counters", (int, float)),
            gauges=rows_of("gauges", (int, float)),
            histograms=rows_of("histograms", dict),
        )
