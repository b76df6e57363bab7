"""Simulated-time accounting: cost ledgers, bulk-synchronous phase timing,
and structured simulation reports."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.runtime.machine import MachineModel
from repro.telemetry.context import current as current_telemetry
from repro.telemetry.metrics import MetricsSnapshot

__all__ = ["CostLedger", "BSPTimer", "SimReport"]


class CostLedger:
    """Per-locale, per-phase busy-time accounting.

    Used to produce the phase breakdowns the paper reports (e.g. the
    424 s getManyRows vs 80 s stateToIndex split of Sec. 6.3).
    """

    def __init__(self, n_locales: int) -> None:
        self.n_locales = n_locales
        self._phases: dict[str, np.ndarray] = defaultdict(
            lambda: np.zeros(n_locales)
        )

    def add(self, phase: str, locale: int, seconds: float) -> None:
        self._phases[phase][locale] += seconds

    @property
    def phases(self) -> list[str]:
        return list(self._phases)

    def per_locale(self, phase: str) -> np.ndarray:
        return self._phases[phase].copy()

    def total(self, phase: str) -> float:
        """Total busy seconds across locales (core-seconds if callers add
        per-core times)."""
        return float(self._phases[phase].sum())

    def max_over_locales(self, phase: str) -> float:
        return float(self._phases[phase].max()) if phase in self._phases else 0.0

    def table(self) -> str:
        """A human-readable phase table."""
        lines = [f"{'phase':<24} {'total[s]':>12} {'max-locale[s]':>14}"]
        for phase in sorted(self._phases):
            lines.append(
                f"{phase:<24} {self.total(phase):>12.4f} "
                f"{self.max_over_locales(phase):>14.4f}"
            )
        return "\n".join(lines)


@dataclass
class SimReport:
    """Outcome of a simulated distributed operation.

    Attributes
    ----------
    elapsed:
        Simulated wall-clock seconds of the whole operation.
    phase_elapsed:
        Simulated elapsed seconds per named phase (phases are sequential
        for BSP algorithms; for the event-driven matvec they are busy-time
        summaries instead and need not add up to ``elapsed``).
    ledger:
        Optional per-locale busy-time breakdown.
    messages, bytes_sent:
        Total point-to-point messages / payload bytes.
    extras:
        Free-form metrics (average message size, stall time, ...).
    metrics:
        Optional frozen :class:`~repro.telemetry.metrics.MetricsSnapshot`
        taken when the operation finished (present when a live
        :class:`~repro.telemetry.context.Telemetry` bundle was installed).
    """

    elapsed: float = 0.0
    phase_elapsed: dict[str, float] = field(default_factory=dict)
    ledger: CostLedger | None = None
    messages: int = 0
    bytes_sent: int = 0
    extras: dict[str, float] = field(default_factory=dict)
    metrics: MetricsSnapshot | None = None

    @property
    def mean_message_bytes(self) -> float:
        return self.bytes_sent / self.messages if self.messages else 0.0

    def merge_phase(self, name: str, seconds: float) -> None:
        self.phase_elapsed[name] = self.phase_elapsed.get(name, 0.0) + seconds

    def summary(self) -> str:
        parts = [f"elapsed = {self.elapsed:.4f} s"]
        for name, seconds in self.phase_elapsed.items():
            parts.append(f"  {name:<20} {seconds:.4f} s")
        if self.messages:
            parts.append(
                f"  messages = {self.messages}, "
                f"mean size = {self.mean_message_bytes:.0f} B"
            )
        if self.metrics is not None:
            parts.append("metrics:")
            parts.extend(
                "  " + line for line in self.metrics.table().splitlines()
            )
        return "\n".join(parts)


class BSPTimer:
    """Bulk-synchronous phase timer for the conversion / enumeration
    algorithms (Figs. 2-4 of the paper).

    Within a phase, callers record per-locale compute work and
    point-to-point messages; :meth:`end_phase` converts them into the
    phase's elapsed time — the maximum over locales of local compute plus
    NIC time (per-message latencies and payload serialize at each locale's
    injection/reception port) — and accumulates it into the report.

    When a live telemetry bundle is installed (``repro.telemetry.use``),
    the timer also traces one span per (locale, phase) on the ``name``
    track, laid out sequentially on the global simulated timeline and
    carrying that locale's traffic, and attaches a metrics snapshot to the
    report.
    """

    def __init__(
        self, machine: MachineModel, n_locales: int, name: str = "bsp"
    ) -> None:
        self.machine = machine
        self.n_locales = n_locales
        self.name = name
        self.report = SimReport(ledger=CostLedger(n_locales))
        tele = current_telemetry()
        self._metrics = tele.metrics
        self._trace = tele.trace if tele.trace.enabled else None
        self._reset_phase()

    def _reset_phase(self) -> None:
        self._compute = np.zeros(self.n_locales)
        self._out_time = np.zeros(self.n_locales)
        self._in_time = np.zeros(self.n_locales)
        #: (src, dst) -> [messages, bytes] for the current phase (trace args)
        self._comm: dict[tuple[int, int], list[int]] = {}

    def add_compute(self, locale: int, seconds: float) -> None:
        self._compute[locale] += seconds

    def add_message(self, src: int, dst: int, nbytes: int) -> None:
        """Record one point-to-point message of ``nbytes`` payload."""
        self.report.messages += 1
        self.report.bytes_sent += int(nbytes)
        if self._trace is not None:
            entry = self._comm.setdefault((src, dst), [0, 0])
            entry[0] += 1
            entry[1] += int(nbytes)
        if src == dst:
            # Local "transfer": a memcpy, charged as compute.
            self._compute[src] += self.machine.memcpy_time(nbytes)
            return
        cost = self.machine.network.transfer_time(nbytes)
        self._out_time[src] += cost
        self._in_time[dst] += cost

    def end_phase(self, name: str) -> float:
        """Close the current phase and return its elapsed time."""
        per_locale = self._compute + np.maximum(self._out_time, self._in_time)
        elapsed = float(per_locale.max()) if self.n_locales else 0.0
        for locale in range(self.n_locales):
            self.report.ledger.add(name, locale, float(per_locale[locale]))
        self.report.merge_phase(name, elapsed)
        self.report.elapsed += elapsed
        if self._trace is not None:
            for locale in range(self.n_locales):
                busy = float(per_locale[locale])
                if busy > 0.0:
                    # Each span carries this locale's outgoing traffic as
                    # ``args["comm"] = [[src, dst, bytes, msgs], ...]`` so
                    # trace analysis recovers the full communication matrix
                    # without heuristics.
                    comm = [
                        [src, dst, nbytes, msgs]
                        for (src, dst), (msgs, nbytes) in sorted(
                            self._comm.items()
                        )
                        if src == locale
                    ]
                    self._trace.complete(
                        (f"locale{locale}", self.name),
                        name,
                        0.0,
                        busy,
                        {"comm": comm} if comm else None,
                    )
            self._trace.advance(elapsed)
        if self._metrics.enabled:
            self.report.metrics = self._metrics.snapshot()
        self._reset_phase()
        return elapsed
