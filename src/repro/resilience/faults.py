"""Seeded deterministic fault injection and the recovery policy knobs.

A :class:`FaultPlan` is the single source of randomness for everything the
fault layer does.  It owns one ``numpy`` generator seeded at construction;
every consultation (:meth:`FaultPlan.message_fate`, once per remote
message of the discrete-event pipeline) draws from that generator in a
fixed order.  Because the discrete-event simulator itself is deterministic
(heap ties broken by sequence number), the combination *plan seed ->
identical fault schedule -> identical simulation* holds exactly, which is
what makes chaos runs replayable and the determinism tests in
``tests/test_resilience.py`` possible.

The real ``threads`` backend cannot rely on a fixed draw order — thread
interleaving is nondeterministic — so it consults
:meth:`FaultPlan.message_fate_keyed` instead, which derives each fate from
a generator seeded on the *message identity* ``(seed, src, dst, seq,
salt)``.  The same seeded plan then injects the same fate for the same
message on every run, independent of scheduling, without perturbing the
sequential draws the simulator's baselines are pinned to.

Crash faults are *one-shot*: :meth:`FaultPlan.take_crashes` hands the
pending crash schedule to the first consumer and marks it consumed, so a
restarted matvec models the post-reboot cluster rather than crashing
forever.  Use :meth:`FaultPlan.fresh` to rewind a plan for an
independent replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro import telemetry
from repro.errors import ConfigError
from repro.schema import Key, check, validate

__all__ = [
    "FaultPlan",
    "MessageFate",
    "ResilienceConfig",
    "FAULT_ROWS",
    "RESILIENCE_ROWS",
]

_PROBABILITY = {"min": 0, "max": 1}

#: The keys of a fault plan in a ``cluster.faults`` section / ``--faults``
#: file (:meth:`FaultPlan.from_config`; the constructor documents them).
FAULT_ROWS = (
    Key("cluster.faults.seed", int, min=0,
        help="seed of the plan's private RNG"),
    Key("cluster.faults.drop", float, **_PROBABILITY,
        help="probability that a remote message is dropped"),
    Key("cluster.faults.duplicate", float, **_PROBABILITY,
        help="probability that a remote message is delivered twice"),
    Key("cluster.faults.delay", float, **_PROBABILITY,
        help="probability that a remote message is delayed"),
    Key("cluster.faults.max_delay", float, min=0,
        help="upper bound of the injected delay, simulated seconds"),
    Key("cluster.faults.corrupt", float, **_PROBABILITY,
        help="probability that a payload is corrupted on the wire"),
    Key("cluster.faults.stragglers", dict,
        help="{locale: slowdown factor} of every busy period there"),
    Key("cluster.faults.crashes", dict,
        help="{locale: simulated time at which it dies}"),
)


@dataclass(frozen=True)
class MessageFate:
    """The injected fate of a single remote message."""

    drop: bool = False
    duplicate: bool = False
    corrupt: bool = False
    extra_delay: float = 0.0


class FaultPlan:
    """A deterministic, seeded schedule of injected faults.

    Parameters
    ----------
    seed:
        Seed for the plan's private RNG.  Same seed -> same fault schedule.
    drop, duplicate, delay, corrupt:
        Per-remote-message probabilities of, respectively, dropping the
        delivery, delivering it twice, delaying it, and corrupting the
        payload bytes on the wire (caught by checksums).
    max_delay:
        Upper bound (simulated seconds) of the uniform extra delay applied
        to delayed messages.
    stragglers:
        ``{locale: slowdown_factor}`` — every busy period on that locale
        takes ``factor`` (finite, >= 1) times longer.
    crashes:
        ``{locale: time}`` — the locale dies at the given simulated time
        (finite, >= 0; its processes are killed, its memory is lost).
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        drop: float = 0.0,
        duplicate: float = 0.0,
        delay: float = 0.0,
        max_delay: float = 0.0,
        corrupt: float = 0.0,
        stragglers: Mapping[int, float] | None = None,
        crashes: Mapping[int, float] | None = None,
    ) -> None:
        for name, p in (
            ("drop", drop), ("duplicate", duplicate),
            ("delay", delay), ("corrupt", corrupt),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} probability {p} outside [0, 1]")
        stragglers = dict(stragglers) if stragglers else {}
        crashes = dict(crashes) if crashes else {}
        for key, values, lowest in (
            ("stragglers", stragglers, 1.0), ("crashes", crashes, 0.0)
        ):
            for locale, value in values.items():
                if not (math.isfinite(value) and value >= lowest):
                    raise ValueError(
                        f"{key}.{locale} must be a finite number >= "
                        f"{lowest:g}, got {value!r}"
                    )
        self.seed = int(seed)
        self.drop = float(drop)
        self.duplicate = float(duplicate)
        self.delay = float(delay)
        self.max_delay = float(max_delay)
        self.corrupt = float(corrupt)
        self.stragglers = stragglers
        self.crashes = crashes
        self._rng = np.random.default_rng(self.seed)
        self._crashes_taken = False

    # -- deterministic draws ------------------------------------------------

    @property
    def injects_message_faults(self) -> bool:
        return (
            self.drop > 0 or self.duplicate > 0
            or self.delay > 0 or self.corrupt > 0
        )

    def message_fate(self, src: int, dst: int) -> MessageFate:
        """Draw the fate of one remote message (``src -> dst``).

        Consumes a fixed number of uniforms per call regardless of which
        probabilities are zero, so the schedule is insensitive to metric
        plumbing and easy to reason about.
        """
        if not self.injects_message_faults:
            return _CLEAN_FATE
        return self._fate(self._rng.random(4), src, dst)

    def message_fate_keyed(
        self, src: int, dst: int, seq: int, salt: int = 0
    ) -> MessageFate:
        """Draw the fate of message ``seq`` on the ``src -> dst`` edge.

        Unlike :meth:`message_fate`, which consumes the plan's sequential
        RNG stream (and therefore requires a deterministic consultation
        *order*), this derives the fate from ``(seed, src, dst, seq,
        salt)`` alone.  Any thread can ask about any message in any order
        and get the same answer, which is what makes a seeded plan
        reproducible on the real ``threads`` backend where message timing
        is wall-clock and interleaving is host-dependent.  ``salt``
        disambiguates parallel streams sharing an edge (e.g. one per
        transfer buffer).  The simulator keeps using the sequential draw
        so its baselines stay bit-identical.
        """
        if not self.injects_message_faults:
            return _CLEAN_FATE
        u = np.random.default_rng(
            (self.seed, int(src), int(dst), int(seq), int(salt))
        ).random(4)
        return self._fate(u, src, dst)

    def _fate(self, u: np.ndarray, src: int, dst: int) -> MessageFate:
        """The fate four uniforms ``u`` give one ``src -> dst`` message."""
        extra = float(u[3] * self.max_delay) if u[3] < self.delay else 0.0
        fate = MessageFate(
            bool(u[0] < self.drop), bool(u[1] < self.duplicate),
            bool(u[2] < self.corrupt), extra,
        )
        metrics = telemetry.current().metrics
        if fate.drop:
            metrics.counter("fault.drops", src=src, dst=dst).inc()
        if fate.duplicate:
            metrics.counter("fault.duplicates").inc()
        if fate.corrupt:
            metrics.counter("fault.corruptions").inc()
        if extra > 0.0:
            metrics.counter("fault.delays").inc()
        return fate

    # -- locale-level faults ------------------------------------------------

    def slowdown(self, locale: int | None) -> float:
        """Straggler factor for a locale (1.0 = healthy)."""
        if locale is None:
            return 1.0
        return float(self.stragglers.get(locale, 1.0))

    def take_crashes(self) -> dict[int, float]:
        """Consume the crash schedule (one-shot: a crashed node reboots).

        The first caller gets ``{locale: crash_time}``; later callers get
        an empty dict, so a restarted matvec runs on the rebooted
        cluster instead of re-crashing deterministically forever.
        """
        if self._crashes_taken:
            return {}
        self._crashes_taken = True
        return dict(self.crashes)

    def record_crash(self, locale: int) -> None:
        """Count a crash actually delivered by the simulator."""
        telemetry.current().metrics.counter(
            "fault.crashes", locale=locale
        ).inc()

    # -- lifecycle / serialisation ------------------------------------------

    def fresh(self) -> "FaultPlan":
        """A rewound copy: same parameters and seed, untouched RNG."""
        return FaultPlan.from_config(self.to_config())

    def to_config(self) -> dict[str, Any]:
        cfg: dict[str, Any] = {"seed": self.seed}
        for key in ("drop", "duplicate", "delay", "max_delay", "corrupt"):
            value = getattr(self, key)
            if value:
                cfg[key] = value
        if self.stragglers:
            cfg["stragglers"] = {str(k): v for k, v in self.stragglers.items()}
        if self.crashes:
            cfg["crashes"] = {str(k): v for k, v in self.crashes.items()}
        return cfg

    @classmethod
    def from_config(cls, cfg: Mapping[str, Any]) -> "FaultPlan":
        """Build a plan from a JSON-style mapping (config files / CLI);
        anything :data:`FAULT_ROWS` does not allow is a
        :class:`~repro.errors.ConfigError`."""
        kwargs = validate(cfg, FAULT_ROWS, "cluster.faults", fill=False)
        for key in ("stragglers", "crashes"):
            try:
                kwargs[key] = {
                    int(locale): float(value)
                    for locale, value in kwargs.get(key, {}).items()
                }
            except (TypeError, ValueError):
                raise ConfigError(
                    f"cluster.faults.{key} must map locale numbers to "
                    f"numbers, got {kwargs[key]!r}"
                ) from None
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"cluster.faults.{exc}") from None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan({self.to_config()!r})"


_CLEAN_FATE = MessageFate()


@dataclass(frozen=True)
class ResilienceConfig:
    """Recovery policy for the self-healing distributed matvec.

    ``ack_timeout`` must comfortably exceed the longest *fault-free* gap
    between a send and its acknowledgement (including consumer backlog
    stalls), otherwise healthy runs pay spurious retransmits; the default
    is far above the microsecond-scale stalls of the simulated machines.
    """

    #: simulated seconds to wait for a handoff ack before retransmitting
    ack_timeout: float = 0.05
    #: multiplier applied to the timeout after every failed attempt
    backoff: float = 2.0
    #: retransmits per payload before the producer raises FaultError
    max_retries: int = 8
    #: CRC32-checksum every transferred amplitude batch (detects corruption)
    checksums: bool = True
    #: full restarts of the pipeline after a FaultError (crash recovery)
    matvec_restarts: int = 1
    #: flag a locale as straggler when busy > threshold * median busy
    straggler_threshold: float = 3.0
    #: wall seconds the ThreadExecutor deadlock watchdog waits before
    #: declaring all-blocked workers deadlocked (threads backend only)
    watchdog_timeout: float = 20.0

    def __post_init__(self) -> None:
        """Every field as :data:`RESILIENCE_ROWS` declares it, or
        :class:`~repro.errors.ConfigError` (the rules ``from_config``
        applies)."""
        for row in RESILIENCE_ROWS:
            check(getattr(self, row.key), row)

    def to_config(self) -> dict[str, Any]:
        """JSON-style mapping that round-trips through :meth:`from_config`."""
        return {
            row.key: getattr(self, row.key)
            for row in RESILIENCE_ROWS
            if getattr(self, row.key) != row.default
        }

    @classmethod
    def from_config(cls, cfg: Mapping[str, Any]) -> "ResilienceConfig":
        """Anything :data:`RESILIENCE_ROWS` does not allow is a
        :class:`~repro.errors.ConfigError`."""
        return cls(
            **validate(cfg, RESILIENCE_ROWS, "cluster.resilience", fill=False)
        )


#: The keys of a ``cluster.resilience`` section, one per field above (the
#: field comments are the long form; the defaults are the fields').
RESILIENCE_ROWS = tuple(
    row._replace(default=getattr(ResilienceConfig, row.key)) for row in (
        Key("cluster.resilience.ack_timeout", float, above=0,
            help="simulated seconds to wait for a hand-off ack before "
            "retransmitting"),
        Key("cluster.resilience.backoff", float, min=1,
            help="timeout multiplier after every failed attempt"),
        Key("cluster.resilience.max_retries", int, min=0,
            help="retransmits per payload before the producer raises FaultError"),
        Key("cluster.resilience.checksums", bool,
            help="CRC32-checksum every transferred amplitude batch"),
        Key("cluster.resilience.matvec_restarts", int, min=0,
            help="full restarts of the pipeline after a FaultError"),
        Key("cluster.resilience.straggler_threshold", float, above=1,
            help="flag a locale whose busy time exceeds this multiple of the "
            "median"),
        Key("cluster.resilience.watchdog_timeout", float, above=0,
            flag="--watchdog-timeout", metavar="SECONDS",
            help="threads-backend stall watchdog: escalate a typed error when "
            "every live worker has been blocked this long"),
    )
)
