"""The autotuner: a function from a workload to knob values.

:class:`Autotuner` ties the pieces together: fingerprint the workload
(:mod:`~repro.autotune.fingerprint`), consult the persistent cache
(:mod:`~repro.autotune.cache`), and on a miss run the two-stage search
(:mod:`~repro.autotune.search`) — an analytic coarse pass over the
scaling model followed by greedy measured refinement replaying the real
workload.  The result is a :class:`TuneResult` whose ``knobs`` are
ordinary keyword arguments of
:class:`~repro.distributed.operator.DistributedOperator`::

    knobs = Autotuner(cache).tune(compiled, basis).knobs
    operator = DistributedOperator(expression, basis, **knobs)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.autotune.cache import TuneCache
from repro.autotune.fingerprint import workload_fingerprint
from repro.autotune.search import (
    batch_candidates,
    coarse_split_candidates,
    default_knobs,
    measure_knobs,
)
from repro.distributed.operator import check_method, is_pipeline
from repro.distributed.vector import DistributedVector
from repro.perfmodel.workloads import ChainWorkload
from repro.telemetry.context import current as current_telemetry

__all__ = ["Autotuner", "TuneResult"]

_TRACK = ("autotune", "tuner")


@dataclass
class TuneResult:
    """The outcome of one tuning run (or cache hit)."""

    fingerprint: str
    knobs: dict
    default_seconds: float
    tuned_seconds: float
    clock: str
    method: str
    from_cache: bool
    n_measured: int

    @property
    def improvement(self) -> float:
        """Fractional time saved over the defaults (0.0 = no gain)."""
        if self.default_seconds <= 0.0:
            return 0.0
        return 1.0 - self.tuned_seconds / self.default_seconds

    def to_entry(self) -> dict:
        """The JSON cache entry (no volatile fields)."""
        return {
            "knobs": dict(self.knobs),
            "default_seconds": self.default_seconds,
            "tuned_seconds": self.tuned_seconds,
            "clock": self.clock,
            "method": self.method,
            "n_measured": self.n_measured,
        }

    @classmethod
    def from_entry(cls, fingerprint: str, entry: dict) -> "TuneResult":
        """The result a cache entry records (:class:`TuneCache` has
        checked the types where it read the file)."""
        return cls(
            fingerprint=fingerprint,
            knobs=dict(entry.get("knobs", {})),
            default_seconds=entry.get("default_seconds", 0.0),
            tuned_seconds=entry.get("tuned_seconds", 0.0),
            clock=entry.get("clock", "sim"),
            method=entry.get("method", "pc"),
            from_cache=True,
            n_measured=entry.get("n_measured", 0),
        )


class Autotuner:
    """Searches and caches knob settings per workload fingerprint.

    ``cache`` is a :class:`~repro.autotune.cache.TuneCache`, a path to
    one, or ``None`` for the default location.  ``samples`` is the
    best-of-N count on wall-clock backends (ignored on ``sim``, where one
    deterministic run is exact).
    """

    def __init__(
        self, cache: TuneCache | str | None = None, samples: int = 3
    ) -> None:
        self.cache = cache if isinstance(cache, TuneCache) else TuneCache(cache)
        self.samples = samples

    # -- public API ------------------------------------------------------

    def tune(
        self,
        compiled,
        basis,
        method: str = "pc",
        force: bool = False,
    ) -> TuneResult:
        """Tuned knobs for (``compiled``, ``basis``, ``method``).

        Returns the cached result when the fingerprint is known (unless
        ``force``), otherwise runs the two-stage search and persists the
        winner.  Cache hits cost one dict lookup — no matvec replays, no
        search spans in the ambient trace.  A ``method`` the operator
        refuses on this cluster raises its
        :class:`~repro.errors.ConfigError` here, before anything else.
        """
        check_method(method, basis.cluster)
        fingerprint = workload_fingerprint(compiled, basis, method)
        tele = current_telemetry()
        if not force:
            entry = self.cache.get(fingerprint)
            if entry is not None:
                tele.metrics.counter("autotune.cache_hits").inc()
                if tele.trace.enabled:
                    tele.trace.instant(
                        _TRACK,
                        "autotune.cache_hit",
                        0.0,
                        {"fingerprint": fingerprint},
                    )
                return TuneResult.from_entry(fingerprint, entry)
        result = self._search(compiled, basis, method, fingerprint)
        self.cache.put(fingerprint, result.to_entry())
        return result

    # -- the search ------------------------------------------------------

    def _search(self, compiled, basis, method, fingerprint) -> TuneResult:
        tele = current_telemetry()
        tele.metrics.counter("autotune.searches").inc()
        if tele.trace.enabled:
            tele.trace.instant(
                _TRACK, "autotune.search", 0.0, {"fingerprint": fingerprint}
            )
        # The half-filling match rate: a spin-exchange primitive fires on
        # about a quarter of the rows (the anti-aligned fraction), which
        # gives the chain's n/2 per row from its 2n off-diagonal primitives.
        workload = ChainWorkload(
            basis.n_sites, basis.dim,
            offdiag_per_row=max(compiled.n_off_diag_primitives * 0.25, 1.0),
        )
        x = DistributedVector.full_random(basis, seed=0)

        def measure(knobs: dict) -> float:
            return measure_knobs(
                compiled, basis, x, knobs, method=method,
                samples=self.samples,
            )

        n_measured = 0
        defaults = default_knobs(method)
        default_seconds = measure(defaults)
        n_measured += 1
        best_knobs, best_seconds = dict(defaults), default_seconds

        def consider(knobs: dict) -> None:
            nonlocal best_knobs, best_seconds, n_measured
            seconds = measure(knobs)
            n_measured += 1
            # Strict improvement only: on ties the earlier (more
            # default-like, deterministically ordered) candidate wins,
            # which keeps repeated searches bit-identical on sim.
            if seconds < best_seconds:
                best_knobs, best_seconds = dict(knobs), seconds

        # Stage 2a: the batch axis, everything else at defaults.  The
        # analytic model cannot rank this axis (chunk granularity is a
        # discrete-event effect), so every grid point is measured.
        for batch in batch_candidates(basis):
            if batch == defaults["batch_size"]:
                continue
            consider({**defaults, "batch_size": batch})

        # Stage 2b: work stealing and the model-pruned splits this backend
        # reads, at the winning batch.
        if is_pipeline(method) and basis.n_locales > 1:
            for split in coarse_split_candidates(basis.cluster, workload):
                consider({**best_knobs, **split})

        tele.metrics.counter("autotune.measured_runs").inc(n_measured)
        return TuneResult(
            fingerprint=fingerprint,
            knobs=best_knobs,
            default_seconds=default_seconds,
            tuned_seconds=best_seconds,
            clock="wall" if basis.cluster.wall_clock else "sim",
            method=method,
            from_cache=False,
            n_measured=n_measured,
        )
