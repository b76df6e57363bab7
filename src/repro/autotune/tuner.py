"""The autotuner: closes the telemetry -> knobs loop.

:class:`Autotuner` ties the pieces together: fingerprint the workload
(:mod:`~repro.autotune.fingerprint`), consult the persistent cache
(:mod:`~repro.autotune.cache`), and on a miss run the two-stage search
(:mod:`~repro.autotune.search`) — an analytic coarse pass over the
scaling model followed by greedy measured refinement replaying the real
workload.  The result is a :class:`TuneResult`; operators apply it via
``DistributedOperator(..., tune="auto")``.

On the ``threads`` backend the tuner additionally cross-checks the
machine model against reality: it replays the tuned configuration on a
sim-backend clone of the same basis and runs
:func:`repro.telemetry.analysis.calibrate_traces` over the (model,
measured) trace pair, recording the makespan ratio in the result — the
sanity check that the analytic coarse pass pruned from a model that
still tracks this machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

from repro import telemetry
from repro.autotune.cache import TuneCache
from repro.autotune.fingerprint import workload_fingerprint
from repro.autotune.search import (
    OperatorWorkload,
    batch_candidates,
    coarse_split_candidates,
    default_knobs,
    measure_knobs,
    method_kwargs,
    seed_candidates_from_dir,
)
from repro.distributed.operator import IMPLS, KNOB_KEYS, is_pipeline
from repro.telemetry.context import current as current_telemetry

__all__ = ["Autotuner", "TuneResult"]

#: Safety factor on the measured plan size when deriving the plan-cache
#: budget knob (leave room for the allocator's slack).
PLAN_BUDGET_MARGIN = 1.25

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
    calibration: dict | None = field(default=None)

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
            "calibration": self.calibration,
        }

    @classmethod
    def from_entry(cls, fingerprint: str, entry: dict) -> "TuneResult":
        return cls(
            fingerprint=fingerprint,
            knobs=dict(entry.get("knobs", {})),
            default_seconds=float(entry.get("default_seconds", 0.0)),
            tuned_seconds=float(entry.get("tuned_seconds", 0.0)),
            clock=str(entry.get("clock", "sim")),
            method=str(entry.get("method", "pc")),
            from_cache=True,
            n_measured=int(entry.get("n_measured", 0)),
            calibration=entry.get("calibration"),
        )


def _candidate_order_key(knobs: dict) -> tuple:
    """Deterministic tie-break: prefer the default-most assignment."""
    return tuple(
        (knobs.get(key) is not None, knobs.get(key)) for key in KNOB_KEYS
    )


class Autotuner:
    """Searches and caches knob settings per workload fingerprint.

    ``cache`` is a :class:`~repro.autotune.cache.TuneCache`, a path to
    one, or ``None`` for the default location.  ``seed_dir`` points at a
    directory of benchmark artifacts whose recorded ``"knobs"`` rows
    seed the measured stage (prior sweep data competes with the
    generated grid).  ``samples`` is the best-of-N count on wall-clock
    backends (ignored on ``sim``, where one deterministic run is exact).
    """

    def __init__(
        self,
        cache: TuneCache | str | None = None,
        samples: int = 3,
        seed_dir=None,
    ) -> None:
        self.cache = cache if isinstance(cache, TuneCache) else TuneCache(cache)
        self.samples = samples
        self.seed_dir = seed_dir

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
        search spans in the ambient trace.
        """
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
        from repro.distributed.vector import DistributedVector

        tele = current_telemetry()
        tele.metrics.counter("autotune.searches").inc()
        if tele.trace.enabled:
            tele.trace.instant(
                _TRACK, "autotune.search", 0.0, {"fingerprint": fingerprint}
            )
        wall_clock = basis.cluster.wall_clock
        machine = basis.cluster.machine
        n_locales = basis.n_locales
        workload = OperatorWorkload.from_operator(compiled, basis)
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

        # Stage 2b: model-pruned splits + work stealing at the winning
        # batch (stage 1 ran inside coarse_split_candidates).
        if is_pipeline(method) and n_locales > 1:
            for split in coarse_split_candidates(
                machine, workload, n_locales
            ):
                candidate = {**best_knobs, **split}
                if candidate == best_knobs:
                    continue
                consider(candidate)

        # Prior sweep artifacts compete as-is (satellite: sweeps emit
        # machine-readable knobs rows exactly so they can seed this).
        if self.seed_dir is not None:
            seeds = seed_candidates_from_dir(self.seed_dir)
            seeds.sort(key=_candidate_order_key)
            for seed in seeds:
                candidate = {**defaults, **seed}
                if candidate != best_knobs and candidate != defaults:
                    consider(candidate)

        tele.metrics.counter("autotune.measured_runs").inc(n_measured)
        knobs = dict(best_knobs)
        knobs["plan_cache_bytes"] = self._plan_budget(
            compiled, basis, x, knobs, method
        )
        calibration = None
        if wall_clock:
            calibration = self._calibrate(compiled, basis, x, knobs, method)
        return TuneResult(
            fingerprint=fingerprint,
            knobs=knobs,
            default_seconds=default_seconds,
            tuned_seconds=best_seconds,
            clock="wall" if wall_clock else "sim",
            method=method,
            from_cache=False,
            n_measured=n_measured,
            calibration=calibration,
        )

    def _plan_budget(self, compiled, basis, x, knobs, method) -> int:
        """Size the plan-cache budget from the measured plan footprint.

        One quarantined planned replay fills a fresh
        :class:`~repro.operators.plan.MatvecPlan`; the knob is the
        observed footprint plus margin, capped at the capacity planner's
        per-locale ceiling — enough to never evict this workload, never
        more than the memory model allows.
        """
        from repro.operators.plan import MatvecPlan
        from repro.perfmodel.capacity import plan_cache_budget

        ceiling = plan_cache_budget()
        plan = MatvecPlan(capacity_bytes=ceiling)
        kwargs = method_kwargs(knobs, method, basis.cluster)
        with telemetry.use(None):
            IMPLS[method](compiled, basis, x, None, plan=plan, **kwargs)
        measured = int(plan.nbytes)
        if measured <= 0:
            return ceiling
        return min(int(ceil(measured * PLAN_BUDGET_MARGIN)), ceiling)

    def _calibrate(self, compiled, basis, x, knobs, method) -> dict | None:
        """Model-vs-measured sanity check on the threads backend.

        Replays the tuned configuration once on a sim-backend clone of
        the basis (same template, same parts — only the executor
        differs) and once on the real backend, both traced, and runs the
        calibrate machinery over the pair.  Returns the makespan ratio
        plus the per-phase ratio table, or ``None`` when either replay
        cannot be traced.
        """
        from repro.distributed.dist_basis import DistributedBasis
        from repro.distributed.matvec_pc import matvec_producer_consumer
        from repro.distributed.vector import DistributedVector
        from repro.runtime.cluster import Cluster
        from repro.telemetry.analysis import calibrate_traces
        from repro.telemetry.context import Telemetry

        if not is_pipeline(method):
            return None
        sim_cluster = Cluster(
            basis.n_locales, machine=basis.cluster.machine, backend="sim"
        )
        sim_basis = DistributedBasis(sim_cluster, basis.template, basis.parts)
        sim_x = DistributedVector(sim_basis, x.parts)
        model_tele = Telemetry.enabled(metrics=False)
        with telemetry.use(model_tele):
            matvec_producer_consumer(
                compiled, sim_basis, sim_x, None, plan=None,
                **method_kwargs(knobs, method, sim_cluster),
            )
        measured_tele = Telemetry.enabled(metrics=False)
        with telemetry.use(measured_tele):
            matvec_producer_consumer(
                compiled, basis, x, None, plan=None,
                **method_kwargs(knobs, method, basis.cluster),
            )
        report = calibrate_traces(
            model_tele.trace.to_chrome(), measured_tele.trace.to_chrome()
        )
        return {
            "makespan_ratio": report["makespan_ratio"],
            "phases": report["phases"],
        }
