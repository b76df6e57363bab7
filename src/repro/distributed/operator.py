"""The user-facing distributed operator.

Ties together a symbolic expression, a hash-distributed basis, and the
matvec implementations of Sec. 5.3; this is the distributed counterpart of
:class:`repro.operators.Operator` and the object the distributed Lanczos
solver drives.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.distributed.dist_basis import DistributedBasis
from repro.distributed.matvec_batched import matvec_batched
from repro.distributed.matvec_common import (
    DEFAULT_BATCH_SIZE,
    begin_matvec,
    chunk_spans,
    finish_report,
    require_simulator,
)
from repro.distributed.matvec_naive import matvec_naive
from repro.distributed.matvec_pc import (
    DEFAULT_CONSUMER_FRACTION,
    default_buffer_capacity,
    matvec_producer_consumer,
)
from repro.distributed.vector import DistributedVector
from repro.errors import CompilationError, ConfigError, FaultError
from repro.operators.compile import compile_expression
from repro.operators.expression import Expression
from repro.operators.plan import (
    MatvecPlan,
    csr_footprint,
    csr_in_recorded_order,
)
from repro.resilience.faults import ResilienceConfig
from repro.runtime.clock import SimReport
from repro.schema import Key, check
from repro.telemetry.context import current as current_telemetry

__all__ = ["DistributedOperator"]

#: ``method=`` name -> implementation: the one table the operator and the
#: autotuner dispatch on.
IMPLS = {
    "naive": matvec_naive,
    "batched": matvec_batched,
    "pc": matvec_producer_consumer,
}

#: The tunable knobs, in canonical (tie-breaking) order, each stated once:
#: name, range and default as the ``cluster.matvec`` input section, the
#: command-line flags and the autotuner's
#: ``default_knobs`` read them.  Every method takes the first; the rest are
#: the pipeline's.
MATVEC_ROWS = (
    Key(
        "cluster.matvec.batch_size", int, DEFAULT_BATCH_SIZE, min=1,
        flag="--batch-size", metavar="N",
        help="getManyRows batch size of the distributed matvec",
    ),
    Key(
        "cluster.matvec.consumer_fraction", float, DEFAULT_CONSUMER_FRACTION,
        above=0, max=1, flag="--consumer-fraction", metavar="F",
        help="fraction of each locale's cores dedicated to consumers in "
        "the producer-consumer pipeline",
    ),
    Key(
        "cluster.matvec.work_stealing", bool, False, flag="--work-stealing",
        help="let idle producers steal consumer work instead of a static "
        "core split",
    ),
)
KNOB_KEYS = tuple(row.key for row in MATVEC_ROWS)
KNOB_DEFAULTS = {row.key: row.default for row in MATVEC_ROWS}
#: What the pipeline takes besides its knobs: the hand-off unit and an
#: explicit producer/consumer split.
PIPELINE_OPTIONS = (
    "buffer_capacity", "producers_per_locale", "consumers_per_locale"
)


def is_pipeline(method: str) -> bool:
    """Whether ``method`` names the producer-consumer pipeline."""
    return method == "pc"


def knob_keys(method: str) -> tuple[str, ...]:
    """The tunable knobs ``method`` accepts."""
    return KNOB_KEYS if is_pipeline(method) else KNOB_KEYS[:1]


def _check_options(method: str, options: dict) -> None:
    """Refuse an option ``method`` does not take, or a knob value its row
    does not admit, where it is given; knob values come back as their
    row declares them."""
    takes = knob_keys(method) + (PIPELINE_OPTIONS if is_pipeline(method) else ())
    for key in options:
        if key not in takes:
            raise ConfigError(
                f"matvec method {method!r} takes no option {key!r}; "
                f"it takes {', '.join(takes)}"
            )
    for row in MATVEC_ROWS:
        if row.key in options:
            options[row.key] = check(options[row.key], row)


class DistributedOperator:
    """A Hermitian operator over a hash-distributed basis.

    ``plan=True`` (default) attaches a
    :class:`~repro.operators.plan.MatvecPlan`: the x-independent output of
    every produced chunk — matrix elements, the destination partition, and
    the consumer-side ``stateToIndex`` results — is recorded under
    ``(locale, start)`` on the first matvec, as are each locale's diagonal
    matrix elements under ``(locale, "diag")``, which is what makes
    repeated Krylov iterations cheap.  Pass a ``MatvecPlan`` instance to
    control the memory budget, or ``False`` to recompute everything each
    call.  The plan belongs to operators with these primitive tables, this
    basis object and this batch size (:meth:`MatvecPlan.claim`): another
    such operator may share it, any other raises
    :class:`~repro.errors.ConfigError`.

    What a replay is depends on the backend.  On ``sim`` the product *is*
    the schedule — every message is an event with a modelled cost — so a
    warm matvec runs ``method``'s schedule over the recorded chunks.  On a
    wall-clock backend nothing is left to schedule once every element is
    recorded: the second matvec folds the chunks into one CSR matrix per
    destination locale (``(locale, "matrix")``, :meth:`_consolidate`) and
    every later product is ``y.parts[d] = M_d @ concat(x.parts)`` on the
    calling thread — no executor, no worker, no hand-off
    (``messages == bytes_sent == 0``), two replays bit-identical.  The
    pipeline schedules the elements that must be generated there: the
    recording pass, ``plan=False``, a plan whose budget does not admit
    the matrices, any run under a fault plan.  The naive and batched
    variants are cost models and run on ``sim`` only
    (:func:`~repro.distributed.matvec_common.require_simulator`): on a
    wall-clock cluster they are a :class:`~repro.errors.ConfigError`
    here.

    The producer-consumer hand-off unit (``buffer_capacity``) defaults to
    :func:`~repro.distributed.matvec_pc.default_buffer_capacity` for the
    cluster's backend; an explicit value in ``method_options`` wins.  The
    knobs of :data:`MATVEC_ROWS` are ``method_options`` too: pass the
    values :class:`repro.autotune.Autotuner` found for this workload like
    any others.  An option ``method`` does not take (:func:`knob_keys`,
    plus :data:`PIPELINE_OPTIONS` for the pipeline), or a knob value
    outside its row, is a :class:`~repro.errors.ConfigError` here, not at
    the first product.

    ``faults`` / ``resilience`` activate the self-healing layer (they
    default to whatever is attached to the basis's cluster); only the
    pipeline (``method="pc"``) takes them, the naive and batched baselines
    raise :class:`~repro.errors.ConfigError`.  On a
    :class:`~repro.errors.FaultError` the pipeline is restarted up to
    ``resilience.matvec_restarts`` times (``recovery.matvec_restarts``) —
    crash specs are one-shot, so a restart models the rebooted cluster.
    After every matvec the per-locale busy ledger is scanned for
    stragglers (``fault.stragglers_detected``,
    ``report.extras["stragglers"]``).
    """

    def __init__(
        self,
        expression: Expression,
        basis: DistributedBasis,
        method: str = "pc",
        plan: bool | MatvecPlan = True,
        faults=None,
        resilience=None,
        **method_options,
    ) -> None:
        if method not in IMPLS:
            raise ConfigError(
                f"unknown matvec method {method!r}; choose from {sorted(IMPLS)}"
            )
        _check_options(method, method_options)
        self.basis = basis
        cluster = basis.cluster
        if not is_pipeline(method):
            require_simulator(method, cluster)
        self.faults = faults if faults is not None else getattr(
            cluster, "faults", None
        )
        resilience = resilience if resilience is not None else getattr(
            cluster, "resilience", None
        )
        if resilience is True:
            resilience = ResilienceConfig()
        if resilience is None and self.faults is not None:
            resilience = ResilienceConfig()
        self.resilience = resilience
        if resilience is not None and not is_pipeline(method):
            raise ConfigError(
                f"matvec method {method!r} takes no fault plan or resilience "
                "policy; only 'pc' recovers from faults"
            )
        self.compiled = compile_expression(expression, basis.n_sites)
        if (
            basis.template.hamming_weight is not None
            and not self.compiled.conserves_magnetization
        ):
            raise CompilationError(
                "operator does not conserve magnetization but the basis has "
                "a fixed Hamming weight"
            )
        self.method = method
        # One batch size: the one the plan is claimed for, chunked by, and
        # passed to whichever method runs.
        self.method_options = {
            "batch_size": KNOB_DEFAULTS["batch_size"], **method_options
        }
        if is_pipeline(method):
            # The hand-off unit follows the backend; an explicit value wins.
            self.method_options.setdefault(
                "buffer_capacity", default_buffer_capacity(cluster)
            )
        self.batch_size = self.method_options["batch_size"]
        if plan is True:
            self.plan: MatvecPlan | None = MatvecPlan()
        elif plan is False or plan is None:
            self.plan = None
        else:
            self.plan = plan
        if self.plan is not None:
            self.plan.claim(self.compiled.digest(), basis, self.batch_size)
        self.total_sim_time = 0.0
        self.last_report: SimReport | None = None

    def invalidate_plan(self) -> None:
        """Drop all cached matvec data (keeps the plan enabled)."""
        if self.plan is not None:
            self.plan.invalidate()

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def dtype(self) -> np.dtype:
        real = self.basis.is_real and self.compiled.is_real
        return np.dtype(np.float64 if real else np.complex128)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistributedOperator(dim={self.dim}, method={self.method!r}, "
            f"locales={self.basis.n_locales})"
        )

    def matvec(
        self, x: DistributedVector, y: DistributedVector | None = None
    ) -> DistributedVector:
        """``y = H x``; the timing report lands in :attr:`last_report` and
        accumulates into :attr:`total_sim_time`.

        Under an active resilience policy, recovers from
        :class:`~repro.errors.FaultError` by restarting the pipeline up to
        ``resilience.matvec_restarts`` times; raises the fault when that
        budget is exhausted.
        """
        matrices = self._consolidate()
        if matrices is None:
            y, report = self._scheduled(x, y)
        else:
            y, report = self._replay(matrices, x, y)
        self.last_report = report
        self.total_sim_time += report.elapsed
        return y

    def _consolidate(self):
        """One CSR matrix per destination locale, or ``None`` while elements
        must still be scheduled: on ``sim`` (the event sequence is the
        product), under a fault plan, and until the plan holds every chunk
        with its row searches done plus every diagonal (so never during the
        recording pass) and its budget admits the matrices beside them.

        ``M_d`` has shape ``(counts[d], dim)`` over the locale-order
        concatenation of ``x.parts``.  Row ``r`` holds the diagonal element,
        then the off-diagonal ones ordered by (source locale, chunk start,
        position in the chunk's slice for ``d``) — on one locale, the order
        in which the recording pass added them.  The chunk records stay in
        the plan next to the matrices: ``benchmarks/e2e/layers.py`` replays
        them.
        """
        plan, basis = self.plan, self.basis
        if plan is None or self.faults is not None or not basis.cluster.wall_clock:
            return None
        locales = range(basis.n_locales)
        folded = [(d, "matrix") for d in locales]
        if all(key in plan for key in folded):
            return [plan.get(key) for key in folded]
        counts = [int(count) for count in basis.counts]
        keys = [
            (locale, start)
            for locale in locales
            for start, _ in chunk_spans(counts[locale], self.batch_size)
        ]
        if not all(key in plan for key in keys) or not all(
            (d, "diag") in plan for d in locales if counts[d]
        ):
            return None
        records = [plan.peek(key) for key in keys]
        shapes = [(count, basis.dim) for count in counts]
        nnz = basis.counts + sum(np.diff(r.starts) for r in records)
        nbytes = sum(csr_footprint(s, n, self.dtype)[1] for s, n in zip(shapes, nnz))
        if plan.nbytes + nbytes > plan.capacity_bytes:
            return None  # they would push the records out: keep replaying those
        if any(r.rows.size and r.rows.min() < 0 for r in records):
            return None  # an interrupted pass left searches undone
        offsets = np.concatenate([[0], np.cumsum(counts)])
        for d in locales:
            slices = [
                (offsets[locale] + start, r, slice(r.starts[d], r.starts[d + 1]))
                for (locale, start), r in zip(keys, records)
            ]
            diagonal = plan.peek((d, "diag")) if counts[d] else np.empty(0)
            matrix = csr_in_recorded_order(
                shapes[d], self.dtype,
                (offsets[d] + np.arange(counts[d]), diagonal),
                (r.rows[s] for _, r, s in slices),
                (
                    (r.rows[s], first + r.sources[s], r.amplitudes[s])
                    for first, r, s in slices
                ),
            )
            plan.put(folded[d], matrix)
        return [plan.get(key) for key in folded]

    def _replay(
        self, matrices, x: DistributedVector, y: DistributedVector | None
    ) -> tuple[DistributedVector, SimReport]:
        """``y.parts[d] = M_d @ concat(x.parts)``, one SpMV after the other
        on the calling thread (handing one to a worker costs more than it
        takes, ``docs/BACKENDS.md``).  Nothing is handed over, so the
        report counts no message; the trace gets one span per locale."""
        wall_start = perf_counter()
        y, report, metrics, trace = begin_matvec(
            self.basis, x, y, self.batch_size
        )
        columns = np.concatenate(x.parts)
        for d, matrix in enumerate(matrices):
            since = perf_counter()
            y.parts[d][...] = matrix @ columns
            if trace is not None:
                trace.complete(
                    (f"locale{d}", "worker0"), "matvec", since - wall_start,
                    perf_counter() - since,
                )
        report.elapsed = perf_counter() - wall_start
        report.merge_phase("matvec", report.elapsed)
        if trace is not None:
            trace.mark_wall()
            trace.advance(report.elapsed)
        return finish_report(report, x, y, metrics, True)

    def _scheduled(
        self, x: DistributedVector, y: DistributedVector | None
    ) -> tuple[DistributedVector, SimReport]:
        """Generate (or replay chunk by chunk) under ``method``'s schedule,
        healing as :meth:`matvec` describes."""
        impl = IMPLS[self.method]
        resilient = self.resilience is not None  # a fault plan implies one
        kwargs = dict(self.method_options)
        if resilient:
            kwargs.update(faults=self.faults, resilience=self.resilience)
        restarts = 0
        while True:
            try:
                y, report = impl(
                    self.compiled,
                    self.basis,
                    x,
                    y,
                    plan=self.plan,
                    **kwargs,
                )
                break
            except FaultError:
                restarts += 1
                if not resilient or restarts > self.resilience.matvec_restarts:
                    raise
                current_telemetry().metrics.counter(
                    "recovery.matvec_restarts"
                ).inc()
        if resilient:
            self._detect_stragglers(report)
        return y, report

    def _detect_stragglers(self, report: SimReport) -> None:
        """Flag locales whose busy time dwarfs the median (telemetry feed).

        Uses the per-locale cost ledger that every variant already fills —
        the same numbers the trace analysis reports — so detection costs
        nothing extra on the hot path.
        """
        ledger = report.ledger
        if ledger is None or ledger.n_locales < 2:
            return
        busy = ledger.locale_totals()
        median = float(np.median(busy))
        if median <= 0.0:
            return
        threshold = self.resilience.straggler_threshold
        stragglers = np.flatnonzero(busy > threshold * median)
        if stragglers.size:
            metrics = current_telemetry().metrics
            for locale in stragglers:
                metrics.counter(
                    "fault.stragglers_detected", locale=int(locale)
                ).inc()
            report.extras["stragglers"] = float(stragglers.size)

    def __matmul__(self, x):
        if isinstance(x, DistributedVector):
            return self.matvec(x)
        return NotImplemented
