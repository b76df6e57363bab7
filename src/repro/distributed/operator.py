"""The user-facing distributed operator.

Ties together a symbolic expression, a hash-distributed basis, and the
matvec implementations of Sec. 5.3; this is the distributed counterpart of
:class:`repro.operators.Operator` and the object the distributed Lanczos
solver drives.
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter

import numpy as np

from repro.distributed.dist_basis import DistributedBasis
from repro.distributed.matvec_batched import matvec_batched
from repro.distributed.matvec_common import (
    DEFAULT_BATCH_SIZE,
    begin_matvec,
    check_vectors,
    chunk_spans,
    finish_report,
    logged_additions,
    require_simulator,
)
from repro.distributed.matvec_naive import matvec_naive
from repro.distributed.matvec_pc import (
    DEFAULT_CONSUMER_FRACTION,
    default_buffer_capacity,
    matvec_producer_consumer,
)
from repro.distributed.vector import DistributedVector
from repro.errors import ConfigError, FaultError
from repro.operators.expression import Expression
from repro.operators.operator import BasisOperator
from repro.operators.plan import (
    MatvecPlan,
    csr_footprint,
    csr_in_recorded_order,
)
from repro.resilience.faults import ResilienceConfig
from repro.runtime.clock import SimReport
from repro.schema import Key, check
from repro.telemetry.context import Recording
from repro.telemetry.context import current as current_telemetry
from repro.telemetry.context import use as use_telemetry

__all__ = ["DistributedOperator"]

#: ``method=`` name -> implementation: the one table the operator
#: dispatches on.
IMPLS = {
    "naive": matvec_naive,
    "batched": matvec_batched,
    "pc": matvec_producer_consumer,
}

#: The pipeline knobs of Sec. 5.3/6.3, each stated once: name, range and
#: default as the ``cluster.matvec`` input section, the command-line flags
#: and the operator read them.  Every method takes the first; the rest are
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
#: What the pipeline takes besides its knobs: the hand-off unit and an
#: explicit producer/consumer split.
PIPELINE_OPTIONS = (
    "buffer_capacity", "producers_per_locale", "consumers_per_locale"
)


def is_pipeline(method: str) -> bool:
    """Whether ``method`` names the producer-consumer pipeline."""
    return method == "pc"


def _check_options(method: str, cluster, options: dict) -> None:
    """Refuse a ``method`` name there is no implementation of, a cost model
    on a wall-clock ``cluster``, an option ``method`` does not take, a knob
    value its row does not admit, or a ``consumer_fraction`` that would not
    take effect, where it is given; knob values come back as their row
    declares them."""
    if method not in IMPLS:
        raise ConfigError(
            f"unknown matvec method {method!r}; choose from {sorted(IMPLS)}"
        )
    if is_pipeline(method):
        takes = KNOB_KEYS + PIPELINE_OPTIONS
    else:
        require_simulator(method, cluster)
        takes = KNOB_KEYS[:1]
    for key in options:
        if key not in takes:
            raise ConfigError(
                f"matvec method {method!r} takes no option {key!r}; "
                f"it takes {', '.join(takes)}"
            )
    for row in MATVEC_ROWS:
        if row.key in options:
            options[row.key] = check(options[row.key], row)
    counts = ("producers_per_locale", "consumers_per_locale")
    if "consumer_fraction" in options and (
        cluster.wall_clock or any(key in options for key in counts)
    ):
        # Threads run one producer and one consumer per locale unless
        # both counts are given; given counts are the split.
        raise ConfigError(
            "cluster.matvec.consumer_fraction has no effect on a wall-clock "
            "cluster or beside explicit worker counts; give "
            f"{' and '.join(counts)} instead"
        )


class DistributedOperator(BasisOperator):
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

    Once the plan holds every element, a warm matvec is one SpMV per
    destination locale on both backends, ``y.parts[d] = M_d @
    concat(x.parts)`` on the calling thread — no executor, no worker, no
    hand-off — and two replays are bit-identical.  What differs is what
    the product reports.  On a wall-clock backend the second matvec folds
    the chunks into the matrices (``(locale, "matrix")``,
    :meth:`_consolidate`) and a replay measures itself
    (``messages == bytes_sent == 0``).  On ``sim`` the product is the
    schedule: the matvec that leaves the plan complete runs ``method``'s
    schedule once more, out of sight, and keeps a record of it
    (:meth:`_simulated`) — the report, every metric update and trace call,
    and the matrices built in the order its consumers added into ``y`` —
    so every later product of that width reports, traces and counts
    exactly what that simulation did, with the same ``y`` to 1e-14
    relative (the paper's Sec. 5.3 accumulation order; each matrix entry
    carries its row's norm, which the simulation's consumers multiplied in
    after ``x``).  The
    schedule runs whenever elements must be generated or the plan cannot
    hold the matrices: the recording pass, ``plan=False``, a plan whose
    budget does not admit the matrices, any run under a fault plan.  The
    naive and batched variants are cost models and run on ``sim`` only
    (:func:`~repro.distributed.matvec_common.require_simulator`): on a
    wall-clock cluster they are a :class:`~repro.errors.ConfigError`
    here.

    The producer-consumer hand-off unit (``buffer_capacity``) defaults to
    :func:`~repro.distributed.matvec_pc.default_buffer_capacity` for the
    cluster's backend; an explicit value in ``method_options`` wins.  The
    knobs of :data:`MATVEC_ROWS` are ``method_options`` too, set by hand
    (:func:`~repro.perfmodel.models.recommend_split` gives the model's
    reading of the split).  An unknown ``method``, an option it does not
    take (every method takes ``batch_size``, the pipeline the other knobs
    and :data:`PIPELINE_OPTIONS`), a knob value outside its row, or a
    ``consumer_fraction`` where it would not take effect (on a wall-clock
    cluster, or beside explicit ``producers_per_locale`` /
    ``consumers_per_locale``), is a :class:`~repro.errors.ConfigError`
    here, not at the first product.

    ``faults`` (a :class:`~repro.resilience.faults.FaultPlan`) and
    ``resilience`` (a :class:`~repro.resilience.faults.ResilienceConfig`)
    activate the self-healing layer; this is the one way they reach a
    product, and a fault plan alone runs under the default policy.  Only
    the pipeline (``method="pc"``) takes them, the naive and batched
    baselines raise :class:`~repro.errors.ConfigError`.  On a
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
        _check_options(method, basis.cluster, method_options)
        if resilience is None and faults is not None:
            resilience = ResilienceConfig()  # a fault plan implies the default policy
        if resilience is not None and not is_pipeline(method):
            raise ConfigError(
                f"matvec method {method!r} takes no fault plan or resilience "
                "policy; only 'pc' recovers from faults"
            )
        self.faults, self.resilience = faults, resilience
        self.method = method
        # One batch size: the one the plan is claimed for, chunked by, and
        # passed to whichever method runs.
        self.method_options = {
            "batch_size": DEFAULT_BATCH_SIZE, **method_options
        }
        if is_pipeline(method):
            # The hand-off unit follows the backend; an explicit value wins.
            self.method_options.setdefault(
                "buffer_capacity", default_buffer_capacity(basis.cluster)
            )
        super().__init__(
            expression, basis, basis.template,
            self.method_options["batch_size"], plan,
        )
        self.total_sim_time = 0.0
        self.last_report: SimReport | None = None

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
        replays = self.plan is not None and self.faults is None
        if replays and not self.basis.cluster.wall_clock:
            y, report = self._simulated(x, y)
        elif replays and (matrices := self._consolidate()) is not None:
            y, report = self._replay(matrices, x, y)
        else:
            y, report = self._scheduled(x, y)
        self.last_report = report
        self.total_sim_time += report.elapsed
        return y

    def _complete(self):
        """The chunk keys ``(locale, start)``, in order, once the plan holds
        every chunk with its row searches done plus every diagonal (so
        never during the recording pass) and its budget admits the
        matrices beside them; else ``None``."""
        plan, basis = self.plan, self.basis
        counts = [int(count) for count in basis.counts]
        keys = [
            (locale, start)
            for locale, count in enumerate(counts)
            for start, _ in chunk_spans(count, self.batch_size)
        ]
        if not all(key in plan for key in keys) or not all(
            (d, "diag") in plan for d, count in enumerate(counts) if count
        ):
            return None
        records = [plan.peek(key) for key in keys]
        nnz = basis.counts + sum(np.diff(r.starts) for r in records)
        nbytes = sum(
            csr_footprint((c, basis.dim), n, self.dtype)[1] for c, n in zip(counts, nnz)
        )
        if plan.nbytes + nbytes > plan.capacity_bytes:
            return None  # they would push the records out: keep replaying those
        if any(r.rows.size and r.rows.min() < 0 for r in records):
            return None  # an interrupted pass left searches undone
        return keys

    def _logged(self, keys, additions):
        """The piece (see :meth:`_fold`) of each addition
        :func:`~repro.distributed.matvec_common.logged_additions` logged: a
        locale's diagonal, or a view into the search cache of one of the
        chunks ``keys``, found by its address among the caches."""
        caches = sorted(
            (self.plan.peek(key).rows.ctypes.data, key)
            for key in keys if self.plan.peek(key).rows.size
        )
        bases = np.array([base for base, _ in caches])
        for d, rows in additions:
            if rows is None:
                yield d, None, None
                continue
            base, key = caches[np.searchsorted(bases, rows.ctypes.data, "right") - 1]
            lo = (rows.ctypes.data - base) // rows.itemsize
            yield d, key, slice(lo, lo + rows.size)

    def _fold(self, pieces):
        """One CSR matrix per destination locale ``d``, of shape
        ``(counts[d], dim)`` over the locale-order concatenation of
        ``x.parts``, from ``(d, key, span)`` pieces: the elements ``span``
        of the chunk ``key`` (``None``: locale ``d``'s diagonal).  Row ``r``
        holds its elements piece after piece, so ``M_d @ x`` adds them in
        the order the pieces are given (:func:`csr_in_recorded_order`).
        A chunk's amplitudes get the norm :func:`consume` multiplies in at
        row ``r`` (``a * sqrt(N_r)``, where a product adds ``(a * x) *
        sqrt(N_r)``: the same to rounding), so a replay is the SpMV alone."""
        plan, counts, dim = self.plan, self.basis.counts, self.basis.dim
        norms = self.basis.norms or [None] * len(counts)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        views = []  # (d, rows, sources, values, first column, norms): no copies
        for d, key, span in pieces:
            if key is None:
                diagonal = np.arange(counts[d])
                views.append((d, diagonal, diagonal, plan.peek((d, "diag")), offsets[d], None))
            else:
                r, first = plan.peek(key), offsets[key[0]] + key[1]
                views.append((d, r.rows[span], r.sources[span], r.amplitudes[span], first, norms[d]))
        return [
            csr_in_recorded_order(
                (int(n), dim), self.dtype,
                (rows for to, rows, *_ in views if to == d),
                # A piece's columns and values are made as the builder places it.
                ((rows, first + sources, values if norm is None else values * norm[rows])
                 for to, rows, sources, values, first, norm in views if to == d),
            )
            for d, n in enumerate(counts)
        ]

    def _consolidate(self):
        """On a wall-clock backend: one CSR matrix per destination locale
        (``(locale, "matrix")``), or ``None`` while elements must still be
        scheduled (:meth:`_complete`).

        Row ``r`` holds the diagonal element, then the off-diagonal ones
        ordered by (source locale, chunk start, position in the chunk's
        slice for ``d``) — on one locale, the order in which the recording
        pass added them.  The chunk records stay in the plan next to the
        matrices: ``benchmarks/e2e/layers.py`` replays them.
        """
        plan, locales = self.plan, range(self.basis.n_locales)
        folded = [(d, "matrix") for d in locales]
        if all(key in plan for key in folded):
            return [plan.get(key) for key in folded]
        if (keys := self._complete()) is None:
            return None
        pieces = [(d, None, None) for d in locales if (d, "diag") in plan]
        for key in keys:
            starts = plan.peek(key).starts
            pieces += [(d, key, slice(starts[d], starts[d + 1])) for d in locales]
        for key, matrix in zip(folded, self._fold(pieces)):
            plan.put(key, matrix)
        return [plan.get(key) for key in folded]

    def _record_key(self, x: DistributedVector) -> tuple:
        """What a simulated product depends on besides the plan: the
        method with its options and policy, and ``x``'s width.  Not its
        dtype: the matrices are the operator's and the schedule is the
        same, so a real and a complex operand share one record.  Operators
        sharing a plan share the records of equal keys."""
        options = tuple(sorted(self.method_options.items()))
        return ("replay", self.method, options, self.resilience, x.n_columns)

    def _simulated(
        self, x: DistributedVector, y: DistributedVector | None
    ) -> tuple[DistributedVector, SimReport]:
        """On ``sim``: replay the record of a product like this one, or run
        the schedule and, if that left the plan complete
        (:meth:`_complete`), make one: run the product once more under a
        private :class:`~repro.telemetry.context.Recording`, with its
        additions into ``y`` logged, and :meth:`_fold` the matrices in the
        logged order.  ``(report, recording, matrices)`` goes into the plan
        if the matrices give that product's ``y`` (to rounding); else — an
        addition :meth:`_logged` placed wrongly — the operator keeps
        simulating.  A replay is one SpMV per locale, the record's
        telemetry log written to the ambient telemetry (skipped where that
        is disabled; no ``plan.get``, the recorded ``plan.hits`` are in the
        log) and a copy of its report."""
        plan, key = self.plan, self._record_key(x)
        if key not in plan:
            y, report = self._scheduled(x, y)
            if (keys := self._complete()) is not None:
                with use_telemetry(recording := Recording()):
                    (z, simulated), additions = logged_additions(self._scheduled, x, None)
                matrices = self._fold(self._logged(keys, additions))
                if all(map(np.allclose, self._spmv(matrices, x).parts, z.parts)):
                    plan.put(key, (simulated, recording, matrices))
            return y, report
        report, log, matrices = plan.peek(key)
        y = self._spmv(matrices, x, y)
        log.replay(tele := current_telemetry())
        # A copy whose dicts are its own (the ledger is the record's).
        extras, phases = dict(report.extras), dict(report.phase_elapsed)
        metrics = tele.metrics.snapshot() if tele.metrics.enabled else None
        return y, replace(report, extras=extras, phase_elapsed=phases, metrics=metrics)

    def _spmv(self, matrices, x: DistributedVector, y=None) -> DistributedVector:
        """``y.parts[d] = M_d @ concat(x.parts)`` on the calling thread."""
        y = check_vectors(self.compiled, self.basis, x, y)
        columns = np.concatenate(x.parts)
        for part, matrix in zip(y.parts, matrices):
            part[...] = matrix @ columns
        return y

    def _replay(
        self, matrices, x: DistributedVector, y: DistributedVector | None
    ) -> tuple[DistributedVector, SimReport]:
        """``y.parts[d] = M_d @ concat(x.parts)``, one SpMV after the other
        on the calling thread (handing one to a worker costs more than it
        takes, ``docs/BACKENDS.md``).  Nothing is handed over, so the
        report counts no message; the trace gets one span per locale."""
        wall_start = perf_counter()
        y, report, metrics, trace = begin_matvec(
            self.compiled, self.basis, x, y, self.batch_size
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
        resilient = self.resilience is not None
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
