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
    check_input,
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
from repro.errors import ConfigError
from repro.operators.expression import Expression
from repro.operators.operator import BasisOperator
from repro.operators.plan import csr_footprint, csr_in_recorded_order
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
            "cluster, which runs one producer and one consumer thread per "
            "locale, or beside explicit worker counts: drop the key (other "
            "counts are set from Python only, with DistributedOperator's "
            f"{' and '.join(counts)} keywords)"
        )


class DistributedOperator(BasisOperator):
    """A Hermitian operator over a hash-distributed basis.

    ``plan=True`` (default) attaches a
    :class:`~repro.operators.plan.MatvecPlan`: the x-independent output of
    every produced chunk — matrix elements, the destination partition, and
    the consumer-side ``stateToIndex`` results — is recorded under
    ``(locale, start)`` on the first matvec, as are each locale's diagonal
    matrix elements under ``(locale, "diag")``, which is what makes
    repeated Krylov iterations cheap.  The plan is this operator's own,
    its budget a share of the host's available memory; ``False``
    recomputes everything each call, and anything but a bool raises
    :class:`~repro.errors.ConfigError`.  Every product returns a new ``y``.

    Once the plan holds every element, a warm matvec is one SpMV per
    destination locale on both backends, ``y.parts[d] = M_d @
    concat(x.parts)`` on the calling thread — no executor, no worker, no
    hand-off — over the same matrices (``(locale, "matrix")``, folded in
    chunk order by :meth:`_consolidate`), so a warm ``y`` is bitwise the
    same on both and from replay to replay.  What differs is what the
    product reports.  On a wall-clock backend the second matvec folds the
    matrices and a replay measures itself (``messages == bytes_sent ==
    0``).  On ``sim`` the product is the schedule: the matvec that leaves
    the plan complete folds the matrices, runs ``method``'s schedule once
    more, out of sight, and keeps a record of it (:meth:`_simulated`) —
    the report and every metric update and trace call — so every later
    product of that width reports, traces and counts exactly what that
    simulation did, with its ``y`` to 1e-14 relative (each matrix entry
    carries its row's norm, which the simulation's consumers multiplied in
    after ``x``, and the multi-locale pipeline adds in arrival order).
    The matvec that keeps the record returns the SpMV's ``y`` too, so
    every product of a complete plan has the same bits.
    The schedule runs whenever elements must be generated or the plan
    cannot hold the matrices: the recording pass, ``plan=False``, a plan
    whose budget does not admit the matrices, a pass after one that
    failed part-way (its records wait for their row searches).  The
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
    """

    def __init__(
        self,
        expression: Expression,
        basis: DistributedBasis,
        method: str = "pc",
        plan: bool = True,
        **method_options,
    ) -> None:
        _check_options(method, basis.cluster, method_options)
        self.method = method
        # One batch size: the one the plan is chunked by and passed to
        # whichever method runs.
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

    def matvec(self, x: DistributedVector) -> DistributedVector:
        """A new ``y = H x``; the timing report lands in :attr:`last_report`
        and accumulates into :attr:`total_sim_time`.  An ``x`` of another
        basis is a :class:`~repro.errors.DistributionError`.  A product
        that fails part-way raises the backend's typed error; the records
        it left stay in the plan, and the next product completes them."""
        replays = self.plan is not None
        if replays and not self.basis.cluster.wall_clock:
            y, report = self._simulated(x)
        elif replays and (matrices := self._consolidate()) is not None:
            y, report = self._replay(matrices, x)
        else:
            y, report = self._scheduled(x)
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

    def _fold(self, keys):
        """One CSR matrix per destination locale ``d``, of shape
        ``(counts[d], dim)`` over the locale-order concatenation of
        ``x.parts``, from the diagonals and the chunks ``keys``.  Row ``r``
        holds the diagonal element, then the off-diagonal ones ordered by
        (source locale, chunk start, position in the chunk's slice for
        ``d``) (:func:`csr_in_recorded_order`) — on one locale and in the
        cost models, the order in which a product adds them.  A chunk's
        amplitudes get the norm :func:`consume` multiplies in at row ``r``
        (``a * sqrt(N_r)``, where a product adds ``(a * x) * sqrt(N_r)``:
        the same to rounding), so a replay is the SpMV alone."""
        plan, counts, dim = self.plan, self.basis.counts, self.basis.dim
        norms = self.basis.norms or [None] * len(counts)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        matrices = []
        for d, n in enumerate(counts):
            # (rows, sources, values, first column, norms): no copies
            diagonal = np.arange(n)
            views = [(diagonal, diagonal, plan.peek((d, "diag")), offsets[d], None)] if n else []
            for locale, start in keys:
                r, first = plan.peek((locale, start)), offsets[locale] + start
                span = slice(r.starts[d], r.starts[d + 1])
                views.append((r.rows[span], r.sources[span], r.amplitudes[span], first, norms[d]))
            matrices.append(csr_in_recorded_order(
                (int(n), dim), self.dtype, (rows for rows, *_ in views),
                # A piece's columns and values are made as the builder places it.
                ((rows, first + sources, values if norm is None else values * norm[rows])
                 for rows, sources, values, first, norm in views),
            ))
        return matrices

    def _consolidate(self):
        """One CSR matrix per destination locale (``(locale, "matrix")``,
        folded by :meth:`_fold` on the first call), or ``None`` while
        elements must still be scheduled (:meth:`_complete`).  The chunk
        records stay in the plan next to the matrices:
        ``benchmarks/e2e/layers.py`` replays them.  On ``sim`` the matrices
        are read without a ``plan.get``: a record's log holds the hits its
        product counts."""
        plan = self.plan
        folded = [(d, "matrix") for d in range(self.basis.n_locales)]
        if not all(key in plan for key in folded):
            if (keys := self._complete()) is None:
                return None
            for key, matrix in zip(folded, self._fold(keys)):
                plan.put(key, matrix)
        read = plan.get if self.basis.cluster.wall_clock else plan.peek
        return [read(key) for key in folded]

    def _record_key(self, x: DistributedVector) -> tuple:
        """What a simulated product depends on besides the operator, whose
        method and options are fixed for its life: ``x``'s width.  Not its
        dtype: the matrices are the operator's and the schedule is the
        same, so a real and a complex operand share one record."""
        return ("replay", x.n_columns)

    def _simulated(self, x: DistributedVector) -> tuple[DistributedVector, SimReport]:
        """On ``sim``: replay the record of a product like this one over
        the matrices (:meth:`_replay`), or run the schedule and, if that
        left the plan complete, make one: :meth:`_consolidate`, then run
        the product once more under a private
        :class:`~repro.telemetry.context.Recording`.  ``(report,
        recording)`` goes into the plan, after the matrices, if they give
        that product's ``y`` (to rounding), and the SpMV's ``y`` is
        returned; else the operator keeps simulating."""
        plan, key = self.plan, self._record_key(x)
        if (record := plan.peek(key)) is not None:
            return self._replay(self._consolidate(), x, record)
        y, report = self._scheduled(x)
        if (matrices := self._consolidate()) is not None:
            with use_telemetry(recording := Recording()):
                z, simulated = self._scheduled(x)
            with use_telemetry(None):  # the check reports nothing
                replayed, _ = self._replay(matrices, x)
            if all(map(np.allclose, replayed.parts, z.parts)):
                plan.put(key, (simulated, recording))
                y = replayed
        return y, report

    def _replay(
        self, matrices, x: DistributedVector, record=None
    ) -> tuple[DistributedVector, SimReport]:
        """A new ``y`` of parts ``M_d @ concat(x.parts)``, one SpMV after
        the other on the calling thread (handing one to a worker costs
        more than it takes, ``docs/BACKENDS.md``).  Without a ``record``
        nothing is handed over, so the report counts no message and the
        trace gets one span per locale.  With a ``sim`` record ``(report,
        recording)``, the recording's log is written to the ambient
        telemetry (skipped where that is disabled; the recorded
        ``plan.hits`` stand in for ``plan.get``) and the report is a copy
        of the recorded one."""
        wall_start = perf_counter()
        if record is None:
            report, metrics, trace = begin_matvec(self.basis, x, self.batch_size)
        else:
            check_input(self.basis, x)
            trace = None
        columns, parts = np.concatenate(x.parts), []
        for d, matrix in enumerate(matrices):
            since = perf_counter()
            parts.append(matrix @ columns)
            if trace is not None:
                trace.complete(
                    (f"locale{d}", "worker0"), "matvec", since - wall_start,
                    perf_counter() - since,
                )
        y = DistributedVector(self.basis, parts)
        if record is not None:
            report, log = record
            log.replay(tele := current_telemetry())
            # A copy whose dicts are its own (the ledger is the record's).
            extras, phases = dict(report.extras), dict(report.phase_elapsed)
            metrics = tele.metrics.snapshot() if tele.metrics.enabled else None
            return y, replace(report, extras=extras, phase_elapsed=phases, metrics=metrics)
        report.elapsed = perf_counter() - wall_start
        report.merge_phase("matvec", report.elapsed)
        if trace is not None:
            trace.mark_wall()
            trace.advance(report.elapsed)
        return finish_report(report, x, y, metrics)

    def _scheduled(self, x: DistributedVector) -> tuple[DistributedVector, SimReport]:
        """Generate (or replay chunk by chunk) under ``method``'s schedule."""
        return IMPLS[self.method](
            self.compiled, self.basis, x, plan=self.plan, **self.method_options
        )

    def __matmul__(self, x):
        if isinstance(x, DistributedVector):
            return self.matvec(x)
        return NotImplemented
