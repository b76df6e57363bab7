"""Shared pieces of the distributed matrix-vector product implementations.

All three variants (naive, batched, producer-consumer) share the same
producer-side kernel — ``getManyRows`` on a chunk of local source states,
multiplication by the source amplitudes, and the linear-time counting-sort
partition by destination locale (:func:`~repro.distributed.convert.counting_sort_order`)
— and the same consumer-side kernel — the local binary search
(``stateToIndex``), the destination's norm read at the ranked row, and the
atomic accumulate.  They differ only in how the
two sides are scheduled and how data travels, which is exactly the axis the
paper explores.

Every kernel here is *block-aware*: the input vector may carry ``k`` columns
(``x_local`` of shape ``(count, k)``), in which case all ``k`` matrix-vector
products are computed in one pass.  The expensive, x-independent work —
matrix-element generation, the destination partition, and the consumer-side
ranking — runs once per chunk regardless of ``k``; only the gather-multiply
and the scatter-add scale with the block width.  On the simulated wire the
destination states (betas) travel once per element while the ``k`` amplitude
columns share them, so block traffic pays :func:`wire_bytes` per element
instead of ``k`` full element payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.distributed.convert import counting_sort_order
from repro.distributed.dist_basis import DistributedBasis
from repro.distributed.hashing import locale_of
from repro.distributed.vector import DistributedVector
from repro.errors import ConfigError, DistributionError
from repro.operators.compile import CompiledOperator, result_dtype
from repro.operators.kernels import many_rows
from repro.runtime.clock import CostLedger, SimReport
from repro.schema import require_positive
from repro.telemetry.context import current as current_telemetry

__all__ = [
    "ProducedChunk",
    "produce_chunk",
    "consume",
    "apply_diagonal",
    "check_input",
    "wire_bytes",
    "extra_column_time",
]

#: Wire size of the per-element key: the uint64 destination basis state.
BETA_BYTES = 8

#: Wire size of one float64 amplitude (one column's contribution).
AMPLITUDE_BYTES = 8

def wire_bytes(n_elements: int, k: int = 1) -> int:
    """Simulated wire size of ``n_elements`` matrix elements for ``k`` columns.

    Each element ships its uint64 destination state once plus one float64
    amplitude per block column: ``n * (8 + 8 k)`` bytes.  ``k = 1``
    reproduces the classic 16-byte (state, amplitude) pair; wider
    blocks amortize the key bytes, which is the bandwidth half of the block
    matvec's advantage (the other half is skipping ``getManyRows``).
    """
    return int(n_elements) * (BETA_BYTES + AMPLITUDE_BYTES * int(k))


def extra_column_time(machine, n_elements: int, k: int) -> float:
    """Simulated compute time the extra ``k - 1`` block columns add.

    Generation, partition, and the binary search run once per chunk no
    matter how wide the block is; each *additional* column only pays a
    streaming gather-multiply on the producer or scatter-add on the
    consumer, charged at the machine's axpy rate.  Zero for ``k = 1``, so
    single-vector simulated timings are unchanged.
    """
    if k <= 1:
        return 0.0
    return machine.compute_time(machine.t_axpy * (k - 1), int(n_elements))


@dataclass
class ProducedChunk:
    """Output of the producer kernel for one chunk of source states.

    ``betas`` / ``values`` are partitioned by destination locale:
    destination ``d`` owns the slice ``[starts[d] : starts[d+1])``.
    ``values`` has shape ``(n,)`` for a single input vector and ``(n, k)``
    for a ``k``-column block (all columns share the betas and the
    partition).  ``n_emitted`` counts raw off-diagonal elements before
    symmetry filtering (the quantity that costs ``t_generate`` each).

    ``sources`` (destination-sorted offsets of the source states) and
    ``amplitudes`` are the x-independent half of ``values``, so a replay
    reduces to one gather + multiply.  Under a
    :class:`~repro.operators.plan.MatvecPlan` the chunk also carries a
    lazily filled ``rows`` cache of the consumer-side ``stateToIndex``
    results (``-1`` marks slices not yet searched), and the plan holds the
    record with ``values`` set to ``None``: nothing in it depends on the
    input vector, so its size is fixed when it is accounted, and every
    chunk handed out shares its arrays.
    """

    betas: np.ndarray
    values: np.ndarray | None
    starts: np.ndarray
    n_emitted: int
    sources: np.ndarray
    amplitudes: np.ndarray
    rows: np.ndarray | None = None

    def slice_for(self, dest: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = int(self.starts[dest]), int(self.starts[dest + 1])
        return self.betas[lo:hi], self.values[lo:hi]

    def rows_for(self, dest: int) -> np.ndarray | None:
        """The (possibly unfilled) row cache slice for ``dest``."""
        if self.rows is None:
            return None
        lo, hi = int(self.starts[dest]), int(self.starts[dest + 1])
        return self.rows[lo:hi]

    def replay(self, start: int, x_local: np.ndarray) -> "ProducedChunk":
        """A chunk of this record with :attr:`values` ``amplitudes *
        x_local[start + sources]``: one gather and one broadcast multiply.

        Works for any block width: a chunk recorded under a single-column
        matvec replays against a ``(count, k)`` block (an ``(n, k)``
        panel, and vice versa), and the result dtype follows NumPy
        promotion of the cached amplitudes with the new input.
        """
        gathered = x_local[start + self.sources]
        amplitudes = self.amplitudes[:, None] if gathered.ndim == 2 else self.amplitudes
        return replace(self, values=amplitudes * gathered)


def produce_chunk(
    op: CompiledOperator,
    basis: DistributedBasis,
    locale: int,
    start: int,
    stop: int,
    x_local: np.ndarray,
    plan=None,
) -> ProducedChunk:
    """Run ``getManyRows`` on local states ``[start:stop)`` of ``locale``.

    Emits the destination basis states (orbit representatives) and the
    contributions ``coeff * phase * x[alpha] / sqrt(N_alpha)`` (the
    producer multiplies by the source amplitude, as in the paper's
    listing), already partitioned by destination locale with the
    linear-time counting-sort scatter.  The projection is the template's
    :meth:`~repro.basis.Basis.orbits` (``orbit_info``: no stabilizer
    sums); the destination's ``sqrt(N_beta)`` is the owner's, multiplied
    in by :func:`consume` at the row it ranks.  ``x_local`` may carry
    ``k`` columns; the generation and the partition run once and all
    ``k`` value columns ride the same layout.

    With a ``plan`` (:class:`~repro.operators.plan.MatvecPlan`), the
    x-independent pieces are cached under ``(locale, start)`` on first
    production; subsequent calls replay the cached chunk instead of
    re-running ``getManyRows`` and the partition.
    """
    if plan is not None:
        cached = plan.get((locale, start))
        if cached is not None:
            return cached.replay(start, x_local)
    states = basis.parts[locale][start:stop]
    scale = None if basis.norms is None else 1.0 / basis.norms[locale][start:stop]
    sources, members, amplitudes = many_rows(
        op, basis.template.orbits, states, scale
    )
    dests = locale_of(members, basis.n_locales)
    order, starts = counting_sort_order(dests, basis.n_locales)
    chunk = ProducedChunk(
        betas=members[order],
        values=None,
        starts=starts,
        n_emitted=int(sources.size),
        sources=sources[order],
        amplitudes=amplitudes[order],
    )
    if plan is not None:
        chunk.rows = np.full(chunk.betas.size, -1, dtype=np.int64)
        plan.put((locale, start), chunk)
    return chunk.replay(start, x_local)


def consume(
    basis: DistributedBasis,
    locale: int,
    y_local: np.ndarray,
    betas: np.ndarray,
    values: np.ndarray,
    rows: np.ndarray | None = None,
) -> None:
    """The consumer kernel: ``stateToIndex`` + atomic accumulate.

    The owner of the rows finishes the matrix elements: each value (from
    :func:`produce_chunk`, without the destination's norm) is multiplied by
    ``basis.norms[locale]`` at the row it ranks, then added.  ``rows``,
    when given, is the chunk's cached search-result slice for this
    destination: filled (and reused on replays) so the binary search runs
    once per chunk per Krylov solve instead of once per matvec.  ``values``
    may be one column or an ``(n, k)`` panel — the ranked indices and
    norms are shared and the scatter-add covers all columns at once.
    """
    if betas.size == 0:
        return
    if rows is None:
        idx = basis.index_local(locale, betas)
    elif rows[0] < 0:
        idx = basis.index_local(locale, betas)
        rows[:] = idx
    else:
        idx = rows
    if basis.norms is not None:
        norms = basis.norms[locale][idx]
        values = values * (norms[:, None] if values.ndim == 2 else norms)
    np.add.at(y_local, idx, values)


def apply_diagonal(
    op: CompiledOperator,
    basis: DistributedBasis,
    x: DistributedVector,
    y: DistributedVector,
    plan=None,
) -> int:
    """Add the (purely local) diagonal contribution; returns element count.

    With a ``plan`` each locale's x-independent ``diagonal_values`` are
    cached under ``(locale, "diag")`` on the first call and reused after,
    so a warm matvec only pays the multiply-add.
    """
    total = 0
    for locale in range(basis.n_locales):
        states = basis.parts[locale]
        if states.size == 0:
            continue
        # Diagonal entries have rep == source, so the symmetry projection
        # factor is exactly 1 and no norm scaling applies (see
        # SymmetricBasis docs).
        diag = None if plan is None else plan.get((locale, "diag"))
        if diag is None:
            diag = op.diagonal_values(states)
            if plan is not None:
                plan.put((locale, "diag"), diag)
        if x.parts[locale].ndim == 2:
            diag = diag[:, None]
        y.parts[locale] += diag * x.parts[locale]
        total += states.size
    return total


def diagonal_seconds(basis: DistributedBasis, k: int) -> list[float]:
    """Modelled seconds of the diagonal's streaming multiply-add per locale."""
    machine = basis.cluster.machine
    return [
        machine.compute_time(machine.t_axpy, int(count) * k)
        for count in basis.counts
    ]


def check_input(basis: DistributedBasis, x: DistributedVector) -> None:
    """An ``x`` that belongs to another basis is a
    :class:`~repro.errors.DistributionError`."""
    if x.basis is not basis:
        raise DistributionError("input vector belongs to a different basis")


#: Source rows per produced chunk (the ``getManyRows`` batch) when the
#: caller names none.
DEFAULT_BATCH_SIZE = 1 << 13


def require_simulator(method: str, cluster) -> None:
    """Raise :class:`~repro.errors.ConfigError` unless ``cluster`` simulates.

    The naive and batched variants are cost models of the paper's first
    two schedules: on a wall-clock backend they would run none of their
    own algorithm, so only ``sim`` takes them.
    """
    if cluster.wall_clock:
        raise ConfigError(
            f"matvec method {method!r} is a cost model and runs on the "
            f"'sim' backend only, not on {cluster.backend!r}; use 'pc'"
        )


def chunk_spans(count: int, batch_size: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of every ``batch_size``-row chunk of ``count`` local
    source states."""
    count = int(count)
    return [
        (start, min(start + batch_size, count))
        for start in range(0, count, batch_size)
    ]


def count_messages(
    report, metrics, src: int, dst: int, messages: int, nbytes: int
) -> None:
    """Book ``messages`` transfers ``src -> dst`` of ``nbytes`` in all."""
    report.messages += messages
    report.bytes_sent += nbytes
    metrics.counter("matvec.messages", src=src, dst=dst).inc(messages)
    metrics.counter("matvec.bytes", src=src, dst=dst).inc(nbytes)


def begin_matvec(basis: DistributedBasis, x: DistributedVector, batch_size: int):
    """What every product does first: validate the knob and ``x``
    (:func:`check_input`), open the report, resolve the ambient telemetry.

    Returns ``(report, metrics, trace)``; ``trace`` is ``None`` unless
    tracing is on.
    """
    require_positive(batch_size=batch_size)
    check_input(basis, x)
    report = SimReport(ledger=CostLedger(basis.n_locales))
    tele = current_telemetry()
    trace = tele.trace if tele.trace.enabled else None
    return report, tele.metrics, trace


def finish_report(
    report: SimReport, x: DistributedVector, y: DistributedVector, metrics,
) -> tuple[DistributedVector, SimReport]:
    """What every variant does last, once ``report.elapsed`` is final.  A
    zero-column block comes back as the empty ``(count, 0)`` parts."""
    k = x.n_columns
    report.extras["block_width"] = float(k)
    report.extras["seconds_per_column"] = report.elapsed / k if k else 0.0
    if metrics.enabled:
        report.metrics = metrics.snapshot()
    return y, report


class AnalyticMatvec:
    """The frame a distributed product opens (:func:`begin_matvec`:
    ``report``, ``metrics``, ``trace``; and a new zero ``y`` of ``H x``'s
    :func:`~repro.operators.compile.result_dtype`) and the in-order chunk
    walk.

    The naive and batched variants (models of the paper's first two
    schedules, ``sim`` only) and the pipeline on one locale move the real
    data the same way — the diagonal, then chunk after chunk in (locale,
    chunk) order, generate + partition + scatter-accumulate — and differ
    only in what they *charge* for it: each walks :meth:`chunks` and
    accounts every chunk; the cost models hand their modelled finish time
    to :meth:`finish`.  The pipeline on several locales takes the frame
    only.
    """

    def __init__(self, op, basis, x, batch_size, plan):
        self.report, self.metrics, self.trace = begin_matvec(basis, x, batch_size)
        self.y = DistributedVector.zeros(
            basis, dtype=result_dtype(op, basis, x.dtype), columns=x.columns
        )
        self.op, self.basis, self.x, self.plan = op, basis, x, plan
        self.batch_size = batch_size

    def chunks(self, produce):
        """Add the diagonal (:attr:`n_diag` its element count), then run
        the data phase; yield ``(locale, n_emitted, n_elements,
        sizes_by_destination)`` per chunk.  ``produce`` is the caller's
        :func:`produce_chunk` (the variant module owns the name)."""
        op, basis, x, y, plan = self.op, self.basis, self.x, self.y, self.plan
        self.n_diag = apply_diagonal(op, basis, x, y, plan)
        for locale, count in enumerate(basis.counts):
            for start, stop in chunk_spans(count, self.batch_size):
                chunk = produce(
                    op, basis, locale, start, stop, x.parts[locale], plan
                )
                sizes = []
                for dest in range(basis.n_locales):
                    betas, values = chunk.slice_for(dest)
                    consume(
                        basis, dest, y.parts[dest], betas, values,
                        chunk.rows_for(dest),
                    )
                    sizes.append(int(betas.size))
                yield locale, chunk.n_emitted, int(chunk.betas.size), sizes

    def trace_sends(self, locale: int, start, seconds, nbytes, msgs) -> float:
        """Serialize ``locale``'s modelled transfers on its NIC track, one
        ``send`` span per destination it sent to (arrays indexed by
        destination); returns when the last one ends."""
        t = start
        for dest, count in enumerate(msgs):
            if count:
                self.trace.complete(
                    (f"locale{locale}", "net"), "send", t,
                    float(seconds[dest]),
                    {
                        "src": locale,
                        "dst": dest,
                        "bytes": int(nbytes[dest]),
                        "msgs": int(count),
                    },
                )
                t += float(seconds[dest])
        return t

    def finish(self, model_elapsed: float, trace_end=0.0):
        """Close the report at the modelled seconds (the trace runs to
        ``trace_end`` if that is later), the common tail.  Returns
        ``(y, report)``."""
        report = self.report
        report.elapsed = model_elapsed
        if self.trace is not None:
            self.trace.advance(max(model_elapsed, trace_end))
        report.merge_phase("matvec", model_elapsed)
        return finish_report(report, self.x, self.y, self.metrics)
