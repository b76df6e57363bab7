"""The producer-consumer matrix-vector product (Sec. 5.3, Fig. 5).

One pipeline, one hand-off.  The pipeline (:class:`_Pipeline`) is written
once as generator processes over :mod:`repro.runtime.executor`, so the same
code is a discrete-event simulation on ``backend="sim"`` (real data,
modelled seconds) and real OS threads on ``backend="threads"`` (wall-clock
seconds; see ``docs/BACKENDS.md`` for what the threads buy):

- every locale's core pool is split into *producers* and *consumers* (the
  paper uses 104/24 of 128 cores);
- a producer takes chunks of local source states off a shared cursor,
  generates their matrix elements (``getManyRows``), partitions them by
  destination locale in linear time, and hands each partition — in pieces
  of at most ``buffer_capacity`` elements — to its one reusable buffer for
  that destination, paying a memcpy at home and the NIC elsewhere;
- a consumer pops filled buffers from its locale's ready queue, runs
  ``stateToIndex`` (binary search in the local basis slice) and the atomic
  accumulate, and gives the buffer back;
- a closer releases the consumers once every producer has retired and
  nothing is in flight; the diagonal is a separate local phase.

Communication overlaps computation, buffers are reused (no allocation or
pinning in the steady state) and no remote tasks are spawned — the three
structural advantages over the naive/batched variants and the
collective-based SPINPACK baseline.  ``work_stealing=True`` is the paper's
proposed refinement: a producer that runs out of chunks re-registers as an
extra consumer on its locale instead of idling.  On a single locale the
product runs in shared-memory mode (every core generates and consumes), as
the paper's single-node reference numbers are obtained.

The *hand-off* is the paper's deadlock-free protocol: a producer waits
until its buffer's local ``isFull`` atomic reads false, sets it and puts;
the consumer accumulates the payload and clears the flag with a remote
atomic write.  It trusts the transport: on the simulator and in shared
memory nothing drops, duplicates or corrupts a payload.  A worker that
raises fails the run with a typed :class:`~repro.errors.BackendError`
(the threads backend's watchdog does the same for a stall), never a hang
or a silently partial ``y``.
"""

from __future__ import annotations

import sys
import time
from functools import partial

import numpy as np

from repro.distributed.dist_basis import DistributedBasis
from repro.distributed.matvec_common import (
    DEFAULT_BATCH_SIZE,
    AnalyticMatvec,
    apply_diagonal,
    chunk_spans,
    consume,
    count_messages,
    diagonal_seconds,
    finish_report,
    produce_chunk,
    wire_bytes,
)
from repro.distributed.vector import DistributedVector
from repro.errors import ConfigError
from repro.operators.compile import CompiledOperator
from repro.runtime.clock import SimReport
from repro.runtime.events import Acquire, Pop, Timeout, WaitFlag
from repro.runtime.executor import Executor, get_executor
from repro.schema import require_positive

__all__ = [
    "matvec_producer_consumer",
    "split_cores",
    "default_buffer_capacity",
]

#: Default fraction of each locale's cores running consumer tasks
#: (24 of 128 in the paper's Sec. 6.3 accounting).
DEFAULT_CONSUMER_FRACTION = 24 / 128

#: Elements per ``RemoteBuffer`` hand-off of the modelled machine: Sec. 5.3
#: sizes the buffer to amortise *network* latency.
SIM_BUFFER_CAPACITY = 4096

#: The Python DES cannot afford hundreds of generator processes per locale:
#: at most this many *representative* producers (and consumers) run, each
#: standing for real_cores/sim_workers physical cores.
MAX_SIM_WORKERS = 8

_SENTINEL = object()


def default_buffer_capacity(cluster) -> int:
    """Elements per hand-off on ``cluster`` when the caller names none.

    The simulator charges the modelled :data:`SIM_BUFFER_CAPACITY`-element
    network buffer.  On a wall-clock backend a hand-off moves array
    *references*, so cutting a destination slice saves no copy and costs a
    blocking flag/queue round trip per piece: the unit is the whole slice.
    :func:`matvec_producer_consumer` keeps the simulated figure as its
    signature default; the operator applies this one.
    """
    if cluster.wall_clock:
        return sys.maxsize
    return SIM_BUFFER_CAPACITY


def split_cores(cores: int, consumer_fraction: float) -> tuple[int, int]:
    """(producers, consumers) for a locale with ``cores`` cores.

    Both sides of the split are always at least 1 (a pipeline without
    consumers could never drain): a single-core locale degenerates to one
    shared core that both generates and consumes, ``(1, 1)``.  Invalid
    inputs (``cores < 1``, ``consumer_fraction`` outside ``(0, 1]``) raise
    :class:`~repro.errors.ConfigError`.
    """
    if cores < 1:
        raise ConfigError(f"split_cores needs cores >= 1, got {cores}")
    if not 0.0 < consumer_fraction <= 1.0:
        raise ConfigError(
            "consumer_fraction must be in (0, 1], got "
            f"{consumer_fraction!r}"
        )
    if cores == 1:
        return 1, 1
    consumers = min(max(int(round(cores * consumer_fraction)), 1), cores - 1)
    return cores - consumers, consumers


class RemoteBuffer:
    """One producer's reusable transfer buffer towards one locale.

    ``rows`` piggybacks the plan's consumer-side ``stateToIndex`` cache
    slice (or ``None`` without a plan) — it is not part of the simulated
    wire payload, which is :func:`~repro.distributed.matvec_common.wire_bytes`
    per element (16 bytes for a single vector; the betas travel once and
    block columns add 8 bytes each).
    """

    __slots__ = ("src", "dest", "is_full_local", "betas", "values", "rows")

    def __init__(self, ex: Executor, src: int, dest: int) -> None:
        self.src = src
        self.dest = dest
        self.is_full_local = ex.flag(False)
        self.betas: np.ndarray | None = None
        self.values: np.ndarray | None = None
        self.rows: np.ndarray | None = None


class _Pipeline:
    """The pipeline body with the paper's flag hand-off (module docstring):
    ``is_full_local`` per buffer, and an in-flight count that tells the
    closer when the last buffer has been consumed."""

    def __init__(
        self, ex, report, metrics, trace, op, basis, x, y,
        batch_size, consumer_fraction, buffer_capacity, work_stealing,
        producers_per_locale, consumers_per_locale, plan,
    ) -> None:
        self.op, self.basis, self.x, self.y, self.plan = op, basis, x, y, plan
        self.ex, self.report = ex, report
        self.metrics, self.trace = metrics, trace
        self.buffer_capacity = buffer_capacity
        self.work_stealing = work_stealing
        machine = self.machine = basis.cluster.machine
        n = self.n = basis.n_locales
        k = self.k = x.n_columns

        if producers_per_locale is None:
            n_prod, n_cons = split_cores(
                machine.cores_per_locale, consumer_fraction
            )
        else:
            n_prod, n_cons = producers_per_locale, consumers_per_locale
        if ex.wall_clock:
            # Real workers, no rate scaling: explicit counts are literal
            # thread counts, the default is one producer and one consumer
            # thread per locale.
            if producers_per_locale is None:
                n_prod = n_cons = 1
            sim_prod, sim_cons = n_prod, n_cons
        else:
            sim_prod = min(n_prod, MAX_SIM_WORKERS)
            sim_cons = min(n_cons, MAX_SIM_WORKERS)
        self.n_prod, self.n_cons = n_prod, n_cons
        self.sim_prod, self.sim_cons = sim_prod, sim_cons
        # A simulated producer stands for n_prod/sim_prod physical cores,
        # so its per-element times shrink accordingly (same for
        # consumers).  Extra block columns only pay streaming
        # gather/scatter work (zero for k = 1).
        self.t_generate = machine.t_generate * sim_prod / n_prod
        self.t_partition = (
            (machine.t_partition + machine.t_hash) * sim_prod / n_prod
            + machine.t_axpy * (k - 1) * sim_prod / n_prod
        )
        self.t_consume = (
            machine.t_search_accum * sim_cons / n_cons
            + machine.t_axpy * (k - 1) * sim_cons / n_cons
        )
        self.latency = machine.network.remote_atomic_latency
        self.element_bytes = wire_bytes(1, k)

        self.nic = [ex.resource(name=f"nic{d}") for d in range(n)]
        self.ready = [ex.queue(name=f"ready{d}") for d in range(n)]
        self.producers_remaining = ex.counter(n * sim_prod)
        self.producers_done = ex.flag(False, name="producers_done")
        self.stall_total = ex.counter(0.0)
        self.consumer_counts = [ex.counter(sim_cons) for _ in range(n)]
        # Guard the shared scatter-add into y.parts[dest] on threads (no-op
        # contexts on sim); the name keys the executor.lock_* histograms.
        self.consume_locks = [ex.lock(f"consume{d}") for d in range(n)]
        # The cursors hand out chunk indices atomically on both backends.
        self.chunks = [chunk_spans(c, batch_size) for c in basis.counts]
        self.cursors = [ex.counter(0) for _ in range(n)]
        self.inflight = ex.counter(0)
        self.drained = ex.flag(False)

    def charge(self, acct: dict, phase: str, since, dt) -> None:
        """Book work begun at ``since`` and modelled as ``dt`` seconds:
        measured on a wall-clock backend, modelled on the simulator."""
        ex = self.ex
        acct[phase] += (ex.now - since) if ex.wall_clock else dt

    def book(self, acct: dict, locale: int) -> None:
        """A retiring worker's busy seconds by phase go into the ledger."""
        with self.ex.mutex:
            for phase, seconds in acct.items():
                self.report.ledger.add(phase, locale, seconds)

    def send(self, rb: RemoteBuffer, n_elements: int):
        """Count one hand-off, charge its transfer — a memcpy on the
        producer's own locale, the NIC towards any other — and let the
        buffer arrive in the destination's ready queue."""
        src, dest, metrics = rb.src, rb.dest, self.metrics
        nbytes = n_elements * self.element_bytes
        with self.ex.mutex:
            count_messages(self.report, metrics, src, dest, 1, nbytes)
        comm_args = None
        if self.trace is not None:
            comm_args = {"src": src, "dst": dest, "bytes": nbytes, "msgs": 1}
        if dest == src:
            yield Timeout(
                self.machine.memcpy_time(nbytes, 1), "memcpy", comm_args
            )
        else:
            nic = self.nic[src]
            yield Acquire(nic)
            yield Timeout(
                self.machine.network.transfer_time(nbytes), "send", comm_args
            )
            nic.release()
        self.post(dest == src, partial(self.ready[dest].push, rb))

    def post(self, local: bool, effect) -> None:
        """Land a message's ``effect`` (a queue push, a flag write): at once
        on the sender's own locale, else one remote-atomic latency later
        (an active message; zero in shared memory)."""
        if local:
            effect()
        else:
            self.ex.call_later(self.latency, effect)

    def check_drained(self) -> None:
        if self.producers_remaining.get() == 0 and self.inflight.get() == 0:
            self.drained.set(True)

    # -- the body -----------------------------------------------------------

    def producer(self, locale: int):
        ex, n = self.ex, self.n
        capacity = self.buffer_capacity
        x_local = self.x.parts[locale]
        chunks, cursor = self.chunks[locale], self.cursors[locale]
        acct = {"generate": 0.0, "stall": 0.0}
        buffers = [RemoteBuffer(ex, locale, d) for d in range(n)]
        while True:
            c = cursor.add(1) - 1
            if c >= len(chunks):
                break
            start, stop = chunks[c]
            since = ex.now
            chunk = produce_chunk(
                self.op, self.basis, locale, start, stop, x_local, self.plan
            )
            dt = (
                self.t_generate * chunk.n_emitted
                + self.t_partition * chunk.betas.size
            )
            self.charge(acct, "generate", since, dt)
            yield Timeout(dt, "generate")
            # Round-robin the destinations starting after ourselves so all
            # producers do not hammer locale 0 first.
            for shift in range(n):
                dest = (locale + 1 + shift) % n
                betas, values = chunk.slice_for(dest)
                rows = chunk.rows_for(dest)
                rb = buffers[dest]
                for lo in range(0, betas.size, capacity):
                    piece = slice(lo, lo + capacity)
                    since = ex.now
                    yield WaitFlag(rb.is_full_local, False)
                    if (waited := ex.now - since) > 0.0:
                        acct["stall"] += waited
                    # Set the local flag first; the remote side learns of
                    # the buffer when it arrives: the paper's deadlock-free
                    # order.
                    rb.is_full_local.set(True)
                    rb.betas, rb.values = betas[piece], values[piece]
                    rb.rows = None if rows is None else rows[piece]
                    self.inflight.add(1)
                    yield from self.send(rb, rb.betas.size)
        self.book(acct, locale)
        self.stall_total.add(acct["stall"])
        if self.work_stealing:
            self.consumer_counts[locale].add(1)
        if self.producers_remaining.add(-1) == 0:
            self.producers_done.set(True)
        if self.work_stealing:
            yield from self.consumer(locale)

    def consumer(self, locale: int):
        queue = self.ready[locale]
        acct = {"search+accum": 0.0}
        while True:
            rb = yield Pop(queue)
            if rb is _SENTINEL:
                break
            # ``stateToIndex`` + accumulate; the flag orders writes and reads.
            since = self.ex.now
            with self.consume_locks[locale]:
                consume(
                    self.basis, locale, self.y.parts[locale],
                    rb.betas, rb.values, rb.rows,
                )
            dt = self.t_consume * rb.betas.size
            self.charge(acct, "search+accum", since, dt)
            yield Timeout(dt, "search+accum")
            self.inflight.add(-1)
            # Clear the producer's local flag with a remote atomic write.
            self.post(rb.src == rb.dest, partial(rb.is_full_local.set, False))
            self.check_drained()
        self.book(acct, locale)

    def closer(self):
        yield WaitFlag(self.producers_done, True)
        self.check_drained()
        yield WaitFlag(self.drained, True)
        for locale, count in enumerate(self.consumer_counts):
            for _ in range(int(count.get())):
                self.ready[locale].push(_SENTINEL)

    def run(self) -> tuple[DistributedVector, SimReport]:
        ex, report, trace = self.ex, self.report, self.trace
        basis, x, y, k = self.basis, self.x, self.y, self.k
        for locale in range(self.n):
            for p in range(self.sim_prod):
                ex.spawn(
                    self.producer(locale),
                    name=f"prod-{locale}-{p}",
                    track=(f"locale{locale}", f"producer{p}"),
                    locale=locale,
                )
            for c in range(self.sim_cons):
                ex.spawn(
                    self.consumer(locale),
                    name=f"cons-{locale}-{c}",
                    track=(f"locale{locale}", f"consumer{c}"),
                    locale=locale,
                )
        ex.spawn(self.closer(), name="closer")
        elapsed = ex.run()

        # Diagonal: local streaming work as a separate phase — measured on
        # a wall-clock backend, modelled per locale on the simulator.
        diag_start = time.perf_counter()
        n_diag = apply_diagonal(self.op, basis, x, y, self.plan)
        if ex.wall_clock:
            spans = {("diagonal", "main"): time.perf_counter() - diag_start}
        else:
            spans = {
                (f"locale{locale}", "diagonal"): seconds
                for locale, seconds in enumerate(diagonal_seconds(basis, k))
            }
        diag_elapsed = max(spans.values())
        if trace is not None:
            for track, seconds in spans.items():
                trace.complete(track, "diagonal", elapsed, seconds)
            trace.advance(elapsed + diag_elapsed)
        report.elapsed = elapsed + diag_elapsed
        report.merge_phase("pipeline", elapsed)
        report.merge_phase("diagonal", diag_elapsed)
        report.extras["stall_time"] = float(self.stall_total.get())
        report.extras["n_diag"] = float(n_diag)
        report.extras["producers"] = float(self.n_prod)
        report.extras["consumers"] = float(self.n_cons)
        return finish_report(report, x, y, self.metrics, ex.wall_clock)


def matvec_producer_consumer(
    op: CompiledOperator,
    basis: DistributedBasis,
    x: DistributedVector,
    batch_size: int = DEFAULT_BATCH_SIZE,
    consumer_fraction: float = DEFAULT_CONSUMER_FRACTION,
    buffer_capacity: int = SIM_BUFFER_CAPACITY,
    work_stealing: bool = False,
    producers_per_locale: int | None = None,
    consumers_per_locale: int | None = None,
    plan=None,
) -> tuple[DistributedVector, SimReport]:
    """``y = H x`` with the producer-consumer pipeline.

    ``producers_per_locale`` / ``consumers_per_locale`` (both or neither)
    override the ``consumer_fraction`` split (they are capped at sensible
    values for the Python simulation — what matters for the timing model
    is the *ratio* and the per-core rates, both of which are preserved).
    On the real ``threads`` backend they are literal thread counts
    (default one producer and one consumer thread per locale).  ``plan``
    (a :class:`~repro.operators.plan.MatvecPlan`) caches each chunk's
    x-independent data across calls; it serves one compiled operator,
    basis and batch size, which this function does not check.  Returns a
    new ``y``.
    """
    require_positive(buffer_capacity=buffer_capacity)
    if (producers_per_locale, consumers_per_locale) != (None, None):
        # Both or neither: one alone is not a split.
        require_positive(
            producers_per_locale=producers_per_locale,
            consumers_per_locale=consumers_per_locale,
        )
    run = AnalyticMatvec(op, basis, x, batch_size, plan)
    if basis.n_locales == 1:
        return _shared_memory_matvec(run)
    return _Pipeline(
        get_executor(basis.cluster, trace=run.trace), run.report,
        run.metrics, run.trace, op, basis, x, run.y,
        batch_size, consumer_fraction, buffer_capacity, work_stealing,
        producers_per_locale, consumers_per_locale, plan,
    ).run()


def _shared_memory_matvec(
    run: AnalyticMatvec,
) -> tuple[DistributedVector, SimReport]:
    """Single-locale mode: all cores generate and consume (no pipeline),
    walking the chunks in order.  A kernel that raises fails the product
    with the same typed error as on 2+ locales, naming ``locale0``.

    On a wall-clock backend (``threads``) the report holds the measured
    seconds of this — genuinely serial — execution and keeps the machine
    model's estimate under ``extras["model_seconds"]``: the serial
    reference the multi-worker speedup bench compares against.
    """
    basis, report, trace = run.basis, run.report, run.trace
    wall_clock = basis.cluster.wall_clock
    machine = basis.cluster.machine
    k = run.x.n_columns
    wall_start = time.perf_counter()
    gen_work = 0.0
    search_work = 0.0
    try:
        for _, n_emitted, n_elements, _ in run.chunks(produce_chunk):
            gen_work += machine.t_generate * n_emitted
            search_work += (
                machine.t_search_accum + machine.t_axpy * (k - 1)
            ) * n_elements
    except Exception as exc:  # noqa: BLE001 -> BackendError, as on 2+ locales
        raise Executor._worker_error(exc, "worker 'locale0/worker0'", 0)
    count = int(basis.counts[0])
    cores = machine.cores_per_locale
    diag_work = machine.t_axpy * count * k
    model_elapsed = (gen_work + search_work + diag_work) / cores
    track = ("locale0", "worker0")
    if wall_clock:
        report.elapsed = time.perf_counter() - wall_start
        report.merge_phase("matvec", report.elapsed)
        report.extras["model_seconds"] = model_elapsed
        if trace is not None:
            trace.mark_wall()
            trace.complete(track, "matvec", 0.0, report.elapsed)
    else:
        report.elapsed = model_elapsed
        # Sequential phases on one worker track.
        t = 0.0
        for name, work in (
            ("generate", gen_work),
            ("search+accum", search_work),
            ("diagonal", diag_work),
        ):
            report.merge_phase(name, work / cores)
            if trace is not None and work > 0.0:
                trace.complete(track, name, t, work / cores)
                t += work / cores
    if trace is not None:
        # The offset advances by the full elapsed time so successive
        # operations (e.g. warm plan replays that record few events) stay
        # monotone on the global timeline.
        trace.advance(report.elapsed)
    report.ledger.add("generate", 0, gen_work)
    report.ledger.add("search+accum", 0, search_work)
    report.extras["producers"] = float(cores)
    report.extras["consumers"] = float(cores)
    return finish_report(report, run.x, run.y, run.metrics, wall_clock)
