"""The producer-consumer matrix-vector product (Sec. 5.3, Fig. 5).

This is the paper's headline algorithm, written once as generator
processes over the executor abstraction of
:mod:`repro.runtime.executor` and run on whichever backend the cluster
selects:

- ``backend="sim"`` (default): the discrete-event simulation that moves
  real data while charging modelled time — byte-for-byte the original
  protocol with identical simulated timings;
- ``backend="threads"``: every producer/consumer is a real OS thread
  and the report carries wall-clock seconds instead of simulated ones.
  The warm replay's kernels (fancy-index gather, ``np.add.at``) hold the
  GIL, so what the threads buy is bounded by the hand-offs they pay for
  — see :func:`default_buffer_capacity` and ``docs/BACKENDS.md``.

The protocol itself is backend-independent:

- on every locale, the core pool is split into *producers* and *consumers*
  (the paper uses 104/24 of 128 cores);
- each producer owns one reusable :class:`RemoteBuffer` per destination
  locale; it generates chunks of matrix elements (``getManyRows``),
  partitions them by destination in linear time, and pushes each partition
  with a remote put — but only after its local ``isFull`` atomic reads
  false, which is the paper's deadlock-free synchronization protocol
  (set the local flag first, then the remote one via an active message);
- consumers pop filled buffers from their locale's ready queue, run
  ``stateToIndex`` (binary search in the local basis slice) and the atomic
  accumulate, then clear the producer's flag with a remote atomic write.

Communication therefore overlaps computation, buffers are reused (no
allocation/pinning in the steady state), and no remote tasks are ever
spawned — the three structural advantages over the naive/batched variants
and over the collective-based SPINPACK baseline.

On a single locale the implementation switches to the shared-memory mode
(every core both generates and consumes), matching how the paper's
single-node reference numbers are obtained.

``work_stealing=True`` enables the paper's proposed future-work
optimization: a producer that runs out of chunks re-registers as an extra
consumer on its locale instead of idling.

Passing ``faults=`` (a :class:`~repro.resilience.faults.FaultPlan`) or
``resilience=`` (a :class:`~repro.resilience.faults.ResilienceConfig`)
switches to the *self-healing* pipeline: every handoff carries a sequence
number and a CRC32 over the amplitude batch, producers wait for explicit
acknowledgements with a timeout + exponential-backoff retransmit, and
consumers discard corrupt or duplicate deliveries (re-acknowledging the
latter).  An exhausted retry budget raises a typed
:class:`~repro.errors.FaultError`; a crash-induced stall surfaces as a
:class:`~repro.errors.DeadlockError` (also a ``FaultError``) from the
simulator watchdog — the run never hangs and never returns silently wrong
amplitudes.  The default (no faults, no resilience) path is byte-for-byte
the original protocol with identical simulated timings.

The self-healing pipeline runs on *both* backends.  On ``sim`` fates are
drawn per delivery from the plan's sequential RNG stream and timers are
simulated — bit-identical replays.  On ``threads`` the same seeded plan
derives each message's fate from its identity (edge, buffer, attempt) so
fate assignment is deterministic even though timing is wall-clock;
injected delays really postpone deliveries, crashes really kill worker
threads (supervised consumers restart with bounded backoff, an
unrecovered crash escalates as a typed ``FaultError``), and ack timeouts
are wall-clock.  See ``docs/RESILIENCE.md``, "Chaos on the threads
backend".
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.distributed.dist_basis import DistributedBasis
from repro.distributed.matvec_common import (
    apply_diagonal,
    check_vectors,
    consume,
    corrupted_copy,
    payload_checksum,
    produce_chunk,
    wire_bytes,
)
from repro.distributed.vector import DistributedVector
from repro.errors import ConfigError, FaultError
from repro.operators.compile import CompiledOperator
from repro.resilience.faults import ResilienceConfig
from repro.runtime.clock import CostLedger, SimReport
from repro.runtime.events import Acquire, Pop, Timeout, WaitFlag
from repro.runtime.executor import Executor, get_executor
from repro.telemetry.context import current as current_telemetry
from repro.telemetry.jobs import attribute_report

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

_SENTINEL = object()


def default_buffer_capacity(cluster) -> int:
    """Elements per hand-off on ``cluster`` when the caller names none.

    The simulator charges the modelled :data:`SIM_BUFFER_CAPACITY`-element
    network buffer.  On a wall-clock backend a hand-off moves array
    *references*, so cutting a destination slice saves no copy and costs a
    blocking flag/queue round trip per piece: the unit is the whole slice.
    :func:`matvec_producer_consumer` keeps the simulated figure as its
    signature default; callers that run a cluster's backend as configured
    (:class:`~repro.distributed.operator.DistributedOperator`, the
    autotuner) apply this one instead.
    """
    if getattr(cluster, "backend", "sim") == "threads":
        return sys.maxsize
    return SIM_BUFFER_CAPACITY


def split_cores(cores: int, consumer_fraction: float) -> tuple[int, int]:
    """(producers, consumers) for a locale with ``cores`` cores.

    Both sides of the split are always at least 1.  A single-core locale
    degenerates to one shared core that both generates and consumes
    (``(1, 1)``) — the paper's shared-memory mode — instead of the old
    behaviour where ``min(..., cores - 1)`` produced zero consumers and
    a pipeline that could never drain.  Invalid inputs (``cores < 1``,
    ``consumer_fraction`` outside ``(0, 1]``) raise
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


def matvec_producer_consumer(
    op: CompiledOperator,
    basis: DistributedBasis,
    x: DistributedVector,
    y: DistributedVector | None = None,
    batch_size: int = 1 << 13,
    consumer_fraction: float = DEFAULT_CONSUMER_FRACTION,
    buffer_capacity: int = SIM_BUFFER_CAPACITY,
    work_stealing: bool = False,
    producers_per_locale: int | None = None,
    consumers_per_locale: int | None = None,
    plan=None,
    faults=None,
    resilience=None,
) -> tuple[DistributedVector, SimReport]:
    """``y = H x`` with the producer-consumer pipeline.

    ``producers_per_locale`` / ``consumers_per_locale`` override the
    ``consumer_fraction`` split (they are capped at sensible values for the
    Python simulation — what matters for the timing model is the *ratio*
    and the per-core rates, both of which are preserved).  On the real
    ``threads`` backend they are literal thread counts (default one
    producer and one consumer thread per locale).

    ``faults`` / ``resilience`` activate the self-healing protocol (see
    the module docstring); either one alone suffices (a bare
    ``resilience=ResilienceConfig()`` measures the fault-free overhead of
    sequence numbers + checksums).  Both backends are supported.
    """
    y = check_vectors(basis, x, y)
    machine = basis.cluster.machine
    n = basis.n_locales
    k = x.n_columns
    ledger = CostLedger(n)
    report = SimReport(ledger=ledger)
    tele = current_telemetry()
    metrics = tele.metrics
    metrics.gauge("matvec.block_width").set(float(k))
    trace = tele.trace if tele.trace.enabled else None
    backend = getattr(basis.cluster, "backend", "sim")
    wall_clock = backend == "threads"

    resilient = faults is not None or resilience is not None
    if resilient and resilience is None:
        resilience = ResilienceConfig()
    if (
        faults is not None
        and faults.corrupt > 0
        and resilience is not None
        and not resilience.checksums
    ):
        raise ValueError(
            "corruption injection with checksums disabled would return "
            "silently wrong amplitudes; enable ResilienceConfig.checksums"
        )

    if n == 1:
        if faults is not None:
            crashes = faults.take_crashes()
            if crashes:
                locale = min(crashes)
                faults.record_crash(locale)
                raise FaultError(
                    f"locale {locale} crashed at t={crashes[locale]:.3g} "
                    "during the shared-memory matvec"
                )
        return _shared_memory_matvec(
            op, basis, x, y, batch_size, report, plan, wall_clock=wall_clock
        )

    if resilient:
        return _resilient_pipeline(
            op, basis, x, y,
            batch_size=batch_size,
            consumer_fraction=consumer_fraction,
            buffer_capacity=buffer_capacity,
            work_stealing=work_stealing,
            producers_per_locale=producers_per_locale,
            consumers_per_locale=consumers_per_locale,
            plan=plan,
            faults=faults,
            resilience=resilience,
            report=report,
            ledger=ledger,
            metrics=metrics,
            trace=trace,
        )

    ex = get_executor(basis.cluster, trace=trace)
    cores = machine.cores_per_locale
    if producers_per_locale is None or consumers_per_locale is None:
        n_prod, n_cons = split_cores(cores, consumer_fraction)
    else:
        n_prod, n_cons = producers_per_locale, consumers_per_locale
    if ex.wall_clock:
        # Real workers: one producer and one consumer thread per locale
        # unless explicitly overridden.  No representative-worker rate
        # scaling — each thread is a physical worker and its spans are
        # stamped from the wall clock, not the machine model.
        sim_prod = (
            producers_per_locale if producers_per_locale is not None else 1
        )
        sim_cons = (
            consumers_per_locale if consumers_per_locale is not None else 1
        )
        n_prod, n_cons = sim_prod, sim_cons
    else:
        # The Python DES cannot afford hundreds of generator processes per
        # locale; simulate a smaller number of "representative" workers
        # whose per-element rates are scaled so each stands for
        # real_cores/sim_workers physical cores.  The pipeline structure
        # (buffers, flags, stalls) is unchanged.
        max_workers = 8
        sim_prod = min(n_prod, max_workers)
        sim_cons = min(n_cons, max_workers)
    # Each simulated producer stands for n_prod/sim_prod physical cores, so
    # its per-element time shrinks accordingly (same for consumers).
    t_generate = machine.t_generate * sim_prod / n_prod
    t_partition = (machine.t_partition + machine.t_hash) * sim_prod / n_prod
    t_search = machine.t_search_accum * sim_cons / n_cons
    # Extra block columns only pay streaming gather/scatter work, not
    # generation, partition, or the binary search (zero for k = 1).
    t_cols_prod = machine.t_axpy * (k - 1) * sim_prod / n_prod
    t_cols_cons = machine.t_axpy * (k - 1) * sim_cons / n_cons

    net = machine.network
    nic = [ex.resource(1, name=f"nic{locale}") for locale in range(n)]
    ready: list = [ex.queue(name=f"ready{locale}") for locale in range(n)]
    producers_remaining = ex.counter(n * sim_prod)
    inflight = ex.counter(0)
    stall_total = ex.counter(0.0)
    producers_done_flag = ex.flag(False)
    drained = ex.flag(False)
    consumer_counts = {locale: ex.counter(sim_cons) for locale in range(n)}
    # One lock per destination locale guards the shared scatter-add into
    # y.parts[dest] on the threads backend (no-op contexts on sim); the
    # name keys the executor.lock_* contention histograms.
    consume_locks = [ex.lock(f"consume{locale}") for locale in range(n)]

    # Chunk lists per locale; the cursor counters hand out chunk indices
    # atomically on both backends.
    chunk_lists: dict[int, list[tuple[int, int]]] = {}
    chunk_cursor: dict[int, object] = {}
    for locale in range(n):
        count = int(basis.counts[locale])
        chunk_lists[locale] = [
            (s, min(s + batch_size, count)) for s in range(0, count, batch_size)
        ]
        chunk_cursor[locale] = ex.counter(0)

    def check_drained() -> None:
        if producers_remaining.get() == 0 and inflight.get() == 0:
            drained.set(True)

    def consumer_body(locale: int):
        busy = 0.0
        while True:
            rb = yield Pop(ready[locale])
            if rb is _SENTINEL:
                break
            betas, values, rows = rb.betas, rb.values, rb.rows
            dt = (t_search + t_cols_cons) * betas.size
            before = ex.now
            with consume_locks[locale]:
                consume(basis, locale, y.parts[locale], betas, values, rows)
            busy += (ex.now - before) if ex.wall_clock else dt
            yield Timeout(dt, "search+accum")
            inflight.add(-1)
            # Clear the producer's local flag with a remote atomic write.
            if rb.src == locale:
                rb.is_full_local.set(False)
            else:
                ex.call_later(
                    net.remote_atomic_latency,
                    lambda flag=rb.is_full_local: flag.set(False),
                )
            check_drained()
        with ex.mutex:
            ledger.add("search+accum", locale, busy)

    def producer_body(locale: int, producer_id: int):
        buffers = [RemoteBuffer(ex, locale, d) for d in range(n)]
        gen_busy = 0.0
        stall = 0.0
        while True:
            c = chunk_cursor[locale].add(1) - 1
            if c >= len(chunk_lists[locale]):
                break
            start, stop = chunk_lists[locale][c]
            gen_start = ex.now
            chunk = produce_chunk(
                op, basis, locale, start, stop, x.parts[locale], plan
            )
            dt = (
                t_generate * chunk.n_emitted
                + (t_partition + t_cols_prod) * chunk.betas.size
            )
            gen_busy += (ex.now - gen_start) if ex.wall_clock else dt
            with ex.mutex:
                metrics.histogram("matvec.chunk_elements").observe(
                    chunk.betas.size
                )
            yield Timeout(dt, "generate")
            # Round-robin the destinations starting after ourselves so all
            # producers do not hammer locale 0 first.
            for shift in range(n):
                dest = (locale + 1 + shift) % n
                betas_all, values_all = chunk.slice_for(dest)
                rows_all = chunk.rows_for(dest)
                for lo in range(0, betas_all.size, buffer_capacity):
                    betas = betas_all[lo : lo + buffer_capacity]
                    values = values_all[lo : lo + buffer_capacity]
                    rows = (
                        None
                        if rows_all is None
                        else rows_all[lo : lo + buffer_capacity]
                    )
                    rb = buffers[dest]
                    before = ex.now
                    yield WaitFlag(rb.is_full_local, False)
                    now = ex.now
                    if now > before:
                        stall += now - before
                        with ex.mutex:
                            metrics.histogram("matvec.stall_seconds").observe(
                                now - before
                            )
                    rb.is_full_local.set(True)
                    rb.betas = betas
                    rb.values = values
                    rb.rows = rows
                    nbytes = wire_bytes(betas.size, k)
                    with ex.mutex:
                        report.messages += 1
                        report.bytes_sent += nbytes
                        metrics.counter(
                            "matvec.messages", src=locale, dst=dest
                        ).inc()
                        metrics.counter(
                            "matvec.bytes", src=locale, dst=dest
                        ).inc(nbytes)
                        metrics.histogram("matvec.buffer_elements").observe(
                            betas.size
                        )
                    inflight.add(1)
                    comm_args = (
                        {"src": locale, "dst": dest, "bytes": nbytes, "msgs": 1}
                        if trace is not None
                        else None
                    )
                    if dest == locale:
                        yield Timeout(
                            machine.memcpy_time(nbytes, 1), "memcpy", comm_args
                        )
                        ready[dest].push(rb)
                    else:
                        yield Acquire(nic[locale])
                        yield Timeout(
                            net.transfer_time(nbytes), "send", comm_args
                        )
                        nic[locale].release()
                        # The "buffer is full" notification is an active
                        # message handled by the runtime (fastOn).
                        ex.call_later(
                            net.remote_atomic_latency,
                            lambda q=ready[dest], b=rb: q.push(b),
                        )
        with ex.mutex:
            ledger.add("generate", locale, gen_busy)
            ledger.add("stall", locale, stall)
        stall_total.add(stall)
        if work_stealing:
            consumer_counts[locale].add(1)
        if producers_remaining.add(-1) == 0:
            producers_done_flag.set(True)
            check_drained()
        if work_stealing:
            yield from consumer_body(locale)

    def closer():
        yield WaitFlag(producers_done_flag, True)
        yield WaitFlag(drained, True)
        for locale in range(n):
            for _ in range(int(consumer_counts[locale].get())):
                ready[locale].push(_SENTINEL)

    for locale in range(n):
        for p in range(sim_prod):
            ex.spawn(
                producer_body(locale, p),
                name=f"prod-{locale}-{p}",
                track=(f"locale{locale}", f"producer{p}"),
                locale=locale,
            )
        for c in range(sim_cons):
            ex.spawn(
                consumer_body(locale),
                name=f"cons-{locale}-{c}",
                track=(f"locale{locale}", f"consumer{c}"),
                locale=locale,
            )
    ex.spawn(closer(), name="closer")
    elapsed = ex.run()

    # Diagonal: local streaming work, overlapped here as a separate phase.
    if ex.wall_clock:
        diag_start = time.perf_counter()
        n_diag = apply_diagonal(op, basis, x, y, plan)
        diag_elapsed = time.perf_counter() - diag_start
        if trace is not None:
            trace.complete(
                ("diagonal", "main"), "diagonal", elapsed, diag_elapsed
            )
            trace.advance(elapsed + diag_elapsed)
    else:
        n_diag = apply_diagonal(op, basis, x, y, plan)
        diag_elapsed = max(
            machine.compute_time(machine.t_axpy, int(c) * k)
            for c in basis.counts
        )
        if trace is not None:
            for locale in range(n):
                trace.complete(
                    (f"locale{locale}", "diagonal"),
                    "diagonal",
                    elapsed,
                    machine.compute_time(
                        machine.t_axpy, int(basis.counts[locale]) * k
                    ),
                )
            trace.advance(elapsed + diag_elapsed)
    report.elapsed = elapsed + diag_elapsed
    report.merge_phase("pipeline", elapsed)
    report.merge_phase("diagonal", diag_elapsed)
    report.extras["stall_time"] = float(stall_total.get())
    report.extras["n_diag"] = float(n_diag)
    report.extras["producers"] = float(n_prod)
    report.extras["consumers"] = float(n_cons)
    report.extras["block_width"] = float(k)
    report.extras["seconds_per_column"] = report.elapsed / k
    metrics.counter(
        "wall.seconds" if ex.wall_clock else "sim.seconds", phase="matvec"
    ).inc(report.elapsed)
    attribute_report(report, "matvec.pc", x, y)
    if metrics.enabled:
        report.metrics = metrics.snapshot()
    return y, report


class ResilientBuffer:
    """A :class:`RemoteBuffer` plus the ARQ state of the resilient protocol.

    Stop-and-wait per (producer, destination) pair: the producer bumps
    ``seq``, stores the clean payload, and transmits; the consumer
    verifies the checksum, consumes exactly once (``consumed_seq`` guards
    against duplicated deliveries), and acknowledges by merging the seq
    into ``acked_seq`` and raising ``ack_flag``.  The producer reuses the
    buffer only once ``acked_seq`` catches up with ``seq`` — a timed wait,
    so a lost payload or lost ack triggers a retransmit instead of the
    silent hang of the unprotected protocol.
    """

    __slots__ = (
        "src", "dest", "seq", "acked_seq", "consumed_seq", "ack_flag",
        "betas", "values", "rows", "checksum", "payload",
        "uid", "xmit_fates", "ack_fates", "lock",
    )

    def __init__(self, ex: Executor, src: int, dest: int) -> None:
        self.src = src
        self.dest = dest
        self.seq = 0
        self.acked_seq = 0
        self.consumed_seq = 0
        self.ack_flag = ex.flag(False, name=f"ack[{src}->{dest}]")
        #: wire fields — what the consumer sees (possibly corrupted)
        self.betas: np.ndarray | None = None
        self.values: np.ndarray | None = None
        self.rows: np.ndarray | None = None
        self.checksum = 0
        #: clean (betas, values, rows) kept for retransmits
        self.payload: tuple | None = None
        #: deterministic buffer id — the salt of the keyed fate draws on
        #: the threads backend (set by the owning producer)
        self.uid = 0
        #: per-direction fate-draw counters (threads backend: every
        #: transmit attempt / ack gets its own keyed fate)
        self.xmit_fates = 0
        self.ack_fates = 0
        #: guards wire-field snapshots, consumed_seq check-and-claim and
        #: acked_seq merges on threads (a no-op context on the simulator,
        #: where atomicity between yields is free)
        self.lock = ex.lock()


def _resilient_pipeline(
    op: CompiledOperator,
    basis: DistributedBasis,
    x: DistributedVector,
    y: DistributedVector,
    *,
    batch_size: int,
    consumer_fraction: float,
    buffer_capacity: int,
    work_stealing: bool,
    producers_per_locale: int | None,
    consumers_per_locale: int | None,
    plan,
    faults,
    resilience: ResilienceConfig,
    report: SimReport,
    ledger: CostLedger,
    metrics,
    trace,
) -> tuple[DistributedVector, SimReport]:
    """The self-healing producer-consumer pipeline (see module docstring).

    Backend-generic: on ``sim`` the injected fates come from the plan's
    sequential RNG stream and timers are simulated (bit-identical
    replays, hard-gated by the chaos baselines); on ``threads`` fates
    are derived per message identity
    (:meth:`~repro.resilience.faults.FaultPlan.message_fate_keyed`), ack
    timeouts and injected delays are wall-clock, and the executor itself
    injects crashes/stragglers and supervises worker restarts.
    """
    machine = basis.cluster.machine
    n = basis.n_locales
    k = x.n_columns
    metrics.gauge("matvec.block_width").set(float(k))
    ex = get_executor(
        basis.cluster, trace=trace, faults=faults, resilience=resilience
    )
    cores = machine.cores_per_locale
    if producers_per_locale is None or consumers_per_locale is None:
        n_prod, n_cons = split_cores(cores, consumer_fraction)
    else:
        n_prod, n_cons = producers_per_locale, consumers_per_locale
    if ex.wall_clock:
        # Real workers: one producer and one consumer thread per locale
        # unless explicitly overridden (same policy as the plain
        # pipeline) — no representative-worker rate scaling.
        sim_prod = (
            producers_per_locale if producers_per_locale is not None else 1
        )
        sim_cons = (
            consumers_per_locale if consumers_per_locale is not None else 1
        )
        n_prod, n_cons = sim_prod, sim_cons
    else:
        max_workers = 8
        sim_prod = min(n_prod, max_workers)
        sim_cons = min(n_cons, max_workers)
    t_generate = machine.t_generate * sim_prod / n_prod
    t_partition = (machine.t_partition + machine.t_hash) * sim_prod / n_prod
    t_search = machine.t_search_accum * sim_cons / n_cons
    t_cols_prod = machine.t_axpy * (k - 1) * sim_prod / n_prod
    t_cols_cons = machine.t_axpy * (k - 1) * sim_cons / n_cons
    # Representative-worker scaling applies to the checksum kernel too.
    crc_prod_scale = sim_prod / n_prod
    crc_cons_scale = sim_cons / n_cons
    use_checksums = resilience.checksums
    # On the real backend a fault-free payload moves through coherent
    # shared memory — there is no wire for bits to flip on, corruption
    # only ever enters through the fault layer — so the CRC pass is pure
    # overhead and is elided (the shared-memory-transport analogue of
    # checksum offload).  The simulator always charges the modelled
    # checksum time: its timings are baseline-gated bit-identical.
    wire_checksums = use_checksums and (
        not ex.wall_clock or faults is not None
    )
    # Fault-free on the real backend, the ARQ machinery is semantically
    # inert: nothing drops (no retransmits), nothing duplicates (no
    # idempotence guard), nothing crashes (no restart races on the
    # buffer fields).  The `lean` branches below degenerate it to the
    # plain pipeline's flag handshake — same yields, no per-handoff
    # generator delegation, locking, or timeout bookkeeping — which is
    # what keeps the fault-free wall overhead inside the chaos bench's
    # 5% budget.  Armed plans (and always the simulator) take the full
    # protocol.
    lean = ex.wall_clock and faults is None
    #: threads: fates are a pure function of message identity, so any
    #: interleaving of real workers sees the same fault assignment
    keyed_fates = ex.wall_clock

    net = machine.network
    nic = [ex.resource(1, name=f"nic{locale}") for locale in range(n)]
    ready: list = [ex.queue(name=f"ready{locale}") for locale in range(n)]
    producers_remaining = ex.counter(n * sim_prod)
    stall_total = ex.counter(0.0)
    producers_done_flag = ex.flag(False, name="producers_done")
    consumer_counts = {locale: ex.counter(sim_cons) for locale in range(n)}
    # One lock per destination locale guards the shared scatter-add into
    # y.parts[dest] on the threads backend (no-op contexts on sim).
    consume_locks = [ex.lock(f"consume{locale}") for locale in range(n)]

    def deliver(extra: float, fn) -> None:
        # The base remote-atomic latency is modelled (zero wall-clock on
        # threads), but an *injected* delay fate must genuinely postpone
        # the delivery on every backend.
        if ex.wall_clock and extra > 0.0:
            ex.call_after(extra, fn)
        else:
            ex.call_later(net.remote_atomic_latency + extra, fn)

    def ack_fate(rb: ResilientBuffer, locale: int):
        if faults is None:
            return None
        if keyed_fates:
            with rb.lock:
                attempt = rb.ack_fates
                rb.ack_fates += 1
            return faults.message_fate_keyed(
                locale, rb.src, attempt, salt=rb.uid
            )
        return faults.message_fate(locale, rb.src)

    def data_fate(rb: ResilientBuffer):
        # Producer-side; the owning producer is the only writer of
        # xmit_fates, so no lock is needed.
        if keyed_fates:
            attempt = rb.xmit_fates
            rb.xmit_fates += 1
            return faults.message_fate_keyed(
                rb.src, rb.dest, attempt, salt=rb.uid
            )
        return faults.message_fate(rb.src, rb.dest)

    chunk_lists: dict[int, list[tuple[int, int]]] = {}
    chunk_cursor: dict[int, object] = {}
    for locale in range(n):
        count = int(basis.counts[locale])
        chunk_lists[locale] = [
            (s, min(s + batch_size, count)) for s in range(0, count, batch_size)
        ]
        chunk_cursor[locale] = ex.counter(0)

    def slowdown(locale: int) -> float:
        return faults.slowdown(locale) if faults is not None else 1.0

    def consumer_body(locale: int):
        slow = slowdown(locale)
        busy = 0.0
        while True:
            rb = yield Pop(ready[locale])
            if rb is _SENTINEL:
                break
            if lean:
                # No retransmits, duplicates, or crashes possible: the
                # ack handshake alone orders producer writes against
                # this read, exactly as in the plain pipeline.
                betas, values, rows = rb.betas, rb.values, rb.rows
                seq = rb.seq
                before = ex.now
                with consume_locks[locale]:
                    consume(
                        basis, locale, y.parts[locale], betas, values, rows
                    )
                busy += ex.now - before
                yield Timeout(
                    (t_search + t_cols_cons) * betas.size, "search+accum"
                )
                rb.consumed_seq = seq
                rb.acked_seq = seq
                rb.ack_flag.set(True)
                continue
            # Snapshot the wire fields up front: a retransmit may
            # overwrite them while this consumer is inside a Timeout
            # (on threads, while it runs at all — hence the lock).
            with rb.lock:
                betas, values, rows = rb.betas, rb.values, rb.rows
                seq, expected_crc = rb.seq, rb.checksum
            nbytes = wire_bytes(betas.size, k)
            if wire_checksums:
                dt = machine.checksum_time(nbytes) * crc_cons_scale
                if ex.wall_clock:
                    before = ex.now
                    crc_ok = payload_checksum(betas, values) == expected_crc
                    busy += ex.now - before
                    yield Timeout(dt, "verify")
                else:
                    busy += dt * slow
                    yield Timeout(dt, "verify")
                    crc_ok = payload_checksum(betas, values) == expected_crc
                if not crc_ok:
                    # Corrupt on the wire: drop without acknowledging;
                    # the producer's timeout will retransmit.
                    with ex.mutex:
                        metrics.counter(
                            "recovery.checksum_rejects", src=rb.src, dst=locale
                        ).inc()
                    continue
            if ex.wall_clock:
                # Threads: consume and claim atomically under the buffer
                # lock, so an injected crash (which can only land on a
                # yield) never separates them — a killed-and-restarted
                # consumer either never claimed the payload (retransmit
                # delivers it again) or fully consumed it (the duplicate
                # is discarded and re-acknowledged).
                before = ex.now
                with rb.lock:
                    duplicate = seq <= rb.consumed_seq
                    if not duplicate:
                        with consume_locks[locale]:
                            consume(
                                basis, locale, y.parts[locale],
                                betas, values, rows,
                            )
                        rb.consumed_seq = seq
                busy += ex.now - before
                if duplicate:
                    with ex.mutex:
                        metrics.counter("recovery.duplicates_discarded").inc()
                else:
                    dt = (t_search + t_cols_cons) * betas.size
                    yield Timeout(dt, "search+accum")
            elif seq <= rb.consumed_seq:
                metrics.counter("recovery.duplicates_discarded").inc()
            else:
                # Claim the seq BEFORE yielding: a second consumer popping
                # a duplicated delivery of the same payload mid-Timeout
                # must see it as already consumed (the check-and-claim is
                # atomic between yields in the discrete-event simulation).
                rb.consumed_seq = seq
                dt = (t_search + t_cols_cons) * betas.size
                busy += dt * slow
                yield Timeout(dt, "search+accum")
                consume(basis, locale, y.parts[locale], betas, values, rows)
            # Acknowledge (re-acknowledge duplicates: the original ack may
            # have been the dropped message).
            if rb.src == locale:
                with rb.lock:
                    rb.acked_seq = max(rb.acked_seq, seq)
                rb.ack_flag.set(True)
            else:
                fate = ack_fate(rb, locale)
                if fate is None or not fate.drop:
                    extra = fate.extra_delay if fate is not None else 0.0

                    def ack(b=rb, s=seq):
                        with b.lock:
                            b.acked_seq = max(b.acked_seq, s)
                        b.ack_flag.set(True)

                    deliver(extra, ack)
                    if fate is not None and fate.duplicate:
                        deliver(extra, ack)
        with ex.mutex:
            ledger.add("search+accum", locale, busy)

    def producer_body(locale: int, producer_id: int):
        slow = slowdown(locale)
        buffers = [ResilientBuffer(ex, locale, d) for d in range(n)]
        for d, rb in enumerate(buffers):
            # Deterministic per-buffer id: the salt of the keyed fate
            # draws on threads (two producers on one locale must not
            # share a fate stream).
            rb.uid = (locale * sim_prod + producer_id) * n + d
        acct = {"generate": 0.0, "stall": 0.0}

        def transmit(rb: ResilientBuffer, retransmit: bool = False):
            betas, values, rows = rb.payload
            nbytes = wire_bytes(betas.size, k)
            wire_values = values
            fate = None
            if faults is not None and rb.dest != locale:
                fate = data_fate(rb)
                if fate.corrupt:
                    wire_values = corrupted_copy(values)
            crc = 0
            if wire_checksums:
                dt = machine.checksum_time(nbytes) * crc_prod_scale
                if ex.wall_clock:
                    crc_start = ex.now
                    crc = payload_checksum(betas, values)
                    acct["generate"] += ex.now - crc_start
                else:
                    crc = payload_checksum(betas, values)
                    rb.checksum = crc
                    acct["generate"] += dt * slow
                yield Timeout(dt, "checksum")
            with rb.lock:
                if wire_checksums and ex.wall_clock:
                    rb.checksum = crc
                rb.betas = betas
                rb.values = wire_values
                rb.rows = rows
            with ex.mutex:
                report.messages += 1
                report.bytes_sent += nbytes
                if retransmit:
                    metrics.counter(
                        "recovery.retransmits", src=locale, dst=rb.dest
                    ).inc()
                else:
                    metrics.counter(
                        "matvec.messages", src=locale, dst=rb.dest
                    ).inc()
                    metrics.counter(
                        "matvec.bytes", src=locale, dst=rb.dest
                    ).inc(nbytes)
                    metrics.histogram("matvec.buffer_elements").observe(
                        betas.size
                    )
            comm_args = (
                {"src": locale, "dst": rb.dest, "bytes": nbytes, "msgs": 1}
                if trace is not None
                else None
            )
            if rb.dest == locale:
                yield Timeout(
                    machine.memcpy_time(nbytes, 1), "memcpy", comm_args
                )
                ready[rb.dest].push(rb)
            else:
                yield Acquire(nic[locale])
                yield Timeout(net.transfer_time(nbytes), "send", comm_args)
                nic[locale].release()
                if fate is None or not fate.drop:
                    extra = fate.extra_delay if fate is not None else 0.0
                    deliver(extra, lambda q=ready[rb.dest], b=rb: q.push(b))
                    if fate is not None and fate.duplicate:
                        deliver(
                            extra, lambda q=ready[rb.dest], b=rb: q.push(b)
                        )

        def wait_acked(rb: ResilientBuffer):
            if rb.seq == 0:
                return
            timeout = resilience.ack_timeout
            retries = 0
            before = ex.now
            while rb.acked_seq < rb.seq:
                ok = yield WaitFlag(rb.ack_flag, True, timeout=timeout)
                rb.ack_flag.set(False)
                if ok:
                    # Either the awaited ack (loop exits) or a stale
                    # duplicate ack for an older seq (loop waits again).
                    continue
                retries += 1
                with ex.mutex:
                    metrics.counter(
                        "fault.timeouts", src=locale, dst=rb.dest
                    ).inc()
                if retries > resilience.max_retries:
                    raise FaultError(
                        f"RemoteBuffer handoff {locale}->{rb.dest} seq "
                        f"{rb.seq} unacknowledged after {retries - 1} "
                        f"retransmits (retry budget "
                        f"{resilience.max_retries} exhausted)"
                    )
                timeout *= resilience.backoff
                yield from transmit(rb, retransmit=True)
            if ex.now > before:
                stalled = ex.now - before
                acct["stall"] += stalled
                with ex.mutex:
                    metrics.histogram("matvec.stall_seconds").observe(stalled)

        while True:
            c = chunk_cursor[locale].add(1) - 1
            if c >= len(chunk_lists[locale]):
                break
            start, stop = chunk_lists[locale][c]
            gen_start = ex.now
            chunk = produce_chunk(
                op, basis, locale, start, stop, x.parts[locale], plan
            )
            dt = (
                t_generate * chunk.n_emitted
                + (t_partition + t_cols_prod) * chunk.betas.size
            )
            acct["generate"] += (
                (ex.now - gen_start) if ex.wall_clock else dt * slow
            )
            with ex.mutex:
                metrics.histogram("matvec.chunk_elements").observe(
                    chunk.betas.size
                )
            yield Timeout(dt, "generate")
            for shift in range(n):
                dest = (locale + 1 + shift) % n
                betas_all, values_all = chunk.slice_for(dest)
                rows_all = chunk.rows_for(dest)
                for lo in range(0, betas_all.size, buffer_capacity):
                    betas = betas_all[lo : lo + buffer_capacity]
                    values = values_all[lo : lo + buffer_capacity]
                    rows = (
                        None
                        if rows_all is None
                        else rows_all[lo : lo + buffer_capacity]
                    )
                    rb = buffers[dest]
                    if lean:
                        # Degenerate stop-and-wait: the ack flag is the
                        # plain pipeline's is_full handshake, delivery
                        # is a direct push (remote-atomic latency is
                        # zero in shared memory), and no payload copy
                        # is kept (nothing can ask for a retransmit).
                        if rb.seq:
                            before = ex.now
                            yield WaitFlag(rb.ack_flag, True)
                            rb.ack_flag.set(False)
                            now = ex.now
                            if now > before:
                                acct["stall"] += now - before
                                with ex.mutex:
                                    metrics.histogram(
                                        "matvec.stall_seconds"
                                    ).observe(now - before)
                        rb.seq += 1
                        rb.betas, rb.values, rb.rows = betas, values, rows
                        nbytes = wire_bytes(betas.size, k)
                        with ex.mutex:
                            report.messages += 1
                            report.bytes_sent += nbytes
                            metrics.counter(
                                "matvec.messages", src=locale, dst=dest
                            ).inc()
                            metrics.counter(
                                "matvec.bytes", src=locale, dst=dest
                            ).inc(nbytes)
                            metrics.histogram(
                                "matvec.buffer_elements"
                            ).observe(betas.size)
                        comm_args = (
                            {
                                "src": locale,
                                "dst": dest,
                                "bytes": nbytes,
                                "msgs": 1,
                            }
                            if trace is not None
                            else None
                        )
                        if dest == locale:
                            yield Timeout(
                                machine.memcpy_time(nbytes, 1),
                                "memcpy",
                                comm_args,
                            )
                        else:
                            yield Acquire(nic[locale])
                            yield Timeout(
                                net.transfer_time(nbytes), "send", comm_args
                            )
                            nic[locale].release()
                        ready[dest].push(rb)
                        continue
                    yield from wait_acked(rb)
                    with rb.lock:
                        rb.seq += 1
                    rb.payload = (betas, values, rows)
                    yield from transmit(rb)
        # Drain: every outstanding payload must be acknowledged before
        # this producer retires (so "all producers done" implies "all
        # payloads consumed" and the closer can release the consumers).
        for rb in buffers:
            if lean:
                if rb.seq and rb.acked_seq < rb.seq:
                    yield WaitFlag(rb.ack_flag, True)
            else:
                yield from wait_acked(rb)
        with ex.mutex:
            ledger.add("generate", locale, acct["generate"])
            ledger.add("stall", locale, acct["stall"])
        stall_total.add(acct["stall"])
        if work_stealing:
            consumer_counts[locale].add(1)
        if producers_remaining.add(-1) == 0:
            producers_done_flag.set(True)
        if work_stealing:
            yield from consumer_body(locale)

    def closer():
        yield WaitFlag(producers_done_flag, True)
        for locale in range(n):
            for _ in range(int(consumer_counts[locale].get())):
                ready[locale].push(_SENTINEL)

    for locale in range(n):
        for p in range(sim_prod):
            ex.spawn(
                producer_body(locale, p),
                name=f"prod-{locale}-{p}",
                track=(f"locale{locale}", f"producer{p}"),
                locale=locale,
            )
        for c in range(sim_cons):
            ex.spawn(
                consumer_body(locale),
                name=f"cons-{locale}-{c}",
                track=(f"locale{locale}", f"consumer{c}"),
                locale=locale,
                # Consumers are safely restartable after an injected
                # crash on threads: consumption state lives in the shared
                # buffers and consumed_seq makes reprocessing idempotent.
                # Producers are NOT restartable — a lost in-flight chunk
                # cursor would corrupt the result, so producer loss
                # escalates to the operator-level restart/fallback.
                factory=(lambda locale=locale: consumer_body(locale)),
            )
    ex.spawn(closer(), name="closer")
    elapsed = ex.run()

    if ex.wall_clock:
        diag_start = time.perf_counter()
        n_diag = apply_diagonal(op, basis, x, y, plan)
        diag_elapsed = time.perf_counter() - diag_start
        if trace is not None:
            trace.complete(
                ("diagonal", "main"), "diagonal", elapsed, diag_elapsed
            )
            trace.advance(elapsed + diag_elapsed)
    else:
        n_diag = apply_diagonal(op, basis, x, y, plan)
        diag_elapsed = max(
            machine.compute_time(machine.t_axpy, int(c) * k)
            for c in basis.counts
        )
        if trace is not None:
            for locale in range(n):
                trace.complete(
                    (f"locale{locale}", "diagonal"),
                    "diagonal",
                    elapsed,
                    machine.compute_time(
                        machine.t_axpy, int(basis.counts[locale]) * k
                    ),
                )
            trace.advance(elapsed + diag_elapsed)
    report.elapsed = elapsed + diag_elapsed
    report.merge_phase("pipeline", elapsed)
    report.merge_phase("diagonal", diag_elapsed)
    report.extras["stall_time"] = float(stall_total.get())
    report.extras["n_diag"] = float(n_diag)
    report.extras["producers"] = float(n_prod)
    report.extras["consumers"] = float(n_cons)
    report.extras["block_width"] = float(k)
    report.extras["seconds_per_column"] = report.elapsed / k
    report.extras["resilient"] = 1.0
    metrics.counter(
        "wall.seconds" if ex.wall_clock else "sim.seconds", phase="matvec"
    ).inc(report.elapsed)
    attribute_report(report, "matvec.pc", x, y)
    if metrics.enabled:
        report.metrics = metrics.snapshot()
    return y, report


def _shared_memory_matvec(
    op: CompiledOperator,
    basis: DistributedBasis,
    x: DistributedVector,
    y: DistributedVector,
    batch_size: int,
    report: SimReport,
    plan=None,
    wall_clock: bool = False,
) -> tuple[DistributedVector, SimReport]:
    """Single-locale mode: all cores generate and consume (no pipeline).

    ``wall_clock=True`` (the ``threads`` backend) reports the measured
    wall-clock seconds of this — genuinely serial — execution instead of
    the machine model's estimate; the model figure is kept under
    ``extras["model_seconds"]``.  This is the serial reference the
    multi-worker speedup bench compares against.
    """
    machine = basis.cluster.machine
    k = x.n_columns
    tele = current_telemetry()
    metrics = tele.metrics
    metrics.gauge("matvec.block_width").set(float(k))
    trace = tele.trace if tele.trace.enabled else None
    wall_start = time.perf_counter()
    apply_diagonal(op, basis, x, y, plan)
    count = int(basis.counts[0])
    gen_work = 0.0
    search_work = 0.0
    for start in range(0, count, batch_size):
        stop = min(start + batch_size, count)
        chunk = produce_chunk(op, basis, 0, start, stop, x.parts[0], plan)
        betas, values = chunk.slice_for(0)
        consume(basis, 0, y.parts[0], betas, values, chunk.rows_for(0))
        metrics.histogram("matvec.chunk_elements").observe(chunk.betas.size)
        gen_work += machine.t_generate * chunk.n_emitted
        search_work += (
            machine.t_search_accum + machine.t_axpy * (k - 1)
        ) * chunk.betas.size
    cores = machine.cores_per_locale
    diag_work = machine.t_axpy * count * k
    model_elapsed = (gen_work + search_work + diag_work) / cores
    if wall_clock:
        elapsed = time.perf_counter() - wall_start
        report.elapsed = elapsed
        report.merge_phase("matvec", elapsed)
        report.extras["model_seconds"] = model_elapsed
        if trace is not None:
            trace.mark_wall()
            trace.complete(("locale0", "worker0"), "matvec", 0.0, elapsed)
            trace.advance(elapsed)
    else:
        elapsed = model_elapsed
        report.elapsed = elapsed
        report.merge_phase("generate", gen_work / cores)
        report.merge_phase("search+accum", search_work / cores)
        report.merge_phase("diagonal", diag_work / cores)
        if trace is not None:
            # Sequential shared-memory phases on one worker track; the
            # offset still advances by the full elapsed time so successive
            # operations (e.g. warm plan replays that record few events)
            # stay monotone on the global timeline.
            track = ("locale0", "worker0")
            t = 0.0
            for name, work in (
                ("generate", gen_work),
                ("search+accum", search_work),
                ("diagonal", diag_work),
            ):
                if work > 0.0:
                    trace.complete(track, name, t, work / cores)
                    t += work / cores
            trace.advance(elapsed)
    report.ledger.add("generate", 0, gen_work)
    report.ledger.add("search+accum", 0, search_work)
    report.extras["producers"] = float(cores)
    report.extras["consumers"] = float(cores)
    report.extras["block_width"] = float(k)
    report.extras["seconds_per_column"] = elapsed / k
    metrics.counter(
        "wall.seconds" if wall_clock else "sim.seconds", phase="matvec"
    ).inc(report.elapsed)
    attribute_report(report, "matvec.pc", x, y)
    if metrics.enabled:
        report.metrics = metrics.snapshot()
    return y, report
