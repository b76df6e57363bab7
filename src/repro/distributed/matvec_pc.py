"""The producer-consumer matrix-vector product (Sec. 5.3, Fig. 5).

One pipeline, two hand-offs.  The pipeline (:class:`_Pipeline`) is written
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

The *hand-off* is the one thing the pipeline leaves open: a producer asks
it to ``acquire`` a buffer and ``deliver`` a payload, a consumer to
``accept`` a delivery (verify, de-duplicate, accumulate) and ``release``
the buffer.

- The **flag hand-off** (:class:`_FlagPipeline`) is the paper's
  deadlock-free protocol: the producer waits until its local ``isFull``
  atomic reads false, sets it and puts; the consumer clears it with a
  remote atomic write.  It trusts the transport and runs whenever no
  injected fault can reach the buffers.
- The **ARQ hand-off** (:class:`_ArqPipeline`) is stop-and-wait with
  sequence numbers and a CRC32 per payload: producers wait for an
  acknowledgement with a timeout and retransmit with exponential back-off,
  consumers drop corrupt deliveries and re-acknowledge duplicated ones.
  An exhausted retry budget raises :class:`~repro.errors.FaultError`, and
  so does an injected crash (on the simulator as the
  :class:`~repro.errors.DeadlockError` its stall becomes, on threads at
  once): the run never hangs and never returns silently wrong amplitudes,
  and the operator's matvec restart is what heals it.  It runs under any fault plan (``docs/RESILIENCE.md``) and,
  on the simulator, under a bare ``resilience=`` — there it *is* the
  measurement, the modelled cost of sequence numbers, checksums and
  acknowledgements.  In real shared memory a fault-free payload has no
  wire for bits to flip on, so a bare ``resilience=`` on ``threads`` runs
  the flag hand-off.
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
    corrupted_copy,
    finish_report,
    payload_checksum,
    produce_chunk,
    wire_bytes,
)
from repro.distributed.vector import DistributedVector
from repro.errors import ConfigError, FaultError
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


class ResilientBuffer:
    """The buffer of the ARQ hand-off: wire fields plus protocol state.

    Stop-and-wait per (producer, destination) pair: the producer counts
    the payload in ``sent``, keeps it as generated, and transmits — which
    publishes ``seq``, checksum and wire fields in one step; the consumer
    verifies the checksum, consumes exactly once (``consumed_seq`` guards
    against duplicated deliveries), and acknowledges by merging the seq
    into ``acked_seq`` and raising ``ack_flag``.  The producer reuses the
    buffer only once ``acked_seq`` catches up with ``sent`` — a timed wait,
    so a lost payload or lost ack triggers a retransmit, not a hang.
    """

    __slots__ = (
        "src", "dest", "sent", "seq", "acked_seq", "consumed_seq", "ack_flag",
        "betas", "values", "rows", "checksum", "payload",
        "uid", "fates", "lock",
    )

    def __init__(self, ex: Executor, src: int, dest: int, uid: int) -> None:
        self.src = src
        self.dest = dest
        self.sent = 0
        self.acked_seq = 0
        self.consumed_seq = 0
        self.ack_flag = ex.flag(False, name=f"ack[{src}->{dest}]")
        #: wire fields — what the consumer sees (possibly corrupted), and
        #: the seq they belong to
        self.betas: np.ndarray | None = None
        self.values: np.ndarray | None = None
        self.rows: np.ndarray | None = None
        self.seq = 0
        self.checksum = 0
        #: (betas, values, rows) as generated, kept for retransmits
        self.payload: tuple | None = None
        #: deterministic buffer id, the salt of the keyed fate draws on
        #: threads (two producers on one locale must not share a stream)
        self.uid = uid
        #: keyed fates drawn so far per sending locale: payloads from
        #: ``src``, acks from ``dest``
        self.fates = {src: 0, dest: 0}
        #: guards wire-field publication and snapshots, the consumed_seq
        #: check-and-claim and acked_seq merges on threads (a no-op context
        #: on the simulator, where atomicity between yields is free)
        self.lock = ex.lock()


class _Pipeline:
    """The pipeline body; subclasses supply the hand-off (module docstring).

    A hand-off implements ``buffers`` (a producer's buffer per
    destination), the generators ``acquire`` and ``accept``, ``deliver``
    (loads the buffer and returns the generator that sends it) and
    ``release``; it may override ``drain`` (what a producer waits for
    before it retires) and ``quiescent`` (what the closer waits for after
    the last one has).  Whatever it sends goes through :meth:`send` and
    :meth:`post`, so both protocols charge and count alike.
    """

    def __init__(
        self, ex, report, metrics, trace, op, basis, x, y,
        batch_size, consumer_fraction, buffer_capacity, work_stealing,
        producers_per_locale, consumers_per_locale, plan, faults, resilience,
    ) -> None:
        self.op, self.basis, self.x, self.y, self.plan = op, basis, x, y, plan
        self.ex, self.report = ex, report
        self.metrics, self.trace = metrics, trace
        self.faults, self.resilience = faults, resilience
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
        self.prod_scale = sim_prod / n_prod
        self.cons_scale = sim_cons / n_cons
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
        self.slow = [
            faults.slowdown(d) if faults is not None else 1.0 for d in range(n)
        ]

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

    # -- what both hand-offs share ------------------------------------------

    def charge(self, acct: dict, locale: int, phase: str, since, dt) -> None:
        """Book work begun at ``since`` and modelled as ``dt`` seconds:
        measured on a wall-clock backend, modelled (stretched by the
        locale's straggler factor) on the simulator."""
        ex = self.ex
        acct[phase] += (
            (ex.now - since) if ex.wall_clock else dt * self.slow[locale]
        )

    def stalled(self, acct: dict, since: float) -> None:
        """Book the time a producer spent waiting for a buffer."""
        waited = self.ex.now - since
        if waited > 0.0:
            acct["stall"] += waited

    def book(self, acct: dict, locale: int) -> None:
        """A retiring worker's busy seconds by phase go into the ledger."""
        with self.ex.mutex:
            for phase, seconds in acct.items():
                self.report.ledger.add(phase, locale, seconds)

    def accumulate(self, locale: int, betas, values, rows, acct: dict):
        """``stateToIndex`` + accumulate one delivery into ``y``; books
        and returns its modelled seconds."""
        since = self.ex.now
        with self.consume_locks[locale]:
            consume(
                self.basis, locale, self.y.parts[locale], betas, values, rows
            )
        dt = self.t_consume * betas.size
        self.charge(acct, locale, "search+accum", since, dt)
        return dt

    def send(self, rb, n_elements: int, fate=None, retransmit: bool = False):
        """Count one hand-off, charge its transfer — a memcpy on the
        producer's own locale, the NIC towards any other — and let the
        buffer arrive in the destination's ready queue."""
        src, dest, metrics = rb.src, rb.dest, self.metrics
        nbytes = n_elements * self.element_bytes
        with self.ex.mutex:
            count_messages(
                self.report, metrics, src, dest, 1, nbytes, retransmit
            )
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
        self.post(dest == src, partial(self.ready[dest].push, rb), fate)

    def post(self, local: bool, effect, fate=None) -> None:
        """Land a message's ``effect`` (a queue push, a flag write): at once
        on the sender's own locale, else one remote-atomic latency later
        (an active message; zero in shared memory) — unless an injected
        ``fate`` drops it, doubles it, or delays it, which must genuinely
        postpone the arrival on every backend."""
        ex = self.ex
        if local:
            effect()
        elif fate is None:
            ex.call_later(self.latency, effect)
        elif not fate.drop:
            for _ in range(2 if fate.duplicate else 1):
                if ex.wall_clock and fate.extra_delay > 0.0:
                    ex.call_after(fate.extra_delay, effect)
                else:
                    ex.call_later(self.latency + fate.extra_delay, effect)

    def drain(self, buffers, acct: dict):
        return ()

    def quiescent(self):
        return ()

    # -- the body -----------------------------------------------------------

    def producer(self, locale: int, producer_id: int):
        ex, n = self.ex, self.n
        capacity = self.buffer_capacity
        x_local = self.x.parts[locale]
        chunks, cursor = self.chunks[locale], self.cursors[locale]
        acct = {"generate": 0.0, "stall": 0.0}
        buffers = self.buffers(locale, producer_id)
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
            self.charge(acct, locale, "generate", since, dt)
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
                    payload = (
                        betas[piece],
                        values[piece],
                        None if rows is None else rows[piece],
                    )
                    yield from self.acquire(rb, acct)
                    yield from self.deliver(rb, payload, acct)
        yield from self.drain(buffers, acct)
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
            accepted = yield from self.accept(rb, acct)
            if accepted is None:
                continue
            seq, dt = accepted
            if dt is not None:
                yield Timeout(dt, "search+accum")
            self.release(rb, seq)
        self.book(acct, locale)

    def closer(self):
        yield WaitFlag(self.producers_done, True)
        yield from self.quiescent()
        for locale, count in enumerate(self.consumer_counts):
            for _ in range(int(count.get())):
                self.ready[locale].push(_SENTINEL)

    def run(self) -> tuple[DistributedVector, SimReport]:
        ex, report, trace = self.ex, self.report, self.trace
        basis, x, y, k = self.basis, self.x, self.y, self.k
        for locale in range(self.n):
            for p in range(self.sim_prod):
                ex.spawn(
                    self.producer(locale, p),
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
        if self.resilience is not None:
            report.extras["resilient"] = 1.0
        return finish_report(report, x, y, self.metrics, ex.wall_clock)


class _FlagPipeline(_Pipeline):
    """The flag hand-off: ``is_full_local`` per buffer, and an in-flight
    count that tells the closer when the last buffer has been consumed."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.inflight = self.ex.counter(0)
        self.drained = self.ex.flag(False)

    def buffers(self, locale: int, producer_id: int):
        return [RemoteBuffer(self.ex, locale, d) for d in range(self.n)]

    def acquire(self, rb: RemoteBuffer, acct: dict):
        since = self.ex.now
        yield WaitFlag(rb.is_full_local, False)
        self.stalled(acct, since)

    def deliver(self, rb: RemoteBuffer, payload, acct: dict):
        # Set the local flag first; the remote side learns of the buffer
        # when it arrives: the paper's deadlock-free order.
        rb.is_full_local.set(True)
        rb.betas, rb.values, rb.rows = payload
        self.inflight.add(1)
        return self.send(rb, payload[0].size)

    def accept(self, rb: RemoteBuffer, acct: dict):
        yield from ()  # nothing to verify: the flag orders writes and reads
        dt = self.accumulate(rb.dest, rb.betas, rb.values, rb.rows, acct)
        return None, dt

    def release(self, rb: RemoteBuffer, seq) -> None:
        self.inflight.add(-1)
        # Clear the producer's local flag with a remote atomic write.
        self.post(rb.src == rb.dest, partial(rb.is_full_local.set, False))
        self.check_drained()

    def check_drained(self) -> None:
        if self.producers_remaining.get() == 0 and self.inflight.get() == 0:
            self.drained.set(True)

    def quiescent(self):
        self.check_drained()
        yield WaitFlag(self.drained, True)


class _ArqPipeline(_Pipeline):
    """The ARQ hand-off over :class:`ResilientBuffer` (module docstring)."""

    def buffers(self, locale: int, producer_id: int):
        first = (locale * self.sim_prod + producer_id) * self.n
        return [
            ResilientBuffer(self.ex, locale, d, first + d)
            for d in range(self.n)
        ]

    def fate(self, rb: ResilientBuffer, src: int, dst: int):
        """The injected fate of ``rb``'s next message ``src -> dst`` (``None``
        without a plan): from the plan's sequential stream on the
        simulator, a pure function of message identity on threads, so any
        interleaving of real workers sees the same fault assignment."""
        faults = self.faults
        if faults is None:
            return None
        if not self.ex.wall_clock:
            return faults.message_fate(src, dst)
        with rb.lock:
            attempt = rb.fates[src]
            rb.fates[src] = attempt + 1
        return faults.message_fate_keyed(src, dst, attempt, salt=rb.uid)

    def acquire(self, rb: ResilientBuffer, acct: dict):
        """Wait until the buffer's outstanding payload is acknowledged,
        retransmitting it on every timeout."""
        if rb.sent == 0:
            return
        ex, resilience = self.ex, self.resilience
        timeout = resilience.ack_timeout
        retries = 0
        since = ex.now
        while rb.acked_seq < rb.sent:
            ok = yield WaitFlag(rb.ack_flag, True, timeout=timeout)
            rb.ack_flag.set(False)
            if ok:
                # Either the awaited ack (loop exits) or a stale duplicate
                # ack for an older seq (loop waits again).
                continue
            retries += 1
            with ex.mutex:
                self.metrics.counter(
                    "fault.timeouts", src=rb.src, dst=rb.dest
                ).inc()
            if retries > resilience.max_retries:
                raise FaultError(
                    f"RemoteBuffer handoff {rb.src}->{rb.dest} seq "
                    f"{rb.sent} unacknowledged after {retries - 1} "
                    f"retransmits (retry budget "
                    f"{resilience.max_retries} exhausted)"
                )
            timeout *= resilience.backoff
            yield from self.transmit(rb, acct, retransmit=True)
        self.stalled(acct, since)

    def deliver(self, rb: ResilientBuffer, payload, acct: dict):
        rb.sent += 1
        rb.payload = payload
        return self.transmit(rb, acct)

    def transmit(self, rb: ResilientBuffer, acct: dict, retransmit=False):
        ex = self.ex
        betas, values, rows = rb.payload
        local = rb.dest == rb.src
        fate = None if local else self.fate(rb, rb.src, rb.dest)
        wire_values = values
        if fate is not None and fate.corrupt:
            # The payload as generated stays behind for the retransmit.
            wire_values = corrupted_copy(values)
        crc = 0
        if self.resilience.checksums:
            since = ex.now
            crc = payload_checksum(betas, values)
            dt = (
                self.machine.checksum_time(betas.size * self.element_bytes)
                * self.prod_scale
            )
            self.charge(acct, rb.src, "generate", since, dt)
            yield Timeout(dt, "checksum")
        with rb.lock:
            rb.seq, rb.checksum = rb.sent, crc
            rb.betas, rb.values, rb.rows = betas, wire_values, rows
        yield from self.send(rb, betas.size, fate, retransmit)

    def drain(self, buffers, acct: dict):
        # A producer retires only with every payload acknowledged, so "all
        # producers done" implies "all payloads consumed".
        for rb in buffers:
            yield from self.acquire(rb, acct)

    def accept(self, rb: ResilientBuffer, acct: dict):
        # Snapshot the wire fields up front: a retransmit may overwrite
        # them while this consumer is inside a Timeout (on threads, while
        # it runs at all — hence the lock).
        with rb.lock:
            betas, values, rows = rb.betas, rb.values, rb.rows
            seq, expected = rb.seq, rb.checksum
        ex, locale = self.ex, rb.dest
        if self.resilience.checksums:
            since = ex.now
            intact = payload_checksum(betas, values) == expected
            dt = (
                self.machine.checksum_time(betas.size * self.element_bytes)
                * self.cons_scale
            )
            self.charge(acct, locale, "search+accum", since, dt)
            yield Timeout(dt, "verify")
            if not intact:
                # Corrupt on the wire: drop without acknowledging; the
                # producer's timeout will retransmit.
                with ex.mutex:
                    self.metrics.counter(
                        "recovery.checksum_rejects", src=rb.src, dst=locale
                    ).inc()
                return None
        # Check, accumulate and claim under the buffer lock: a second
        # consumer popping a duplicate of this delivery must see it as
        # consumed.
        dt = None
        with rb.lock:
            if seq > rb.consumed_seq:
                dt = self.accumulate(locale, betas, values, rows, acct)
                rb.consumed_seq = seq
        if dt is None:
            with ex.mutex:
                self.metrics.counter("recovery.duplicates_discarded").inc()
        return seq, dt

    def release(self, rb: ResilientBuffer, seq: int) -> None:
        # Acknowledge — duplicates too: the original ack may have been the
        # dropped message.
        def ack():
            with rb.lock:
                rb.acked_seq = max(rb.acked_seq, seq)
            rb.ack_flag.set(True)

        local = rb.src == rb.dest
        fate = None if local else self.fate(rb, rb.dest, rb.src)
        self.post(local, ack, fate)


def matvec_producer_consumer(
    op: CompiledOperator,
    basis: DistributedBasis,
    x: DistributedVector,
    y: DistributedVector | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
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

    ``producers_per_locale`` / ``consumers_per_locale`` (both or neither)
    override the ``consumer_fraction`` split (they are capped at sensible
    values for the Python simulation — what matters for the timing model
    is the *ratio* and the per-core rates, both of which are preserved).
    On the real ``threads`` backend they are literal thread counts
    (default one producer and one consumer thread per locale).

    ``faults`` / ``resilience`` ask for the self-healing protocol and set
    ``extras["resilient"]``; a fault plan runs under the policy beside it
    (the :class:`~repro.distributed.operator.DistributedOperator` supplies
    the default one).  Which hand-off then runs follows from what can go
    wrong (module docstring); a bare ``resilience=ResilienceConfig()`` on
    the simulator measures the fault-free cost of sequence numbers +
    checksums.
    """
    require_positive(buffer_capacity=buffer_capacity)
    if (producers_per_locale, consumers_per_locale) != (None, None):
        # Both or neither: one alone is not a split.
        require_positive(
            producers_per_locale=producers_per_locale,
            consumers_per_locale=consumers_per_locale,
        )
    run = AnalyticMatvec(op, basis, x, y, batch_size, plan)
    if faults is not None and resilience is None:
        raise ConfigError("a fault plan needs a resilience policy beside it")
    if faults is not None and faults.corrupt > 0 and not resilience.checksums:
        raise ConfigError(
            "corruption injection with checksums disabled would return "
            "silently wrong amplitudes; enable ResilienceConfig.checksums"
        )

    if basis.n_locales == 1:
        crashes = faults.take_crashes() if faults is not None else {}
        if crashes:
            locale = min(crashes)
            faults.record_crash(locale)
            raise FaultError(
                f"locale {locale} crashed at t={crashes[locale]:.3g} "
                "during the shared-memory matvec"
            )
        return _shared_memory_matvec(run)

    ex = get_executor(
        basis.cluster, trace=run.trace, faults=faults, resilience=resilience
    )
    # No injected fault can reach the buffers without a plan, and in real
    # shared memory nothing else can either: the flag hand-off suffices.
    flag = faults is None and (resilience is None or ex.wall_clock)
    return (_FlagPipeline if flag else _ArqPipeline)(
        ex, run.report, run.metrics, run.trace, op, basis, x, run.y,
        batch_size, consumer_fraction, buffer_capacity, work_stealing,
        producers_per_locale, consumers_per_locale, plan, faults, resilience,
    ).run()


def _shared_memory_matvec(
    run: AnalyticMatvec,
) -> tuple[DistributedVector, SimReport]:
    """Single-locale mode: all cores generate and consume (no pipeline),
    walking the chunks in order.

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
    for _, n_emitted, n_elements, _ in run.chunks(produce_chunk):
        gen_work += machine.t_generate * n_emitted
        search_work += (
            machine.t_search_accum + machine.t_axpy * (k - 1)
        ) * n_elements
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
