"""The batched distributed matrix-vector product (``getManyRows``).

The first optimization of Sec. 5.3: whole chunks of rows are generated at
once, sorted by destination locale in linear time, and shipped in one
remote put per ``(chunk, destination)``.  A remote task is still spawned
for every such put — after one step there are ``(#locales)^2 * #cores``
tasks competing for ``#locales * #cores`` cores — and every transfer pays
buffer allocation/pinning because nothing is reused.  Those two costs are
what the producer-consumer refinement (:mod:`repro.distributed.matvec_pc`)
eliminates.

Cost model: per locale, producers (all cores) generate and partition; each
outgoing put pays NIC latency + size-dependent bandwidth, serialized per
NIC, plus a pinning charge; each incoming put spawns a task (spawn
overhead + search + accumulate) on the shared core pool.  Production and
consumption share cores, so their busy times add; communication overlaps
compute (Chapel tasks yield while blocked on comm), so the elapsed time per
locale is ``max(compute busy, NIC busy)``.

Structure mirrors :mod:`repro.distributed.matvec_naive`: the data phase
(one task per chunk: generate + partition + scatter-accumulate) runs
through :meth:`~repro.runtime.executor.Executor.map` — in order on the
``sim`` backend, concurrently on ``threads`` with a per-destination lock
around the shared ``y`` accumulate — and the accounting phase replays the
per-chunk summaries on the calling thread in the original order, keeping
simulated numbers bit-identical to the pre-executor inline loop.
"""

from __future__ import annotations

import time

import numpy as np

from repro.distributed.dist_basis import DistributedBasis
from repro.distributed.matvec_common import (
    apply_diagonal,
    check_vectors,
    consume,
    extra_column_time,
    produce_chunk,
    wire_bytes,
)
from repro.distributed.vector import DistributedVector
from repro.errors import FaultError
from repro.operators.compile import CompiledOperator
from repro.resilience.faults import ResilienceConfig
from repro.runtime.clock import CostLedger, SimReport
from repro.runtime.executor import get_executor
from repro.telemetry.context import current as current_telemetry
from repro.telemetry.jobs import attribute_report

__all__ = ["matvec_batched"]

#: Bandwidth at which transfer buffers can be allocated + pinned (B/s).
PIN_BANDWIDTH = 2.0e9


def matvec_batched(
    op: CompiledOperator,
    basis: DistributedBasis,
    x: DistributedVector,
    y: DistributedVector | None = None,
    batch_size: int = 1 << 13,
    plan=None,
    faults=None,
    resilience=None,
) -> tuple[DistributedVector, SimReport]:
    """``y = H x`` with chunked generation and per-chunk remote tasks.

    ``plan`` (a :class:`~repro.operators.plan.MatvecPlan`) caches each
    chunk's x-independent data across calls.

    With ``faults`` / ``resilience``, the analytic cost model charges the
    recovery protocol per remote put: a dropped or checksum-rejected put
    waits out a detection timeout and pays the transfer (plus pinning)
    again; a duplicated put pays a discarded task spawn at the
    destination; checksums cost CRC32 time on both ends; stragglers
    stretch per-locale compute; a crash before the simulated finish
    raises :class:`~repro.errors.FaultError` (this variant is the
    fallback target of the producer-consumer pipeline, so its recovery
    semantics must be total short of a crash).  The fault model is
    analytic (defined in simulated time), so on ``threads`` the recovery
    costs land in ``extras["model_seconds"]`` and crashes are judged
    against the *model* finish time, while ``report.elapsed`` stays
    measured wall clock.
    """
    y = check_vectors(basis, x, y)
    machine = basis.cluster.machine
    net = machine.network
    n = basis.n_locales
    k = x.n_columns
    ledger = CostLedger(n)
    report = SimReport(ledger=ledger)
    tele = current_telemetry()
    metrics = tele.metrics
    metrics.gauge("matvec.block_width").set(float(k))
    trace = tele.trace if tele.trace.enabled else None

    resilient = faults is not None or resilience is not None
    if resilient and resilience is None:
        resilience = ResilienceConfig()
    crashes = faults.take_crashes() if faults is not None else {}
    extra_nic = np.zeros(n)  # injected delays + retransmitted puts
    extra_compute = np.zeros(n)  # checksums + duplicate-discard spawns
    retry_wait = np.zeros(n)  # serialized detection-timeout windows

    ex = get_executor(basis.cluster, trace=trace)
    wall_start = time.perf_counter()
    apply_diagonal(op, basis, x, y, plan)
    compute_busy = np.zeros(n)  # generation + partition + consumption
    nic_out = np.zeros(n)
    nic_in = np.zeros(n)
    pair_bytes = np.zeros((n, n), dtype=np.int64)
    pair_msgs = np.zeros((n, n), dtype=np.int64)
    pair_time = np.zeros((n, n))
    for locale in range(n):
        compute_busy[locale] += machine.compute_time(
            machine.t_axpy, int(basis.counts[locale]) * k
        )

    # -- data phase ---------------------------------------------------------
    # Named per-destination locks key the executor.lock_* contention
    # histograms on the threads backend (no-op contexts on sim).
    consume_locks = [ex.lock(f"consume{locale}") for locale in range(n)]
    chunks = [
        (locale, start, min(start + batch_size, int(basis.counts[locale])))
        for locale in range(n)
        for start in range(0, int(basis.counts[locale]), batch_size)
    ]

    def run_chunk(locale: int, start: int, stop: int):
        t0 = time.perf_counter()
        chunk = produce_chunk(
            op, basis, locale, start, stop, x.parts[locale], plan
        )
        sizes = []
        for dest in range(n):
            betas, values = chunk.slice_for(dest)
            if betas.size:
                with consume_locks[dest]:
                    consume(
                        basis, dest, y.parts[dest], betas, values,
                        chunk.rows_for(dest),
                    )
            sizes.append(int(betas.size))
        return (
            locale,
            chunk.n_emitted,
            int(chunk.betas.size),
            sizes,
            time.perf_counter() - t0,
        )

    summaries = ex.map(
        [lambda a=c: run_chunk(*a) for c in chunks],
        locales=[c[0] for c in chunks],
    )

    # -- accounting phase ---------------------------------------------------
    # Original (locale, chunk, dest) order: metric increments and the
    # seeded RNG draws of ``faults.message_fate`` replay in exactly the
    # sequence of the pre-executor inline loop.
    task_wall = np.zeros(n)
    for locale, n_emitted, total_size, sizes, wall in summaries:
        task_wall[locale] += wall
        gen = machine.compute_time(machine.t_generate, n_emitted)
        part = machine.compute_time(
            machine.t_partition + machine.t_hash, total_size
        ) + extra_column_time(machine, total_size, k)
        compute_busy[locale] += gen + part
        ledger.add("generate", locale, gen + part)
        for dest, size in enumerate(sizes):
            if size == 0:
                continue
            nbytes = wire_bytes(size, k)
            report.messages += 1
            report.bytes_sent += nbytes
            metrics.counter("matvec.messages", src=locale, dst=dest).inc()
            metrics.counter(
                "matvec.bytes", src=locale, dst=dest
            ).inc(nbytes)
            metrics.histogram("matvec.buffer_elements").observe(size)
            pin = nbytes / PIN_BANDWIDTH  # fresh buffer every time
            pair_bytes[locale, dest] += nbytes
            pair_msgs[locale, dest] += 1
            if resilient and resilience.checksums:
                crc = machine.checksum_time(nbytes)
                extra_compute[locale] += crc
                extra_compute[dest] += crc
            if dest == locale:
                compute_busy[locale] += machine.memcpy_time(nbytes) + pin
            else:
                cost = net.transfer_time(nbytes) + pin
                nic_out[locale] += cost
                nic_in[dest] += cost
                pair_time[locale, dest] += cost
                if faults is not None:
                    fate = faults.message_fate(locale, dest)
                    if fate.drop or fate.corrupt:
                        # Detection timeout, then pay the put again.
                        retry_wait[locale] += resilience.ack_timeout
                        extra_nic[locale] += cost
                        extra_nic[dest] += cost
                        report.messages += 1
                        report.bytes_sent += nbytes
                        metrics.counter(
                            "recovery.retransmits", src=locale, dst=dest
                        ).inc()
                        if fate.corrupt:
                            metrics.counter(
                                "recovery.checksum_rejects",
                                src=locale, dst=dest,
                            ).inc()
                    if fate.duplicate:
                        extra_compute[dest] += machine.compute_time(
                            machine.task_spawn_overhead, 1
                        )
                        metrics.counter(
                            "recovery.duplicates_discarded"
                        ).inc()
                    extra_nic[locale] += fate.extra_delay
                    extra_nic[dest] += fate.extra_delay
            spawn_and_search = (
                machine.compute_time(machine.t_search_accum, size)
                + machine.compute_time(machine.task_spawn_overhead, 1)
                + extra_column_time(machine, size, k)
            )
            compute_busy[dest] += spawn_and_search
            ledger.add("consume", dest, spawn_and_search)
    data_wall = time.perf_counter() - wall_start

    slow = (
        np.array([faults.slowdown(locale) for locale in range(n)])
        if faults is not None
        else np.ones(n)
    )
    total_compute = (compute_busy + extra_compute) * slow
    per_locale = (
        np.maximum(total_compute, np.maximum(nic_out, nic_in) + extra_nic)
        + retry_wait
    )
    for locale in range(n):
        ledger.add(
            "nic",
            locale,
            float(max(nic_out[locale], nic_in[locale]) + extra_nic[locale]),
        )
        if resilient:
            ledger.add(
                "recovery", locale, float(extra_compute[locale] + retry_wait[locale])
            )
        straggler_extra = float(compute_busy[locale] * (slow[locale] - 1.0))
        if straggler_extra > 0.0:
            ledger.add("straggler", locale, straggler_extra)
    model_elapsed = float(per_locale.max()) if n else 0.0
    report.elapsed = data_wall if ex.wall_clock else model_elapsed
    if ex.wall_clock:
        report.extras["model_seconds"] = model_elapsed
        # The map-based data phase never goes through ex.run(): merge any
        # buffered lock wait/hold metrics explicitly.
        ex.finish()
    report.merge_phase("matvec", report.elapsed)
    report.extras["block_width"] = float(k)
    report.extras["seconds_per_column"] = report.elapsed / k
    if trace is not None:
        if ex.wall_clock:
            trace.mark_wall()
            for locale in range(n):
                if task_wall[locale] > 0.0:
                    trace.complete(
                        (f"locale{locale}", "worker0"),
                        "matvec",
                        0.0,
                        float(task_wall[locale]),
                    )
            trace.advance(report.elapsed)
        else:
            # Chapel tasks yield while blocked on communication, so the cost
            # model lets the NIC time overlap the compute time; the trace
            # mirrors that with a busy compute span on the worker track and
            # the per-destination puts serialized on the NIC track alongside
            # it.
            for locale in range(n):
                process = f"locale{locale}"
                if compute_busy[locale] > 0.0:
                    trace.complete(
                        (process, "worker0"), "compute", 0.0,
                        compute_busy[locale],
                    )
                t = 0.0
                for dest in range(n):
                    if pair_msgs[locale, dest] == 0:
                        continue
                    duration = float(pair_time[locale, dest])
                    trace.complete(
                        (process, "net"),
                        "send",
                        t,
                        duration,
                        {
                            "src": locale,
                            "dst": dest,
                            "bytes": int(pair_bytes[locale, dest]),
                            "msgs": int(pair_msgs[locale, dest]),
                        },
                    )
                    t += duration
            trace.advance(report.elapsed)
    if resilient:
        report.extras["resilient"] = 1.0
    if crashes:
        victim = min(crashes, key=crashes.get)
        at = crashes[victim]
        # Judged against the analytic finish time on both backends: tying
        # a seeded plan's fate to host wall clock would make chaos runs
        # unreproducible on ``threads``.
        if at < model_elapsed:
            faults.record_crash(victim)
            raise FaultError(
                f"locale {victim} crashed at t={at:.3g} before the batched "
                f"matvec finished (t={model_elapsed:.3g})"
            )
    metrics.counter(
        "wall.seconds" if ex.wall_clock else "sim.seconds", phase="matvec"
    ).inc(report.elapsed)
    attribute_report(report, "matvec.batched", x, y)
    if metrics.enabled:
        report.metrics = metrics.snapshot()
    return y, report
