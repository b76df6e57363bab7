"""The naive distributed matrix-vector product (first listing of Sec. 5.3).

One remote task is spawned *per matrix element*: for every source state the
producer computes a row, and each ``(beta, coeff)`` pair triggers its own
synchronous remote ``on``-clause carrying 16 bytes.  The arithmetic is the
transposed push formulation (information flows one way), so the result is
exact — but the cost model charges a task-spawn overhead and a tiny message
for every element, which is why this version cannot scale and the paper
immediately refines it.  Kept as the ablation baseline.

Structure: the *data phase* (row generation + scatter-accumulate, the only
part that moves real bytes) runs as one task per chunk through
:meth:`~repro.runtime.executor.Executor.map` — sequential and in order on
the ``sim`` backend, concurrently on ``threads`` with a per-destination
lock around the shared ``y`` accumulate.  The *accounting phase* then
replays the returned per-chunk summaries on the calling thread in the
original (locale, chunk, destination) order, so every metric, ledger
entry, and fault-RNG draw happens in exactly the sequence the old inline
loop produced — simulated numbers are bit-identical.
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

__all__ = ["matvec_naive"]


def matvec_naive(
    op: CompiledOperator,
    basis: DistributedBasis,
    x: DistributedVector,
    y: DistributedVector | None = None,
    batch_size: int = 1 << 14,
    plan=None,
    faults=None,
    resilience=None,
) -> tuple[DistributedVector, SimReport]:
    """``y = H x`` with one simulated remote task per matrix element.

    ``batch_size`` only controls the internal vectorization of the Python
    implementation; the *simulated* execution is strictly per-element.
    ``plan`` (a :class:`~repro.operators.plan.MatvecPlan`) caches each
    chunk's x-independent data across calls.

    With ``faults`` / ``resilience``, the analytic cost model charges the
    recovery protocol: dropped or corrupt element messages pay a
    detection-timeout window plus a retransmit, duplicated deliveries pay
    an extra task spawn at the destination (the seq check discards them),
    checksums pay CRC32 time on both ends, stragglers stretch the slow
    locale's compute, and a crash before the simulated finish raises
    :class:`~repro.errors.FaultError`.  The *data* path is unaffected —
    recovery always converges here, so the result stays exact.  The fault
    model is analytic (defined in simulated time), so on ``threads`` the
    recovery costs land in ``extras["model_seconds"]`` and crashes are
    judged against the *model* finish time, while ``report.elapsed``
    stays measured wall clock.
    """
    y = check_vectors(basis, x, y)
    machine = basis.cluster.machine
    n = basis.n_locales
    k = x.n_columns
    element_bytes = wire_bytes(1, k)
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
    extra_nic = np.zeros(n)  # injected delays + retransmitted elements
    extra_compute = np.zeros(n)  # checksums + duplicate-discard spawns
    retry_wait = np.zeros(n)  # serialized detection-timeout windows

    ex = get_executor(basis.cluster, trace=trace)
    wall_start = time.perf_counter()
    n_diag = apply_diagonal(op, basis, x, y, plan)
    for locale in range(n):
        ledger.add(
            "diagonal",
            locale,
            machine.compute_time(
                machine.t_axpy, int(basis.counts[locale]) * k
            ),
        )

    net = machine.network
    generate_time = np.zeros(n)
    incoming_elements = np.zeros(n, dtype=np.int64)
    outgoing_elements = np.zeros(n, dtype=np.int64)
    pair_elements = np.zeros((n, n), dtype=np.int64)

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
    # Replayed on the calling thread in the original (locale, chunk, dest)
    # order: the metric increments and — crucially — the seeded RNG draws of
    # ``faults.message_fates`` happen in exactly the sequence the inline
    # loop produced, so simulated numbers do not depend on the backend's
    # completion order.
    task_wall = np.zeros(n)
    for locale, n_emitted, total_size, sizes, wall in summaries:
        task_wall[locale] += wall
        generate_time[locale] += machine.compute_time(
            machine.t_generate, n_emitted
        ) + extra_column_time(machine, total_size, k)
        for dest, size in enumerate(sizes):
            if size == 0:
                continue
            outgoing_elements[locale] += size
            incoming_elements[dest] += size
            pair_elements[locale, dest] += size
            report.messages += size
            report.bytes_sent += wire_bytes(size, k)
            metrics.counter(
                "matvec.messages", src=locale, dst=dest
            ).inc(size)
            metrics.counter(
                "matvec.bytes", src=locale, dst=dest
            ).inc(wire_bytes(size, k))
            if resilient and resilience.checksums:
                crc = machine.compute_time(
                    machine.checksum_time(element_bytes), size
                )
                extra_compute[locale] += crc
                extra_compute[dest] += crc
            if faults is not None and dest != locale:
                fates = faults.message_fates(locale, dest, size)
                retrans = fates.drops + fates.corrupts
                if retrans:
                    # Lost/rejected elements wait out one (overlapped)
                    # detection timeout, then retransmit through the NIC.
                    retry_wait[locale] += resilience.ack_timeout
                    penalty = retrans * net.transfer_time(element_bytes)
                    extra_nic[locale] += penalty
                    extra_nic[dest] += penalty
                    report.messages += retrans
                    report.bytes_sent += wire_bytes(retrans, k)
                    metrics.counter(
                        "recovery.retransmits", src=locale, dst=dest
                    ).inc(retrans)
                    if fates.corrupts:
                        metrics.counter(
                            "recovery.checksum_rejects",
                            src=locale, dst=dest,
                        ).inc(fates.corrupts)
                if fates.duplicates:
                    extra_compute[dest] += machine.compute_time(
                        machine.task_spawn_overhead, fates.duplicates
                    )
                    metrics.counter(
                        "recovery.duplicates_discarded"
                    ).inc(fates.duplicates)
                extra_nic[locale] += fates.extra_delay
                extra_nic[dest] += fates.extra_delay
    data_wall = time.perf_counter() - wall_start

    # Simulated cost: producers generate in parallel over cores; every
    # element then pays a remote task spawn plus a 16-byte message; the
    # per-message latencies serialize at the destination NIC, and the spawned
    # tasks (search + accumulate) share the destination's cores.
    per_locale = np.zeros(n)
    trace_end = 0.0
    for locale in range(n):
        slow = faults.slowdown(locale) if faults is not None else 1.0
        nic_in = incoming_elements[locale] * net.transfer_time(element_bytes)
        task_time = machine.compute_time(
            machine.task_spawn_overhead + machine.t_search_accum,
            int(incoming_elements[locale]),
        ) + extra_column_time(machine, int(incoming_elements[locale]), k)
        nic_out = outgoing_elements[locale] * net.transfer_time(element_bytes)
        compute = (generate_time[locale] + extra_compute[locale]) * slow
        straggler_extra = (
            (generate_time[locale] + extra_compute[locale] + task_time)
            * (slow - 1.0)
        )
        consume_time = max(nic_in + extra_nic[locale], task_time * slow)
        per_locale[locale] = (
            compute
            + max(consume_time, nic_out + extra_nic[locale])
            + retry_wait[locale]
        )
        ledger.add("generate", locale, generate_time[locale])
        ledger.add("remote-tasks", locale, task_time)
        ledger.add("nic", locale, max(nic_in, nic_out) + extra_nic[locale])
        if resilient:
            ledger.add("recovery", locale, extra_compute[locale] + retry_wait[locale])
        if straggler_extra > 0.0:
            ledger.add("straggler", locale, straggler_extra)
        if trace is not None and not ex.wall_clock:
            # The naive variant is effectively serialized per locale:
            # generate everything, then drain the per-element sends through
            # the NIC, then run the spawned remote tasks.  Spans mirror that
            # (no compute/communication overlap, unlike the pipeline).
            process = f"locale{locale}"
            t = 0.0
            if generate_time[locale] > 0.0:
                trace.complete(
                    (process, "worker0"), "generate", t, generate_time[locale]
                )
            t += generate_time[locale]
            for dest in range(n):
                elements = int(pair_elements[locale, dest])
                if elements == 0:
                    continue
                duration = (
                    0.0
                    if dest == locale
                    else elements * net.transfer_time(element_bytes)
                )
                trace.complete(
                    (process, "net"),
                    "send",
                    t,
                    duration,
                    {
                        "src": locale,
                        "dst": dest,
                        "bytes": wire_bytes(elements, k),
                        "msgs": elements,
                    },
                )
                t += duration
            if task_time > 0.0:
                trace.complete(
                    (process, "worker0"), "remote-tasks", t, task_time
                )
            trace_end = max(trace_end, t + task_time)
    model_elapsed = float(per_locale.max()) if n else 0.0
    if ex.wall_clock:
        report.elapsed = data_wall
        report.extras["model_seconds"] = model_elapsed
        # The map-based data phase never goes through ex.run(): merge any
        # buffered lock wait/hold metrics explicitly.
        ex.finish()
        if trace is not None:
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
        report.elapsed = model_elapsed
        if trace is not None:
            trace.advance(max(report.elapsed, trace_end))
    report.merge_phase("matvec", report.elapsed)
    report.extras["n_diag"] = float(n_diag)
    report.extras["elements"] = float(outgoing_elements.sum())
    report.extras["block_width"] = float(k)
    report.extras["seconds_per_column"] = report.elapsed / k
    if resilient:
        report.extras["resilient"] = 1.0
    if crashes:
        victim = min(crashes, key=crashes.get)
        at = crashes[victim]
        # Crashes are judged against the analytic finish time on both
        # backends: on ``threads`` the measured wall clock depends on host
        # load, and tying the fate of a seeded plan to it would make chaos
        # runs unreproducible.
        if at < model_elapsed:
            faults.record_crash(victim)
            raise FaultError(
                f"locale {victim} crashed at t={at:.3g} before the naive "
                f"matvec finished (t={model_elapsed:.3g})"
            )
    metrics.counter(
        "wall.seconds" if ex.wall_clock else "sim.seconds", phase="matvec"
    ).inc(report.elapsed)
    attribute_report(report, "matvec.naive", x, y)
    if metrics.enabled:
        report.metrics = metrics.snapshot()
    return y, report
