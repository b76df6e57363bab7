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

Structure mirrors :mod:`repro.distributed.matvec_naive`:
:class:`~repro.distributed.matvec_common.AnalyticMatvec` moves the real
data and frames the report; this module is the accounting.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.dist_basis import DistributedBasis
from repro.distributed.matvec_common import (
    DEFAULT_BATCH_SIZE,
    AnalyticMatvec,
    count_messages,
    diagonal_seconds,
    extra_column_time,
    produce_chunk,
    require_simulator,
    wire_bytes,
)
from repro.distributed.vector import DistributedVector
from repro.operators.compile import CompiledOperator
from repro.runtime.clock import SimReport

__all__ = ["matvec_batched"]

#: Bandwidth at which transfer buffers can be allocated + pinned (B/s).
PIN_BANDWIDTH = 2.0e9


def matvec_batched(
    op: CompiledOperator,
    basis: DistributedBasis,
    x: DistributedVector,
    batch_size: int = DEFAULT_BATCH_SIZE,
    plan=None,
) -> tuple[DistributedVector, SimReport]:
    """``y = H x`` with chunked generation and per-chunk remote tasks.

    ``sim`` only: a wall-clock cluster raises
    :class:`~repro.errors.ConfigError` before any work.  ``plan`` (a
    :class:`~repro.operators.plan.MatvecPlan`) caches each chunk's
    x-independent data across calls; it serves one compiled operator,
    basis and batch size, which this function does not check.  Returns a
    new ``y``.
    """
    require_simulator("batched", basis.cluster)
    run = AnalyticMatvec(op, basis, x, batch_size, plan)
    machine = basis.cluster.machine
    net = machine.network
    n = basis.n_locales
    k = x.n_columns
    report, ledger, metrics = run.report, run.report.ledger, run.metrics
    trace = run.trace
    # diagonal + generation + partition + consumption
    compute_busy = np.array(diagonal_seconds(basis, k))
    nic_out = np.zeros(n)
    nic_in = np.zeros(n)
    pair_bytes = np.zeros((n, n), dtype=np.int64)
    pair_msgs = np.zeros((n, n), dtype=np.int64)
    pair_time = np.zeros((n, n))

    for locale, n_emitted, total_size, sizes in run.chunks(produce_chunk):
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
            count_messages(report, metrics, locale, dest, 1, nbytes)
            pin = nbytes / PIN_BANDWIDTH  # fresh buffer every time
            pair_bytes[locale, dest] += nbytes
            pair_msgs[locale, dest] += 1
            if dest == locale:
                compute_busy[locale] += machine.memcpy_time(nbytes) + pin
            else:
                cost = net.transfer_time(nbytes) + pin
                nic_out[locale] += cost
                nic_in[dest] += cost
                pair_time[locale, dest] += cost
            spawn_and_search = (
                machine.compute_time(machine.t_search_accum, size)
                + machine.compute_time(machine.task_spawn_overhead, 1)
                + extra_column_time(machine, size, k)
            )
            compute_busy[dest] += spawn_and_search
            ledger.add("consume", dest, spawn_and_search)

    nic_busy = np.maximum(nic_out, nic_in)
    per_locale = np.maximum(compute_busy, nic_busy)
    for locale in range(n):
        ledger.add("nic", locale, float(nic_busy[locale]))
    if trace is not None:
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
            run.trace_sends(
                locale, 0.0, pair_time[locale], pair_bytes[locale],
                pair_msgs[locale],
            )
    return run.finish(float(per_locale.max()))
