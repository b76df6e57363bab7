"""The naive distributed matrix-vector product (first listing of Sec. 5.3).

One remote task is spawned *per matrix element*: for every source state the
producer computes a row, and each ``(beta, coeff)`` pair triggers its own
synchronous remote ``on``-clause carrying 16 bytes.  The arithmetic is the
transposed push formulation (information flows one way), so the result is
exact — but the cost model charges a task-spawn overhead and a tiny message
for every element, which is why this version cannot scale and the paper
immediately refines it.  Kept as the ablation baseline.

Structure: :class:`~repro.distributed.matvec_common.AnalyticMatvec` moves
the real data and frames the report; this module is the accounting — what
one remote task per element costs.
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

__all__ = ["matvec_naive"]


def matvec_naive(
    op: CompiledOperator,
    basis: DistributedBasis,
    x: DistributedVector,
    batch_size: int = DEFAULT_BATCH_SIZE,
    plan=None,
) -> tuple[DistributedVector, SimReport]:
    """``y = H x`` with one simulated remote task per matrix element.

    ``batch_size`` only controls the internal vectorization of the Python
    implementation; the *simulated* execution is strictly per-element.
    ``sim`` only: a wall-clock cluster raises
    :class:`~repro.errors.ConfigError` before any work.  ``plan`` (a
    :class:`~repro.operators.plan.MatvecPlan`) caches each chunk's
    x-independent data across calls; it serves one compiled operator,
    basis and batch size, which this function does not check.  Returns a
    new ``y``.
    """
    require_simulator("naive", basis.cluster)
    run = AnalyticMatvec(op, basis, x, batch_size, plan)
    machine = basis.cluster.machine
    n = basis.n_locales
    k = x.n_columns
    element_bytes = wire_bytes(1, k)
    report, ledger, trace = run.report, run.report.ledger, run.trace
    for locale, seconds in enumerate(diagonal_seconds(basis, k)):
        ledger.add("diagonal", locale, seconds)

    net = machine.network
    generate_time = np.zeros(n)
    incoming_elements = np.zeros(n, dtype=np.int64)
    outgoing_elements = np.zeros(n, dtype=np.int64)
    pair_elements = np.zeros((n, n), dtype=np.int64)

    for locale, n_emitted, total_size, sizes in run.chunks(produce_chunk):
        generate_time[locale] += machine.compute_time(
            machine.t_generate, n_emitted
        ) + extra_column_time(machine, total_size, k)
        for dest, size in enumerate(sizes):
            if size == 0:
                continue
            outgoing_elements[locale] += size
            incoming_elements[dest] += size
            pair_elements[locale, dest] += size
            count_messages(
                report, run.metrics, locale, dest, size, wire_bytes(size, k)
            )

    # Simulated cost: producers generate in parallel over cores; every
    # element then pays a remote task spawn plus a 16-byte message; the
    # per-message latencies serialize at the destination NIC, and the spawned
    # tasks (search + accumulate) share the destination's cores.
    per_locale = np.zeros(n)
    trace_end = 0.0
    for locale in range(n):
        nic_in = incoming_elements[locale] * net.transfer_time(element_bytes)
        task_time = machine.compute_time(
            machine.task_spawn_overhead + machine.t_search_accum,
            int(incoming_elements[locale]),
        ) + extra_column_time(machine, int(incoming_elements[locale]), k)
        nic_out = outgoing_elements[locale] * net.transfer_time(element_bytes)
        per_locale[locale] = generate_time[locale] + max(
            nic_in, task_time, nic_out
        )
        ledger.add("generate", locale, generate_time[locale])
        ledger.add("remote-tasks", locale, task_time)
        ledger.add("nic", locale, max(nic_in, nic_out))
        if trace is not None:
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
            sent = pair_elements[locale]
            seconds = sent * net.transfer_time(element_bytes)
            seconds[locale] = 0.0
            t = run.trace_sends(locale, t, seconds, sent * element_bytes, sent)
            if task_time > 0.0:
                trace.complete(
                    (process, "worker0"), "remote-tasks", t, task_time
                )
            trace_end = max(trace_end, t + task_time)
    report.extras["n_diag"] = float(run.n_diag)
    report.extras["elements"] = float(outgoing_elements.sum())
    return run.finish(float(per_locale.max()), trace_end)
