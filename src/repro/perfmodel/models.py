"""Closed-form scaling models of the distributed algorithms.

Each model mirrors the structure of the corresponding event-driven
implementation in :mod:`repro.distributed` (the tests cross-validate them
at small scale) and evaluates in microseconds at any node count, which is
how the paper-scale figures (Figs. 6-9) are regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distributed.matvec_common import wire_bytes
from repro.distributed.matvec_pc import DEFAULT_CONSUMER_FRACTION, split_cores
from repro.perfmodel.workloads import ChainWorkload
from repro.runtime.machine import MachineModel

__all__ = [
    "MatvecScalingModel",
    "FRACTION_GRID",
    "STALL_SHARE_THRESHOLD",
    "rank_splits",
    "recommend_split",
    "SpinpackModel",
    "EnumerationScalingModel",
    "ConversionScalingModel",
]


@dataclass(frozen=True)
class MatvecScalingModel:
    """The producer-consumer matrix-vector product (Sec. 5.3 / Fig. 8).

    Multi-locale elapsed time is the slowest pipeline stage —

    - producers: generation + partition of the locale's elements over
      ``cores - consumers`` producer cores,
    - consumers: search + accumulate of the incoming elements over the
      consumer cores,
    - the NIC: outgoing bytes at the message-size-dependent bandwidth —

    plus a pipeline-coupling term: the stages are chained through finite
    buffers, so a fraction of the second-slowest stage fails to overlap
    (calibrated at ~0.25 against the discrete-event simulation, which
    reproduces the paper's observed 51x-at-64-nodes vs the 63x that a pure
    max() would predict).  With ``work_stealing`` the producer/consumer
    wall vanishes: all cores drain both pools, ``(t_generate + t_consume)
    / cores`` (the paper's proposed improvement, at its best).

    The pipeline's stealing moves one way only: a producer whose chunk
    cursor runs dry joins its locale's consumers, and no consumer ever
    generates.  So where the producers are the bottleneck, stealing can
    only shorten the consumers' tail, and the model overprices it.  At
    the laptop's 1:1 split it prices stealing 43 % faster; the simulated
    seconds go 0.087391 -> 0.087391 on chain-24 x 4 locales, 0.006148 ->
    0.005891 on chain-20 x 4 and 0.001045 -> 0.000998 on chain-16 x 2.
    """

    machine: MachineModel
    workload: ChainWorkload
    #: getManyRows chunk size; 4096 rows keeps remote puts above ~10 KB up
    #: to ~64 nodes but lets the message-size effect appear at 256 nodes
    #: (Fig. 8b's sub-linear tail).
    batch_size: int = 4096
    consumer_fraction: float = DEFAULT_CONSUMER_FRACTION
    pipeline_coupling: float = 0.25
    #: Number of right-hand sides advanced per matvec.  Generation,
    #: partition, and the binary search are paid once regardless; extra
    #: columns add streaming axpy work and 8 bytes/element/column on the
    #: wire (see :func:`repro.distributed.matvec_common.wire_bytes`).
    block_width: int = 1

    def single_node_time(self) -> float:
        """Shared-memory mode: every core generates and consumes."""
        m = self.machine
        w = self.workload
        k = self.block_width
        work = w.total_elements * (
            m.t_generate + m.t_search_accum + m.t_axpy * (k - 1)
        )
        work += w.dimension * m.t_axpy * k
        return work / m.cores_per_locale

    def _per_locale_elements(self, n_locales: int) -> float:
        return self.workload.total_elements / n_locales

    def message_bytes(self, n_locales: int) -> float:
        """Mean remote-put payload: one chunk's elements for one locale."""
        per_chunk = self.batch_size * self.workload.offdiag_per_row
        return per_chunk / n_locales * wire_bytes(1, self.block_width)

    def stage_times(
        self, n_locales: int, work_stealing: bool = False
    ) -> dict[str, float]:
        """Seconds each pipeline stage needs for one locale's elements."""
        m = self.machine
        k = self.block_width
        elements = self._per_locale_elements(n_locales)
        t_generate = elements * (
            m.t_generate + m.t_partition + m.t_hash + m.t_axpy * (k - 1)
        )
        t_consume = elements * (m.t_search_accum + m.t_axpy * (k - 1))
        if work_stealing:
            # All cores drain the union of both work pools.
            stages = {
                "compute_stage_seconds": (t_generate + t_consume)
                / m.cores_per_locale
            }
        else:
            producers, consumers = split_cores(
                m.cores_per_locale, self.consumer_fraction
            )
            stages = {
                "producer_stage_seconds": t_generate / producers,
                "consumer_stage_seconds": t_consume / consumers,
            }
        remote_fraction = (n_locales - 1) / n_locales
        out_bytes = elements * wire_bytes(1, k) * remote_fraction
        stages["nic_seconds"] = m.network.bulk_time(
            out_bytes, self.message_bytes(n_locales)
        )
        return stages

    def pipeline_time(self, n_locales: int, work_stealing: bool = False) -> float:
        if n_locales == 1:
            return self.single_node_time()
        m = self.machine
        slowest, second, *_ = sorted(
            self.stage_times(n_locales, work_stealing).values(), reverse=True
        )
        return (
            slowest
            + self.pipeline_coupling * second
            + self.workload.dimension / n_locales * m.t_axpy
            * self.block_width / m.cores_per_locale
        )

    def speedup(self, n_locales: int) -> float:
        """Speedup over the one-locale run (Fig. 8 normalization)."""
        return self.pipeline_time(1) / self.pipeline_time(n_locales)


#: consumer-core fractions of the Sec. 6.3 ablation grid (8/16/24/32/48/64
#: of 128 cores), as fractions so the grid scales down to small simulated
#: nodes.
FRACTION_GRID = (1 / 16, 1 / 8, 24 / 128, 1 / 4, 3 / 8, 1 / 2)

#: A static split counts as stall-dominated when the faster compute
#: stage idles more than this fraction of the slower stage's time.
STALL_SHARE_THRESHOLD = 0.05


def rank_splits(
    machine: MachineModel, workload: ChainWorkload, n_locales: int
) -> list[tuple[float, float]]:
    """``(modelled pipeline seconds, consumer_fraction)``, fastest first, of
    the static splits of :data:`FRACTION_GRID` other than the default.

    Fractions are rounded to whole cores of ``machine`` and two that give
    the same (producers, consumers) — or the default's — count once.
    """
    cores = machine.cores_per_locale
    seen = {split_cores(cores, DEFAULT_CONSUMER_FRACTION)}
    ranked = []
    for raw in FRACTION_GRID:
        consumers = max(int(round(cores * raw)), 1)
        if consumers >= cores:
            continue
        fraction = consumers / cores
        split = split_cores(cores, fraction)
        if split in seen:
            continue
        seen.add(split)
        model = MatvecScalingModel(
            machine, workload, consumer_fraction=fraction
        )
        ranked.append((model.pipeline_time(n_locales), fraction))
    return sorted(ranked)


def recommend_split(
    machine: MachineModel, workload: ChainWorkload, n_locales: int
) -> dict:
    """Judge the default static producer:consumer split and propose a
    better one (the paper's Sec. 6.3 reading of the 104/24 split).

    Returns a dict with the default split's stage accounting
    (``default``), whether it is stall-dominated (one compute stage's
    cores idle > :data:`STALL_SHARE_THRESHOLD` of the other's time), and
    a ``proposal`` whose modelled pipeline time is *strictly* lower than
    the default's — work stealing (Sec. 7) or a static split of
    :func:`rank_splits` — or ``None`` when the default cannot be improved.
    """
    base = MatvecScalingModel(machine, workload)
    base_seconds = base.pipeline_time(n_locales)
    producers, consumers = split_cores(
        machine.cores_per_locale, DEFAULT_CONSUMER_FRACTION
    )
    stages = {
        "producers": producers,
        "consumers": consumers,
        **base.stage_times(n_locales),
    }
    produce = stages["producer_stage_seconds"]
    consume = stages["consumer_stage_seconds"]
    slow, fast = max(produce, consume), min(produce, consume)
    stall_share = 1.0 - fast / slow if slow > 0.0 else 0.0

    # Work stealing first: min() keeps it on a tie with a static split.
    candidates = [
        (
            base.pipeline_time(n_locales, work_stealing=True),
            {
                "consumer_fraction": DEFAULT_CONSUMER_FRACTION,
                "work_stealing": True,
            },
        )
    ] + [
        (seconds, {"consumer_fraction": fraction, "work_stealing": False})
        for seconds, fraction in rank_splits(machine, workload, n_locales)
    ]
    best_seconds, best_knobs = min(candidates, key=lambda c: c[0])
    proposal = None
    if best_seconds < base_seconds:
        proposal = {
            **best_knobs,
            "pipeline_seconds": best_seconds,
            "improvement": 1.0 - best_seconds / base_seconds,
        }
    return {
        "n_locales": n_locales,
        "default": {
            "consumer_fraction": DEFAULT_CONSUMER_FRACTION,
            **stages,
            "pipeline_seconds": base_seconds,
            "stall_share": stall_share,
            "idle_pool": "consumers" if consume < produce else "producers",
        },
        "stall_dominated": stall_share > STALL_SHARE_THRESHOLD,
        "proposal": proposal,
    }


@dataclass(frozen=True)
class SpinpackModel:
    """The bulk-synchronous SPINPACK baseline (Fig. 9).

    Pure-MPI mode: ``cores_per_locale`` ranks per node share the NIC.  Each
    round is generate -> alltoallv -> accumulate with full barriers, so
    phase times *add*; the alltoallv pays one message per rank pair, which
    serializes at the shared NIC — the cost that explodes with node count.
    """

    machine: MachineModel
    workload: ChainWorkload
    kernel_slowdown: float = 2.0
    batch_size: int = 1 << 13
    ranks_per_locale: int | None = None

    def time(self, n_locales: int) -> float:
        m = self.machine
        w = self.workload
        rpl = m.cores_per_locale if self.ranks_per_locale is None else self.ranks_per_locale
        elements = w.total_elements / n_locales  # per locale
        rows = w.dimension / n_locales
        t_generate = (
            elements
            * (m.t_generate * self.kernel_slowdown + m.t_partition + m.t_hash)
            / m.cores_per_locale
        )
        t_accumulate = (
            elements * m.t_search_accum * self.kernel_slowdown / m.cores_per_locale
        )
        t_diag = rows * m.t_axpy * self.kernel_slowdown / m.cores_per_locale

        if n_locales == 1:
            # Intra-node exchange at memcpy speed.
            t_comm = m.memcpy_time(elements * wire_bytes(1))
            return t_generate + t_comm + t_accumulate + t_diag

        # Alltoallv per round: every rank sends to every other rank.
        n_rounds = max(rows / (self.batch_size * rpl), 1.0)
        per_round_bytes = elements * wire_bytes(1) / n_rounds
        remote_fraction = (n_locales - 1) / n_locales
        out_bytes = per_round_bytes * remote_fraction
        total_ranks = n_locales * rpl
        messages_per_nic = rpl * (total_ranks - rpl)
        message_size = out_bytes / messages_per_nic if messages_per_nic else 0.0
        net = m.network
        t_a2a = messages_per_nic * net.latency + out_bytes / max(
            net.effective_bandwidth(message_size), 1.0
        )
        # Indices and values are packed into a single exchange.
        t_comm = t_a2a * n_rounds
        return t_generate + t_comm + t_accumulate + t_diag

    def speedup(self, n_locales: int) -> float:
        return self.time(1) / self.time(n_locales)


@dataclass(frozen=True)
class EnumerationScalingModel:
    """Distributed basis construction (Sec. 5.2 / Fig. 7).

    Filtering scales perfectly with cores; the redistribution step sends
    ``kept_per_chunk / n_locales`` elements per remote put, and when that
    payload drops to a couple of KB (40 spins on 32 nodes: ~260 elements,
    ~2 KB) the effective bandwidth collapses and the speedup curve
    saturates — the paper's explanation, reproduced quantitatively here.
    """

    machine: MachineModel
    workload: ChainWorkload
    chunks_per_core: int = 25

    def kept_per_chunk(self, n_locales: int) -> float:
        n_chunks = n_locales * self.machine.cores_per_locale * self.chunks_per_core
        return self.workload.dimension / n_chunks

    def put_bytes(self, n_locales: int) -> float:
        return self.kept_per_chunk(n_locales) / n_locales * 8.0

    def time(self, n_locales: int) -> float:
        m = self.machine
        w = self.workload
        raw = float(1 << w.n_sites)
        # The weight pre-filter sees all 2**n candidates; the representative
        # check runs on the U(1)-passing fraction.
        from math import comb

        weight_passing = float(comb(w.n_sites, w.n_sites // 2))
        cores = n_locales * m.cores_per_locale
        t_filter = (raw * m.t_weight_check + weight_passing * m.t_rep_check) / cores
        t_local = w.dimension * (m.t_hash + m.t_partition) / cores
        if n_locales == 1:
            t_dist = m.memcpy_time(w.vector_bytes)
        else:
            per_locale_bytes = w.vector_bytes / n_locales
            remote = per_locale_bytes * (n_locales - 1) / n_locales
            t_dist = m.network.bulk_time(remote, self.put_bytes(n_locales))
        return t_filter + t_local + t_dist

    def speedup(self, n_locales: int) -> float:
        return self.time(1) / self.time(n_locales)


@dataclass(frozen=True)
class ConversionScalingModel:
    """Block <-> hashed conversion (Sec. 5.1 / Fig. 6).

    Histogram + partition are streaming passes over the local block; the
    put/get phase moves almost the whole vector across the network in
    per-(chunk, destination) messages.  Reports absolute seconds, like the
    paper's Fig. 6.
    """

    machine: MachineModel
    workload: ChainWorkload
    element_bytes: int = 8

    def message_bytes(self, n_locales: int) -> float:
        chunks = self.machine.cores_per_locale
        chunk_elements = self.workload.dimension / (n_locales * chunks)
        return chunk_elements / n_locales * self.element_bytes

    def time(self, n_locales: int) -> float:
        m = self.machine
        total_bytes = self.workload.dimension * self.element_bytes
        local_bytes = total_bytes / n_locales
        # Two streaming passes (histogram + partition/merge).
        t_local = 2.0 * self.workload.dimension / n_locales * m.t_partition / m.cores_per_locale
        t_local += m.memcpy_time(local_bytes)
        if n_locales == 1:
            return t_local + m.memcpy_time(local_bytes)
        remote = local_bytes * (n_locales - 1) / n_locales
        t_net = m.network.bulk_time(remote, self.message_bytes(n_locales))
        return t_local + t_net
