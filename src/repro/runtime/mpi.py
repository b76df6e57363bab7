"""A simulated MPI layer (collectives with bulk-synchronous cost semantics).

The SPINPACK baseline (Sec. 5.3 / Fig. 9 of the paper) is built on
``MPI_Alltoallv`` and ``MPI_Allreduce`` in pure-MPI mode: one rank per core,
128 ranks per node sharing a single NIC.  This module moves the data for
real between per-locale buffers and charges time like the real thing:

- every inter-node rank-pair message pays per-message latency, serialized
  at the shared NIC, with message-size-dependent effective bandwidth;
- intra-node rank pairs move data at memory-copy speed;
- collectives are synchronizing: their elapsed time is the max over NICs
  (no overlap with computation — the structural handicap the paper
  identifies in collective-based matvec implementations).
"""

from __future__ import annotations

import math

import numpy as np

from repro.runtime.cluster import Cluster

__all__ = ["SimMPI"]


class SimMPI:
    """Simulated MPI communicator over the cluster's locales.

    ``ranks_per_locale`` models how many MPI ranks share each node (and its
    NIC); data is still stored per locale — rank-level traffic is assumed
    uniformly split among the rank pairs of each locale pair, which is
    accurate for the bulk-exchange patterns used here.
    """

    def __init__(self, cluster: Cluster, ranks_per_locale: int | None = None) -> None:
        self.cluster = cluster
        self.ranks_per_locale = (
            cluster.machine.cores_per_locale
            if ranks_per_locale is None
            else int(ranks_per_locale)
        )
        if self.ranks_per_locale < 1:
            raise ValueError("ranks_per_locale must be positive")

    @property
    def n_ranks(self) -> int:
        return self.cluster.n_locales * self.ranks_per_locale

    # -- collectives -------------------------------------------------------

    def barrier(self) -> float:
        """Elapsed time of a tree barrier."""
        if self.n_ranks <= 1:
            return 0.0
        return math.log2(self.n_ranks) * self.cluster.machine.network.latency

    def allreduce(self, values: np.ndarray) -> tuple[np.ndarray, float]:
        """Sum an array contributed by every locale.

        ``values`` has one row (or scalar) per locale; returns the sum and
        the elapsed time of a recursive-doubling allreduce.
        """
        values = np.asarray(values)
        total = values.sum(axis=0)
        nbytes = float(np.asarray(total).nbytes)
        net = self.cluster.machine.network
        if self.n_ranks <= 1:
            return total, 0.0
        rounds = math.ceil(math.log2(self.n_ranks))
        elapsed = rounds * net.latency + 2.0 * nbytes / net.peak_bandwidth
        return total, elapsed

    def alltoallv(self, send: list[list[np.ndarray]]) -> list[list[np.ndarray]]:
        """Exchange ``send[src][dst]`` buffers between all locales: returns
        ``recv`` with ``recv[dst][src] = send[src][dst]`` (arrays are
        shared, not copied).  Only the data moves; :meth:`exchange_cost`
        charges the exchange, so a caller that packs several logical
        exchanges into one physical one charges the packed payload once.
        """
        n = self.cluster.n_locales
        if len(send) != n or any(len(row) != n for row in send):
            raise ValueError(f"send must be a {n}x{n} matrix of arrays")
        return [[send[src][dst] for src in range(n)] for dst in range(n)]

    def exchange_cost(self, nbytes: np.ndarray) -> float:
        """Elapsed time of an alltoallv moving ``nbytes[src, dst]`` bytes
        between each locale pair."""
        n = self.cluster.n_locales
        machine = self.cluster.machine
        net = machine.network
        rpl = self.ranks_per_locale
        nic_times = np.zeros(n)
        for src in range(n):
            inter_bytes = 0.0
            inter_messages = 0
            intra_bytes = 0.0
            for dst in range(n):
                if dst == src:
                    intra_bytes += nbytes[src, dst]
                    continue
                inter_bytes += nbytes[src, dst]
                # Each locale-pair exchange is split over rpl*rpl rank pairs.
                inter_messages += rpl * rpl
            out_time = 0.0
            if inter_messages:
                mean_size = inter_bytes / inter_messages
                out_time = inter_messages * net.latency + inter_bytes / max(
                    net.effective_bandwidth(mean_size), 1.0
                )
            # Intra-node rank pairs move at memcpy speed over all cores.
            out_time += machine.memcpy_time(intra_bytes)
            nic_times[src] += out_time
            # Reception load lands on every destination NIC as well.
            for dst in range(n):
                if dst == src:
                    continue
                pair_messages = rpl * rpl
                mean_size = (
                    nbytes[src, dst] / pair_messages if pair_messages else 0.0
                )
                nic_times[dst] += pair_messages * net.latency + nbytes[
                    src, dst
                ] / max(net.effective_bandwidth(mean_size), 1.0)
        elapsed = float(nic_times.max()) + self.barrier()
        return elapsed
