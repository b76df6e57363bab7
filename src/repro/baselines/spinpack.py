"""A SPINPACK-like bulk-synchronous matrix-vector product.

Faithful to the structure the paper describes for SPINPACK (and for the
sublattice-coding algorithm of Wietek & Läuchli):

- the basis is distributed in *sorted blocks* (an ordered partition, so the
  owner of a state is found by bisecting the block boundaries instead of
  hashing);
- the matvec proceeds in synchronized rounds: every rank generates the
  matrix elements for a slice of its rows, the ``(state, value)`` pairs are
  exchanged with one ``MPI_Alltoallv`` per round (indices and values travel
  as separate exchanges, as in the real code), then every rank searches and
  accumulates its incoming contributions;
- there is **no overlap** between communication and computation — each
  phase waits for the previous one, which is the structural property the
  paper's producer-consumer pipeline removes;
- the compute kernels are a factor :data:`KERNEL_SLOWDOWN` slower than
  lattice-symmetries' (the paper measures LS to be 2x faster on a single
  node).

Run in pure-MPI mode: cost is charged for ``cores_per_locale`` ranks per
node sharing one NIC (the configuration the paper benchmarks, which beat
SPINPACK's hybrid mode).
"""

from __future__ import annotations

import numpy as np

from repro.basis.ranking import SortedRanker
from repro.basis.spin_basis import Basis
from repro.basis.symm_basis import sector_sums, source_scales
from repro.bits.ops import as_states
from repro.distributed.block import BlockArray, block_boundaries
from repro.distributed.convert import counting_sort_order
from repro.distributed.matvec_common import DEFAULT_BATCH_SIZE, wire_bytes
from repro.operators.compile import result_dtype
from repro.operators.expression import Expression
from repro.operators.kernels import get_many_rows
from repro.operators.operator import BasisOperator
from repro.runtime.clock import CostLedger, SimReport
from repro.runtime.cluster import Cluster
from repro.runtime.mpi import SimMPI

__all__ = ["SpinpackBasis", "SpinpackOperator"]

#: How much slower SPINPACK's compute kernels are than lattice-symmetries'
#: (the paper's single-node measurement).
KERNEL_SLOWDOWN = 2.0


class SpinpackBasis:
    """A basis distributed in sorted blocks over the cluster.

    ``global_states`` are checked against ``template`` by
    :func:`~repro.basis.symm_basis.sector_sums` (one
    :class:`~repro.errors.BasisError` for the first state that does not
    belong to the sector); :meth:`from_serial` hands the serial basis's
    own stabilizer sums over instead of a second group pass.
    """

    def __init__(
        self, cluster: Cluster, template: Basis, global_states: np.ndarray
    ) -> None:
        self._place(cluster, template, global_states, None)

    @classmethod
    def from_serial(cls, cluster: Cluster, serial_basis: Basis) -> "SpinpackBasis":
        basis = cls.__new__(cls)
        sums = getattr(serial_basis, "stabilizer_sums", None)
        basis._place(cluster, serial_basis, serial_basis.states, sums)
        return basis

    def _place(self, cluster, template, global_states, sums) -> None:
        global_states = as_states(global_states)
        sums = sector_sums(template, global_states, sums)
        self.cluster = cluster
        self.template = template
        bounds = block_boundaries(global_states.size, cluster.n_locales)
        self.boundaries = bounds
        self.parts = np.split(global_states, bounds[1:-1])
        self.rankers = [SortedRanker(part) for part in self.parts]
        # First state of each block (all ones for the empty blocks, which
        # come last); the owner of a state is found by bisection (ordered
        # partition instead of hashing).
        self.first_states = np.append(global_states, np.uint64(2**64 - 1))[bounds[:-1]]
        self.scales = (
            None if sums is None else np.split(source_scales(sums), bounds[1:-1])
        )

    @property
    def dim(self) -> int:
        return int(self.boundaries[-1])

    @property
    def n_locales(self) -> int:
        return self.cluster.n_locales

    def rank_of(self, states) -> np.ndarray:
        """Owning locale of each state (bisection over block boundaries)."""
        idx = np.searchsorted(self.first_states, states, side="right") - 1
        return np.maximum(idx, 0).astype(np.int64)

    def vector_from_serial(self, serial_basis: Basis, x: np.ndarray) -> BlockArray:
        order = serial_basis.index(np.concatenate(self.parts))
        return BlockArray.from_global(self.cluster, np.asarray(x)[order])

    def vector_to_serial(self, serial_basis: Basis, v: BlockArray) -> np.ndarray:
        out = np.zeros(serial_basis.dim, dtype=v.dtype)
        for part_states, block in zip(self.parts, v.blocks):
            out[serial_basis.index(part_states)] = block
        return out


class SpinpackOperator(BasisOperator):
    """Bulk-synchronous matvec over a :class:`SpinpackBasis`, compiled and
    checked against its sector like every other operator (no plan)."""

    def __init__(
        self,
        expression: Expression,
        basis: SpinpackBasis,
        batch_size: int = DEFAULT_BATCH_SIZE,
        ranks_per_locale: int | None = None,
    ) -> None:
        super().__init__(expression, basis, basis.template, batch_size, False)
        self.mpi = SimMPI(basis.cluster, ranks_per_locale=ranks_per_locale)
        self.total_sim_time = 0.0
        self.last_report: SimReport | None = None

    def matvec(self, x: BlockArray) -> tuple[BlockArray, SimReport]:
        """``y = H x`` in synchronized generate / alltoallv / accumulate
        rounds."""
        basis = self.basis
        machine = basis.cluster.machine
        n = basis.n_locales
        ledger = CostLedger(n)
        report = SimReport(ledger=ledger)
        dtype = result_dtype(self.compiled, basis.template, x.dtype)
        y = BlockArray(
            basis.cluster,
            [np.zeros_like(block, dtype=dtype) for block in x.blocks],
        )

        # Diagonal (local, but still synchronized like everything else).
        diag_elapsed = 0.0
        for locale in range(n):
            states = basis.parts[locale]
            if states.size == 0:
                continue
            diag = self.compiled.diagonal_values(states)
            y.blocks[locale] += diag * x.blocks[locale]
            cost = machine.compute_time(
                machine.t_axpy * KERNEL_SLOWDOWN, states.size
            )
            ledger.add("diagonal", locale, cost)
            diag_elapsed = max(diag_elapsed, cost)
        report.elapsed += diag_elapsed
        report.merge_phase("diagonal", diag_elapsed)

        n_rounds = max(
            -(-int(basis.boundaries[locale + 1] - basis.boundaries[locale])
              // self.batch_size)
            for locale in range(n)
        ) if n else 0
        for r in range(n_rounds):
            # --- generate phase (synchronized: max over ranks) -----------
            send_betas: list[list[np.ndarray]] = [
                [np.empty(0, dtype=np.uint64) for _ in range(n)] for _ in range(n)
            ]
            send_values: list[list[np.ndarray]] = [
                [np.empty(0, dtype=np.float64) for _ in range(n)]
                for _ in range(n)
            ]
            gen_elapsed = 0.0
            for locale in range(n):
                count = int(basis.boundaries[locale + 1] - basis.boundaries[locale])
                start = r * self.batch_size
                stop = min(start + self.batch_size, count)
                if start >= stop:
                    continue
                sources, members, amps = get_many_rows(
                    self.compiled, basis.template, basis.parts[locale][start:stop],
                    None if basis.scales is None else basis.scales[locale][start:stop],
                )
                values = amps * x.blocks[locale][start + sources]
                order, offsets = counting_sort_order(basis.rank_of(members), n)
                members = members[order]
                values = values[order]
                for dest in range(n):
                    lo, hi = int(offsets[dest]), int(offsets[dest + 1])
                    send_betas[locale][dest] = members[lo:hi]
                    send_values[locale][dest] = values[lo:hi]
                cost = machine.compute_time(
                    machine.t_generate * KERNEL_SLOWDOWN, sources.size
                ) + machine.compute_time(
                    machine.t_partition + machine.t_hash, members.size
                )
                ledger.add("generate", locale, cost)
                gen_elapsed = max(gen_elapsed, cost)
            report.elapsed += gen_elapsed
            report.merge_phase("generate", gen_elapsed)

            # --- exchange phase: one packed Alltoallv -----------------------
            # Indices and values are packed into a single physical exchange
            # (16 bytes per element); data moves through two calls and the
            # packed payload is charged once.
            recv_betas = self.mpi.alltoallv(send_betas)
            recv_values = self.mpi.alltoallv(send_values)
            packed = np.array(
                [[wire_bytes(b.size) for b in row] for row in send_betas], float
            )
            t_exchange = self.mpi.exchange_cost(packed)
            report.elapsed += t_exchange
            report.merge_phase("alltoallv", t_exchange)
            for locale in range(n):
                for src in range(n):
                    nb = send_betas[src][locale]
                    report.messages += 1 if nb.size else 0
                    report.bytes_sent += wire_bytes(nb.size)

            # --- accumulate phase (synchronized) --------------------------
            acc_elapsed = 0.0
            for locale in range(n):
                incoming_b = np.concatenate(recv_betas[locale])
                incoming_v = np.concatenate(recv_values[locale])
                if incoming_b.size:
                    local_idx = basis.rankers[locale].rank(incoming_b)
                    np.add.at(y.blocks[locale], local_idx, incoming_v)
                cost = machine.compute_time(
                    machine.t_search_accum * KERNEL_SLOWDOWN,
                    incoming_b.size,
                )
                ledger.add("accumulate", locale, cost)
                acc_elapsed = max(acc_elapsed, cost)
            report.elapsed += acc_elapsed
            report.merge_phase("accumulate", acc_elapsed)

        self.last_report = report
        self.total_sim_time += report.elapsed
        return y, report
