"""Capacity planning: how many nodes does a given system size need?

The paper's introduction frames the whole problem as memory pressure: a
48-spin sector has dimension 1.7e11, a Lanczos iteration keeps a few
state-sized vectors, and one node holds 256 GiB.  This module answers the
operational questions — minimum node count, memory per locale, simulated
time per matvec / per Lanczos run — for any chain size, using the same
workload and machine models as the evaluation benchmarks.  The node it
models is the paper's, for Table 2 and :func:`minimum_locales`; the
matvec plan's budget is measured on the host running it instead
(:mod:`repro.operators.plan`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from repro.perfmodel.models import MatvecScalingModel
from repro.perfmodel.workloads import ChainWorkload, paper_workload
from repro.runtime.machine import MachineModel, snellius_machine

__all__ = ["CapacityPlan", "plan_capacity"]

#: Memory per Snellius "thin" node (16 x 16 GiB DDR4), bytes.
NODE_MEMORY_BYTES = 256 * 2**30

#: Vectors a plain Lanczos ground-state run keeps resident: the basis
#: states (uint64), two Krylov vectors, and the accumulating output.
RESIDENT_STATE_ARRAYS = 1
RESIDENT_VECTORS = 3


@dataclass(frozen=True)
class CapacityPlan:
    """Feasibility summary for one system size on one node count."""

    workload: ChainWorkload
    n_locales: int
    bytes_per_locale: int
    fits: bool
    matvec_seconds: float
    lanczos_seconds: float


def bytes_per_locale(workload: ChainWorkload, n_locales: int) -> int:
    """Resident bytes per locale for a Lanczos ground-state run."""
    states = 8 * RESIDENT_STATE_ARRAYS
    vectors = 8 * RESIDENT_VECTORS
    return ceil(workload.dimension * (states + vectors) / n_locales)


#: Fraction of node memory a production run may occupy: communication
#: buffers, the enumeration's double buffering, and the OS need headroom.
#: With this value the planner reproduces the paper's observed minimum
#: node counts exactly (42 spins on 1 node, 44 on 4, 46 on 16).
MEMORY_HEADROOM = 0.5

#: Matrix-vector products of a typical ground-state Lanczos run.
LANCZOS_ITERATIONS = 200


def minimum_locales(workload: ChainWorkload) -> int:
    """Smallest node count whose usable memory holds the run (power of
    two)."""
    budget = NODE_MEMORY_BYTES * MEMORY_HEADROOM
    n = 1
    while bytes_per_locale(workload, n) > budget:
        n *= 2
    return n


def plan_capacity(
    n_sites: int,
    n_locales: int | None = None,
    machine: MachineModel | None = None,
) -> CapacityPlan:
    """Plan a ground-state run for a closed chain of ``n_sites`` spins.

    With ``n_locales=None`` the smallest feasible power-of-two node count
    is chosen.  ``lanczos_seconds`` covers the matvecs of a typical
    ground-state run, :data:`LANCZOS_ITERATIONS` of them (the reductions
    are negligible next to them).
    """
    workload = paper_workload(n_sites)
    machine = machine if machine is not None else snellius_machine()
    if n_locales is None:
        n_locales = minimum_locales(workload)
    per_locale = bytes_per_locale(workload, n_locales)
    model = MatvecScalingModel(machine, workload)
    matvec_seconds = model.pipeline_time(n_locales)
    return CapacityPlan(
        workload=workload,
        n_locales=n_locales,
        bytes_per_locale=per_locale,
        fits=per_locale <= NODE_MEMORY_BYTES,
        matvec_seconds=matvec_seconds,
        lanczos_seconds=matvec_seconds * LANCZOS_ITERATIONS,
    )
