"""The four workloads of the e2e ladder and how each one is set up.

All are spin-1/2 Heisenberg models at Sz = 0 in the fully symmetric
sector.  They differ in which layers sit on the blocking path (see
README.md): two serial problems that load ``symmetry.state_info`` through
different strategies, and one distributed problem on both execution
backends.  ``--quick`` swaps in 16-site versions of the same problems so
the smoke test finishes in seconds.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property

import numpy as np

import repro
from repro.symmetry import SymmetryGroup, rectangle_translation, spin_inversion

#: Solver settings shared by ``solve_s`` and ``time_to_solution_s``.
SOLVER = {"k": 1, "tol": 1e-10}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: tuple[int, ...]  # (n,) closed chain, (nx, ny) periodic square
    quick_shape: tuple[int, ...]
    #: ground-state energy from ``eigsh(op.to_sparse(), k=1, which="SA",
    #: tol=1e-13)``, computed once when the benchmark was written
    reference: float
    quick_reference: float
    backend: str | None = None  # None: serial ``repro.Operator``
    locales: int = 1
    #: journeys run first and thrown away
    burn_in: int = 0

    @property
    def distributed(self) -> bool:
        return self.backend is not None


WORKLOADS = (
    Workload(
        name="chain24_serial",
        why="paper's chain family at dim 28968, serial: state_info "
        "rotation fast path dominates cold; distributed/runtime idle",
        shape=(24,),
        quick_shape=(16,),
        reference=-10.670014516537217,
        quick_reference=-7.142296360616783,
    ),
    Workload(
        name="square4x6_serial",
        why="4x6 torus, dim 56664, serial: 18 of 24 permutations take the "
        "network strategy and 48 bonds double row density (ranking, plan)",
        shape=(4, 6),
        quick_shape=(4, 4),
        reference=-16.552513793979003,
        quick_reference=-11.22848320842886,
    ),
    Workload(
        name="chain24_pc_threads",
        why="chain-24 producer-consumer on 2 real threads: the only place "
        "ThreadExecutor and the flag handshake block the warm matvec",
        shape=(24,),
        quick_shape=(16,),
        reference=-10.670014516537217,
        quick_reference=-7.142296360616783,
        backend="threads",
        locales=2,
        # A fresh process replays a plan in 7-9 ms and solves in 0.4-0.5 s,
        # and after some seconds of two busy threads drops for good to
        # 13-16 ms and 0.75-0.85 s (once it took 10 s; MALLOC_ARENA_MAX=1
        # does not change it; it looks like the host taking back a second
        # core it only lends).  Samples that straddle the drop are bimodal,
        # so the first journey is not counted.
        burn_in=1,
    ),
    Workload(
        name="chain24_pc_sim",
        why="same problem on the default sim backend, 4 locales: kernels "
        "plus the event simulator, with exact messages/bytes/sim-seconds",
        shape=(24,),
        quick_shape=(16,),
        reference=-10.670014516537217,
        quick_reference=-7.142296360616783,
        backend="sim",
        locales=4,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: Cores per locale of the modelled machine (``nproc`` of the sizing box).
CORES_PER_LOCALE = 2


def n_sites(shape: tuple[int, ...]) -> int:
    return int(np.prod(shape))


def make_group(shape: tuple[int, ...]) -> SymmetryGroup:
    if len(shape) == 1:
        return repro.chain_symmetries(shape[0], 0, 0, 0)
    nx, ny = shape
    return SymmetryGroup.from_generators(
        [
            rectangle_translation(nx, ny, 0, 0),
            rectangle_translation(nx, ny, 1, 0),
            spin_inversion(nx * ny, 0),
        ]
    )


def make_expression(shape: tuple[int, ...]):
    if len(shape) == 1:
        return repro.heisenberg_chain(shape[0])
    return repro.heisenberg_square(*shape)


def make_cluster(workload: Workload, locales: int | None = None):
    return repro.Cluster(
        workload.locales if locales is None else locales,
        repro.laptop_machine(cores=CORES_PER_LOCALE),
        backend=workload.backend,
    )


def make_spec(workload: Workload, shape: tuple[int, ...]):
    """A fresh ``SimulationSpec`` (nothing built, nothing cached).

    The chain workloads go through ``load_simulation`` like an input file
    would; ``config._build_basis`` cannot express the 2-D group, so the
    square lattice builds its spec directly.
    """
    n = n_sites(shape)
    cluster = (
        {
            "n_locales": workload.locales,
            "machine": "laptop",
            "cores": CORES_PER_LOCALE,
            "backend": workload.backend,
        }
        if workload.distributed
        else None
    )
    if len(shape) == 2:
        return repro.SimulationSpec(
            n_sites=n,
            expression=make_expression(shape),
            basis=repro.SymmetricBasis(
                make_group(shape), hamming_weight=n // 2, build=False
            ),
            solver_options=dict(SOLVER),
            cluster_options=cluster,
        )
    data = {
        "n_sites": n,
        "hamiltonian": {"model": "heisenberg_chain"},
        "basis": {
            "hamming_weight": n // 2,
            "momentum": 0,
            "parity": 0,
            "inversion": 0,
        },
        "solver": dict(SOLVER),
    }
    if cluster is not None:
        data["cluster"] = cluster
    return repro.load_simulation(data)


def _span(tracer, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


class SerialProblem:
    """Group, basis and operator of a serial workload.

    ``tracer`` (the per-layer pass) records one span per construction step.
    """

    def __init__(
        self, workload: Workload, shape: tuple[int, ...], tracer=None
    ) -> None:
        n = n_sites(shape)
        self.workload = workload
        with _span(tracer, "symmetry.group"):
            self.group = make_group(shape)
        with _span(tracer, "basis.build"):
            self.basis = repro.SymmetricBasis(
                self.group, hamming_weight=n // 2
            )
        with _span(tracer, "operators.compile"):
            self.expression = make_expression(shape)
            self.op = repro.Operator(self.expression, self.basis)

    dim = property(lambda self: self.basis.dim)

    @cached_property
    def op_cold(self):
        """The matrix-free twin of ``op`` (built on first use, untimed)."""
        return repro.Operator(self.expression, self.basis, plan=False)

    def random_vector(self, seed: int) -> np.ndarray:
        return np.random.default_rng(seed).standard_normal(self.dim)

    def solve(self, seed: int, matvec=None, space=None):
        return repro.lanczos(
            self.op.matvec if matvec is None else matvec,
            self.random_vector(seed),
            space=space,
            **SOLVER,
        )

    def oracle(self, x: np.ndarray) -> np.ndarray:
        return self.op.to_sparse() @ x

    @staticmethod
    def gather(y: np.ndarray) -> np.ndarray:
        return y

    @staticmethod
    def identical(a: np.ndarray, b: np.ndarray) -> bool:
        """Warm replay keeps the recorded element order: bit-for-bit."""
        return np.array_equal(a, b)


class DistributedProblem:
    """Cluster, hashed basis and operator of a distributed workload."""

    def __init__(
        self,
        workload: Workload,
        shape: tuple[int, ...],
        locales: int | None = None,
        tracer=None,
    ) -> None:
        n = n_sites(shape)
        self.workload = workload
        self.shape = shape
        with _span(tracer, "symmetry.group"):
            self.group = make_group(shape)
            self.template = repro.SymmetricBasis(
                self.group, hamming_weight=n // 2, build=False
            )
        self.cluster = make_cluster(workload, locales)
        with _span(tracer, "distributed.enumerate"):
            self.basis, _ = repro.enumerate_states(
                self.cluster, self.template, use_weight_shortcut=True
            )
        with _span(tracer, "operators.compile"):
            self.expression = make_expression(shape)
            self.op = repro.DistributedOperator(
                self.expression, self.basis, method="pc"
            )
        self._serial: SerialProblem | None = None

    dim = property(lambda self: self.basis.dim)

    @cached_property
    def op_cold(self):
        """The matrix-free twin of ``op`` (built on first use, untimed)."""
        return repro.DistributedOperator(
            self.expression, self.basis, method="pc", plan=False
        )

    def random_vector(self, seed: int):
        return repro.DistributedVector.full_random(self.basis, seed=seed)

    def solve(self, seed: int, matvec=None, space=None):
        """``lanczos_distributed``; the traced pass hands in a wrapped
        matvec and vector space, which takes the same solver apart."""
        if matvec is None and space is None:
            return repro.lanczos_distributed(self.op, seed=seed, **SOLVER)[0]
        return repro.lanczos(
            matvec, self.random_vector(seed), space=space, **SOLVER
        )

    def serial_twin(self, tracer=None) -> SerialProblem:
        """The same problem on a serial ``Operator``: the oracle (built on
        first use, untimed)."""
        if self._serial is None:
            self._serial = SerialProblem(self.workload, self.shape, tracer)
        return self._serial

    def oracle(self, x) -> np.ndarray:
        serial = self.serial_twin()
        return serial.op_cold.matvec(x.to_serial(serial.basis))

    def gather(self, y) -> np.ndarray:
        return y.to_serial(self.serial_twin().basis)

    @staticmethod
    def identical(a, b) -> bool:
        """Chunks arrive in scheduling order on threads, so the scatter-add
        order (and the last bits) may differ between matvecs."""
        return all(
            np.allclose(pa, pb, rtol=1e-12, atol=1e-12)
            for pa, pb in zip(a.parts, b.parts)
        )


def setup(workload: Workload, shape: tuple[int, ...], tracer=None):
    """Everything ``setup_s`` times: symmetry group, basis, operator."""
    if workload.distributed:
        return DistributedProblem(workload, shape, tracer=tracer)
    return SerialProblem(workload, shape, tracer=tracer)
