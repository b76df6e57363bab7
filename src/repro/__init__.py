"""repro — scalable matrix-vector products for exact diagonalization.

A Python reproduction of Westerhout & Chamberlain, *"Implementing scalable
matrix-vector products for the exact diagonalization methods in quantum
many-body physics"* (SC 2023): the distributed `lattice-symmetries` package.

Quick start::

    import numpy as np
    import repro

    basis = repro.SymmetricBasis(
        repro.chain_symmetries(16, momentum=0, parity=0, inversion=0),
        hamming_weight=8,
    )
    h = repro.Operator(repro.heisenberg_chain(16), basis)
    v0 = np.random.default_rng(0).standard_normal(basis.dim)
    result = repro.lanczos(h.matvec, v0, k=1)
    result.eigenvalues[0]   # -7.1422963606

See ``examples/`` for runnable scripts and ``DESIGN.md`` for the full
system inventory.
"""

from repro.basis import Basis, SpinBasis, SymmetricBasis
from repro.config import SimulationSpec, load_simulation, run_simulation
from repro.operators import (
    Expression,
    Operator,
    compile_expression,
    expectation,
    spin_correlation,
    symmetrize_expression,
    transform_expression,
    heisenberg,
    heisenberg_chain,
    heisenberg_square,
    j1j2_chain,
    number,
    sigma_minus,
    sigma_plus,
    sigma_x,
    sigma_y,
    sigma_z,
    spin_minus,
    spin_plus,
    spin_x,
    spin_y,
    spin_z,
    transverse_field_ising,
    xxz_chain,
)
from repro.symmetry import (
    Permutation,
    Symmetry,
    SymmetryGroup,
    chain_sector_dimension,
    chain_symmetries,
    paper_table2,
    reflection,
    sector_dimension,
    spin_inversion,
    translation,
)
from repro.runtime import (
    Cluster,
    MachineModel,
    NetworkModel,
    laptop_machine,
    snellius_machine,
)
from repro.distributed import (
    BlockArray,
    DistributedBasis,
    DistributedOperator,
    DistributedVector,
    DistributedVectorSpace,
    block_to_hashed,
    enumerate_states,
    hash64,
    hashed_to_block,
    locale_of,
)
from repro.linalg import (
    LanczosResult,
    SpectralFunction,
    ThermalEstimate,
    expm_krylov,
    ftlm_thermal,
    lanczos,
    lanczos_distributed,
    spectral_function,
)
from repro.baselines import SpinpackBasis, SpinpackOperator
from repro import telemetry
from repro.telemetry import MetricsRegistry, Telemetry, TraceRecorder

__version__ = "1.0.0"

__all__ = [
    "Basis",
    "SpinBasis",
    "SymmetricBasis",
    "Expression",
    "Operator",
    "compile_expression",
    "heisenberg",
    "heisenberg_chain",
    "heisenberg_square",
    "j1j2_chain",
    "number",
    "sigma_plus",
    "sigma_minus",
    "sigma_x",
    "sigma_y",
    "sigma_z",
    "spin_plus",
    "spin_minus",
    "spin_x",
    "spin_y",
    "spin_z",
    "transverse_field_ising",
    "xxz_chain",
    "Permutation",
    "Symmetry",
    "SymmetryGroup",
    "chain_symmetries",
    "chain_sector_dimension",
    "sector_dimension",
    "paper_table2",
    "translation",
    "reflection",
    "spin_inversion",
    "Cluster",
    "MachineModel",
    "NetworkModel",
    "laptop_machine",
    "snellius_machine",
    "BlockArray",
    "DistributedBasis",
    "DistributedOperator",
    "DistributedVector",
    "DistributedVectorSpace",
    "block_to_hashed",
    "hashed_to_block",
    "enumerate_states",
    "hash64",
    "locale_of",
    "LanczosResult",
    "lanczos",
    "lanczos_distributed",
    "expm_krylov",
    "ThermalEstimate",
    "ftlm_thermal",
    "SpectralFunction",
    "spectral_function",
    "expectation",
    "spin_correlation",
    "symmetrize_expression",
    "transform_expression",
    "SimulationSpec",
    "load_simulation",
    "run_simulation",
    "SpinpackBasis",
    "SpinpackOperator",
    "telemetry",
    "Telemetry",
    "TraceRecorder",
    "MetricsRegistry",
    "__version__",
]
