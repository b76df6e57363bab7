"""Krylov-subspace eigensolvers and propagators on top of the matvec.

Exact diagonalization reduces to repeated matrix-vector products inside a
Krylov method (the paper cites Lanczos/Arnoldi, FTLM, PRIMME); this package
provides a Lanczos eigensolver, FTLM, spectral functions and a Krylov
time-evolution propagator, all generic over a *vector space* abstraction
(which also stores Krylov vectors and projects against them) so they run
unchanged on NumPy vectors or on the simulated cluster's
:class:`~repro.distributed.vector.DistributedVector`.  A lone ground state
(``lanczos(..., k=1)``) holds three vectors and recomputes its eigenvector
in a second pass; ``k > 1`` and the fixed-length Krylov methods keep the
whole Krylov block and reorthogonalize against it.

Degenerate levels and other block problems go to SciPy's LOBPCG on the
operator's ``LinearOperator`` view: ``scipy.sparse.linalg.lobpcg(
op.as_linear_operator(), X, largest=False)`` with a random ``(dim, k + 2)``
block ``X`` (a Lanczos run from one vector finds one copy of each level).
"""

from repro.linalg.spaces import NumpyVectorSpace, VectorSpace, as_matvec
from repro.linalg.lanczos import LanczosResult, lanczos, lanczos_distributed
from repro.linalg.expm import expm_krylov
from repro.linalg.ftlm import ThermalEstimate, ftlm_thermal
from repro.linalg.spectral import SpectralFunction, spectral_function

__all__ = [
    "VectorSpace",
    "NumpyVectorSpace",
    "as_matvec",
    "LanczosResult",
    "lanczos",
    "lanczos_distributed",
    "expm_krylov",
    "ThermalEstimate",
    "ftlm_thermal",
    "SpectralFunction",
    "spectral_function",
]
