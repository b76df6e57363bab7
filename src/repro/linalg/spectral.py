"""Dynamical spectral functions via the Lanczos spectral decomposition.

The textbook ED observable beyond eigenvalues: for a ground state
:math:`|0\\rangle` with energy :math:`E_0` and a probe operator ``A``,

.. math:: S_A(\\omega) = \\langle 0|A^\\dagger\\,
          \\delta\\big(\\omega - (H - E_0)\\big)\\, A|0\\rangle
        = \\sum_n |\\langle n|A|0\\rangle|^2\\,
          \\delta\\big(\\omega - (E_n - E_0)\\big).

Running Lanczos from the seed :math:`A|0\\rangle` yields Ritz pairs whose
first-component weights reproduce the pole strengths — the classic
continued-fraction / spectral-decomposition method, built entirely on the
matrix-vector product this package optimizes.  Validated against dense
eigen-decompositions in the tests (pole positions, weights, and the sum
rule :math:`\\int S = \\langle 0|A^\\dagger A|0\\rangle`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from repro.linalg.lanczos import tridiagonalize
from repro.linalg.spaces import NumpyVectorSpace, VectorSpace, as_matvec

__all__ = ["SpectralFunction", "spectral_function"]

#: Poles weaker than this share of ``max(|A|0>|^2, 1)`` are dropped.
WEIGHT_CUTOFF = 1e-12


@dataclass
class SpectralFunction:
    """Poles and weights of a dynamical correlation function.

    ``poles`` are excitation energies (relative to the supplied ground
    energy when one was given); ``weights`` sum to the static expectation
    :math:`\\langle 0|A^\\dagger A|0\\rangle` (the sum rule).
    """

    poles: np.ndarray
    weights: np.ndarray

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def __call__(self, omega, broadening: float = 0.05) -> np.ndarray:
        """Lorentzian-broadened spectrum on a frequency grid."""
        omega = np.asarray(omega, dtype=np.float64)
        if broadening <= 0:
            raise ValueError("broadening must be positive")
        lorentz = broadening / np.pi / (
            (omega[..., None] - self.poles) ** 2 + broadening**2
        )
        return lorentz @ self.weights


def spectral_function(
    matvec,
    seed,
    ground_energy: float | None = None,
    krylov_dim: int = 150,
    space: VectorSpace | None = None,
) -> SpectralFunction:
    """Spectral function of ``H`` seeded by the (unnormalized) vector
    ``A|0>``.

    Parameters
    ----------
    matvec:
        The Hamiltonian's matrix-vector product.
    seed:
        The probe applied to the ground state, ``A|0>`` (not modified).
    ground_energy:
        If given, pole positions are shifted to excitation energies
        ``E_n - ground_energy``.
    krylov_dim:
        Lanczos steps; more steps resolve more poles.

    Poles weaker than :data:`WEIGHT_CUTOFF` of the seed's squared norm
    (or of 1, whichever is larger) are dropped.
    """
    matvec = as_matvec(matvec)
    if space is None:
        space = NumpyVectorSpace()
    norm = space.norm(seed)
    if norm == 0.0:
        return SpectralFunction(
            poles=np.empty(0), weights=np.empty(0)
        )
    # Full reorthogonalization: spectral weights are first-row components,
    # which ghost states would corrupt.
    [(alphas, betas, _)] = tridiagonalize(
        matvec, space, [seed], [norm], krylov_dim
    )
    evals, evecs = eigh_tridiagonal(alphas, betas[:-1])
    weights = norm**2 * np.abs(evecs[0, :]) ** 2
    keep = weights > WEIGHT_CUTOFF * max(norm**2, 1.0)
    poles = evals[keep]
    if ground_energy is not None:
        poles = poles - ground_energy
    return SpectralFunction(poles=poles, weights=weights[keep])
