"""Finite-temperature Lanczos method (FTLM).

The paper lists FTLM among the Krylov methods that exact diagonalization
packages must support — every sample is just another run of the same
matrix-vector product.  The standard estimator over ``R`` random vectors
``|r>`` with ``M``-step Lanczos factorizations is

.. math::
    \\langle A \\rangle_\\beta \\approx
    \\frac{\\sum_r \\sum_i e^{-\\beta \\epsilon_i^{(r)}}
          \\langle r|\\psi_i^{(r)}\\rangle\\langle\\psi_i^{(r)}|A|r\\rangle}
         {\\sum_r \\sum_i e^{-\\beta \\epsilon_i^{(r)}}
          |\\langle r|\\psi_i^{(r)}\\rangle|^2},

which for functions of the Hamiltonian itself (energy, specific heat)
needs only the Ritz values and the first row of the tridiagonal
eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from repro.errors import ConfigError
from repro.linalg.lanczos import tridiagonalize
from repro.linalg.spaces import NumpyVectorSpace, VectorSpace, as_matvec
from repro.schema import require_positive

__all__ = ["ThermalEstimate", "ftlm_thermal"]


@dataclass
class ThermalEstimate:
    """Thermal averages on a temperature grid."""

    temperatures: np.ndarray
    energy: np.ndarray
    specific_heat: np.ndarray
    partition_function: np.ndarray
    n_samples: int
    krylov_dim: int


def _spectrum(alphas, betas):
    """Ritz values, first-row weights, and the final off-diagonal (the
    truncation residual) of one Lanczos factorization."""
    evals, evecs = eigh_tridiagonal(np.asarray(alphas), np.asarray(betas[:-1]))
    return evals, np.abs(evecs[0, :]) ** 2, float(betas[-1])


def ftlm_thermal(
    matvec,
    prototype,
    temperatures,
    krylov_dim: int = 50,
    n_samples: int = 20,
    seed: int = 0,
    space: VectorSpace | None = None,
    dim: int | None = None,
) -> ThermalEstimate:
    """Estimate ``<H>``, specific heat, and ``Z`` on a temperature grid.

    Parameters
    ----------
    matvec:
        The Hamiltonian's matrix-vector product, or an operator with a
        ``matvec`` method.
    prototype:
        A vector of the right type/shape used to draw random samples
        (its contents are ignored).
    temperatures:
        Temperatures (in units of the coupling, ``k_B = 1``); must be > 0
        (``inf`` is the infinite-temperature limit, ``Z = dim``).
    dim:
        Hilbert-space dimension, an integer >= 1; defaults to the
        prototype's ``dim`` (a distributed vector) or ``shape[0]`` (an
        array).  Used for the overall normalization of ``Z``.

    On the NumPy path ``min(n_samples, 8)`` samples advance together
    through block products, unless the operator holds a plan with a
    budget (``capacity_bytes > 0``): a replayed plan gains nothing from a
    block, so its samples run one at a time, as they do off the NumPy path
    (a block stacks NumPy vectors).  The random
    vectors drawn and the recurrence run on each are the same either way,
    so the estimate does not depend on the width.

    A ``krylov_dim``, ``n_samples`` or ``dim`` that is not an integer >= 1,
    or a temperature that is not > 0, raises
    :class:`~repro.errors.ConfigError` before the first product.
    """
    planned = getattr(getattr(matvec, "plan", None), "capacity_bytes", 0) > 0
    matvec = as_matvec(matvec)
    temperatures = np.asarray(temperatures, dtype=np.float64)
    if not np.all(temperatures > 0):
        raise ConfigError(f"temperatures must be > 0, got {temperatures}")
    if dim is None:
        dim = prototype.dim if hasattr(prototype, "dim") else prototype.shape[0]
    require_positive(krylov_dim=krylov_dim, n_samples=n_samples, dim=dim)
    if space is None:
        space = NumpyVectorSpace()
    numpy_path = isinstance(space, NumpyVectorSpace) and isinstance(prototype, np.ndarray)
    block_size = min(n_samples, 8) if numpy_path and not planned else 1

    betas = 1.0 / temperatures
    z_sum = np.zeros_like(betas)
    e_sum = np.zeros_like(betas)
    e2_sum = np.zeros_like(betas)
    all_spectra = []
    for first in range(0, n_samples, block_size):
        v0s = [
            space.random(prototype, seed=seed + j)
            for j in range(first, min(first + block_size, n_samples))
        ]
        norms = [space.norm(v0) for v0 in v0s]
        all_spectra.extend(
            _spectrum(alphas, betas) for alphas, betas, _ in
            tridiagonalize(matvec, space, v0s, norms, krylov_dim)
        )
    # Shift by the lowest Ritz value across samples to keep exponentials
    # finite at low temperature.
    e_min = min(spec[0].min() for spec in all_spectra)
    for evals, weights, _ in all_spectra:
        boltz = np.exp(-np.outer(betas, evals - e_min))  # (T, i)
        z_sum += boltz @ weights
        e_sum += boltz @ (weights * evals)
        e2_sum += boltz @ (weights * evals**2)

    energy = e_sum / z_sum
    energy_sq = e2_sum / z_sum
    specific_heat = (energy_sq - energy**2) * betas**2
    partition = (dim / n_samples) * z_sum * np.exp(-betas * e_min)
    return ThermalEstimate(
        temperatures=temperatures,
        energy=energy,
        specific_heat=specific_heat,
        partition_function=partition,
        n_samples=n_samples,
        krylov_dim=krylov_dim,
    )
