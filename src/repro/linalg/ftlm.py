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

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from repro.linalg.lanczos import tridiagonalize
from repro.linalg.spaces import (
    NumpyVectorSpace,
    VectorSpace,
    apply_block,
    as_matvec,
)

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
    #: Per-sample progress series: dicts with ``sample``, ``residual``
    #: (the factorization's final off-diagonal — the Lanczos truncation
    #: residual), ``ritz_min``, ``ritz_max``, ``elapsed`` seconds.
    progress: list = field(repr=False, default_factory=list)


def _lanczos_spectrum(matvec, v0, krylov_dim: int, space: VectorSpace):
    """Ritz values, first-row weights, and the final off-diagonal (the
    truncation residual) of one Lanczos factorization."""
    alphas, betas, _ = tridiagonalize(
        matvec, space, v0, space.norm(v0), krylov_dim
    )
    evals, evecs = eigh_tridiagonal(alphas, betas[:-1])
    weights = np.abs(evecs[0, :]) ** 2
    return evals, weights, float(betas[-1])


def _lanczos_spectra_block(matvec, v0_block: np.ndarray, krylov_dim: int):
    """Lock-step block Lanczos: one spectrum per column of ``v0_block``.

    All columns advance through the same sequence of (block) matrix-vector
    products, so the operator's generation/partition/ranking work is paid
    once per step for the whole block instead of once per sample.  The
    recurrence per column is identical to :func:`_lanczos_spectrum`
    (including the full reorthogonalization sweep); a column whose residual
    norm underflows is deactivated — zeroed so it rides the remaining block
    matvecs as dead weight without polluting anything — and keeps the
    tridiagonal it accumulated up to that point.
    """
    norms = np.linalg.norm(v0_block, axis=0)
    block = v0_block / norms
    blocks = [block]
    k = block.shape[1]
    alphas: list[list[float]] = [[] for _ in range(k)]
    offdiag: list[list[float]] = [[] for _ in range(k)]
    active = np.ones(k, dtype=bool)
    final_beta = np.zeros(k)
    for step in range(krylov_dim):
        w = apply_block(matvec, blocks[-1])
        alpha = np.einsum("ij,ij->j", blocks[-1].conj(), w)
        for j in np.flatnonzero(active):
            alphas[j].append(float(np.real(alpha[j])))
        w = w - blocks[-1] * alpha
        if len(blocks) > 1:
            prev_beta = np.array(
                [col[-1] if col else 0.0 for col in offdiag]
            )
            w = w - blocks[-2] * prev_beta
        for u in blocks:
            overlap = np.einsum("ij,ij->j", u.conj(), w)
            w = w - u * overlap
        beta = np.linalg.norm(w, axis=0)
        final_beta = beta
        active &= beta > 1e-14
        if not active.any():
            break
        for j in np.flatnonzero(active):
            offdiag[j].append(float(beta[j]))
        w[:, ~active] = 0.0
        w[:, active] /= beta[active]
        blocks.append(w)
    spectra = []
    for j in range(k):
        m = len(alphas[j])
        evals, evecs = eigh_tridiagonal(
            np.asarray(alphas[j]), np.asarray(offdiag[j][: m - 1])
        )
        spectra.append(
            (evals, np.abs(evecs[0, :]) ** 2, float(final_beta[j]))
        )
    return spectra


def ftlm_thermal(
    matvec,
    prototype,
    temperatures,
    krylov_dim: int = 50,
    n_samples: int = 20,
    seed: int = 0,
    space: VectorSpace | None = None,
    dim: int | None = None,
    block_size: int | None = None,
) -> ThermalEstimate:
    """Estimate ``<H>``, specific heat, and ``Z`` on a temperature grid.

    Parameters
    ----------
    matvec:
        The Hamiltonian's matrix-vector product.
    prototype:
        A vector of the right type/shape used to draw random samples
        (its contents are ignored).
    temperatures:
        Temperatures (in units of the coupling, ``k_B = 1``); must be > 0.
    dim:
        Hilbert-space dimension; defaults to ``len(prototype)``.  Used for
        the overall normalization of ``Z``.
    block_size:
        How many random samples advance together through block matvecs
        (NumPy vectors only).  Defaults to ``min(n_samples, 8)`` on the
        NumPy path and 1 (sequential) elsewhere; the random vectors drawn
        are identical either way, so the estimate is independent of the
        blocking up to roundoff.
    """
    matvec = as_matvec(matvec)
    temperatures = np.asarray(temperatures, dtype=np.float64)
    if np.any(temperatures <= 0):
        raise ValueError("temperatures must be positive")
    if space is None:
        space = NumpyVectorSpace()
    if dim is None:
        dim = prototype.shape[0]
    if block_size is None:
        numpy_path = isinstance(space, NumpyVectorSpace) and isinstance(
            prototype, np.ndarray
        )
        block_size = min(n_samples, 8) if numpy_path else 1
    block_size = max(int(block_size), 1)

    betas = 1.0 / temperatures
    z_sum = np.zeros_like(betas)
    e_sum = np.zeros_like(betas)
    e2_sum = np.zeros_like(betas)
    # Shift by the lowest Ritz value across samples to keep exponentials
    # finite at low temperature.
    t_start = time.perf_counter()
    progress: list = []
    all_spectra = []
    sample = 0
    while sample < n_samples:
        width = min(block_size, n_samples - sample)
        if width > 1:
            v0_block = np.stack(
                [
                    space.random(prototype, seed=seed + sample + j)
                    for j in range(width)
                ],
                axis=1,
            )
            all_spectra.extend(
                _lanczos_spectra_block(matvec, v0_block, krylov_dim)
            )
        else:
            v0 = space.random(prototype, seed=seed + sample)
            all_spectra.append(
                _lanczos_spectrum(matvec, v0, krylov_dim, space)
            )
        elapsed = time.perf_counter() - t_start
        for j, (evals, _, residual) in enumerate(
            all_spectra[sample:], start=sample
        ):
            entry = {
                "sample": j,
                "residual": residual,
                "ritz_min": float(evals[0]),
                "ritz_max": float(evals[-1]),
                "elapsed": elapsed,
            }
            progress.append(entry)
        sample += width
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
        progress=progress,
    )
