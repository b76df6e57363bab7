"""Block Davidson eigensolver with diagonal preconditioning.

Complements Lanczos for two situations the paper's domain cares about:

- **degenerate levels** — Lanczos from a single vector cannot resolve
  multiplicities (a symmetric sector of a frustrated model routinely has
  exact degeneracies); a block of ``k`` vectors can;
- **preconditioning** — exact-diagonalization Hamiltonians expose their
  diagonal cheaply (the ``diagonal_values`` kernel), and the classic
  Davidson correction ``t = r / (diag - theta)`` uses it.

This is the algorithmic family of PRIMME/Davidson codes the paper cites as
consumers of the matrix-vector product.  NumPy vectors only (the dense
Rayleigh-Ritz block lives on one node even in distributed runs).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CheckpointError, ConfigError, ConvergenceError
from repro.linalg.spaces import apply_block, as_matvec
from repro.resilience.checkpoint import (
    list_checkpoints,
    load_latest_checkpoint,
    write_checkpoint,
)
from repro.schema import Key, check, require_positive
from repro.telemetry.context import current as current_telemetry

__all__ = ["DavidsonResult", "davidson"]


@dataclass
class DavidsonResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # (dim, k)
    n_iterations: int
    residual_norms: np.ndarray
    converged: bool
    #: Per-iteration progress series: dicts with ``iteration``,
    #: ``residual``, ``ritz_min``, ``ritz_max``, ``elapsed`` seconds.
    progress: list = field(repr=False, default_factory=list)


def _orthonormalize(block: np.ndarray, against: np.ndarray | None) -> np.ndarray:
    """Orthonormalize the columns of ``block`` (against ``against`` first);
    columns that vanish are dropped."""
    if against is not None and against.shape[1]:
        block = block - against @ (against.conj().T @ block)
        block = block - against @ (against.conj().T @ block)
    kept = []
    for j in range(block.shape[1]):
        col = block[:, j].copy()
        for existing in kept:
            col -= existing * (existing.conj() @ col)
        norm = np.linalg.norm(col)
        if norm > 1e-10:
            kept.append(col / norm)
    if not kept:
        return np.empty((block.shape[0], 0), dtype=block.dtype)
    return np.stack(kept, axis=1)


def davidson(
    matvec,
    diagonal: np.ndarray,
    k: int = 1,
    v0: np.ndarray | None = None,
    tol: float = 1e-9,
    max_iter: int = 200,
    max_subspace: int | None = None,
    seed: int = 0,
    raise_on_no_convergence: bool = True,
    checkpoint_dir=None,
    checkpoint_every: int = 10,
    checkpoint_keep: int = 2,
    resume: bool = False,
) -> DavidsonResult:
    """Lowest ``k`` eigenpairs of a Hermitian operator.

    Parameters
    ----------
    matvec:
        ``v -> H v`` on 1-D NumPy arrays.
    diagonal:
        The matrix diagonal (used by the preconditioner); pass
        ``operator.diagonal()``.
    v0:
        Optional ``(dim, m)`` block of starting vectors (``m >= k``); a
        random block is drawn otherwise.
    max_subspace:
        Restart threshold for the search-space width (default ``8 k + 8``).
    checkpoint_dir:
        When set, the full solver state (search block ``V``, image block
        ``W = H V``, and the RNG state that drives stagnation restarts)
        is snapshotted atomically every ``checkpoint_every`` iterations.
    resume:
        Restart from the newest loadable checkpoint under
        ``checkpoint_dir`` (bit-for-bit identical continuation; the RNG
        state is restored too).  An empty directory means a cold start.

    A ``k`` outside ``[1, dim]``, a ``max_iter``, ``checkpoint_every`` or
    ``checkpoint_keep`` below 1, or a ``tol`` that is negative or not
    finite raises :class:`~repro.errors.ConfigError` before the first
    product.
    """
    matvec = as_matvec(matvec)
    diagonal = np.asarray(diagonal)
    dim = diagonal.shape[0]
    require_positive(
        k=k, max_iter=max_iter,
        checkpoint_every=checkpoint_every, checkpoint_keep=checkpoint_keep,
    )
    check(tol, Key("tol", float, min=0.0))
    if k > dim:
        raise ConfigError(f"k must be at most the dimension {dim}, got {k}")
    if max_subspace is None:
        max_subspace = min(8 * k + 8, dim)
    rng = np.random.default_rng(seed)

    state = None
    if resume:
        if checkpoint_dir is None:
            raise CheckpointError("resume=True requires checkpoint_dir")
        if list_checkpoints(checkpoint_dir):
            state = load_latest_checkpoint(checkpoint_dir)

    dtype = np.promote_types(diagonal.dtype, np.float64)
    start_iter = 0
    if state is not None:
        v = state.arrays["v"]
        w = state.arrays["w"]
        rng.bit_generator.state = json.loads(state.meta["rng_state"])
        start_iter = state.iteration
    else:
        if v0 is None:
            v0 = rng.standard_normal((dim, min(k + 2, dim))).astype(dtype)
            if np.issubdtype(dtype, np.complexfloating):
                v0 = v0 + 1j * rng.standard_normal(v0.shape)
        else:
            v0 = np.asarray(v0, dtype=dtype)
            if v0.ndim == 1:
                v0 = v0[:, None]
            if v0.shape[1] < k:
                raise ValueError(
                    "starting block must have at least k columns"
                )
        v = _orthonormalize(v0, None)
        w = apply_block(matvec, v)

    from repro.linalg.lanczos import _record_iteration

    tele = current_telemetry()
    t_start = time.perf_counter()
    progress: list = []
    theta = np.zeros(k)
    ritz = v[:, :k]
    residual_norms = np.full(k, np.inf)
    iteration = start_iter
    for iteration in range(start_iter + 1, max_iter + 1):
        g = v.conj().T @ w
        g = 0.5 * (g + g.conj().T)
        evals, evecs = np.linalg.eigh(g)
        theta = evals[:k]
        y = evecs[:, :k]
        ritz = v @ y
        h_ritz = w @ y
        residuals = h_ritz - ritz * theta
        residual_norms = np.linalg.norm(residuals, axis=0)
        entry = {
            "iteration": iteration,
            "residual": float(residual_norms.max()),
            "ritz_min": float(evals[0]),
            "ritz_max": float(evals[-1]),
            "elapsed": time.perf_counter() - t_start,
        }
        progress.append(entry)
        _record_iteration(tele, entry, solver="davidson")
        scale = max(1.0, float(np.abs(theta).max()))
        if np.all(residual_norms <= tol * scale):
            return DavidsonResult(
                eigenvalues=theta,
                eigenvectors=ritz,
                n_iterations=iteration,
                residual_norms=residual_norms,
                converged=True,
                progress=progress,
            )
        # Davidson correction with the diagonal preconditioner.
        corrections = np.empty_like(residuals)
        for j in range(k):
            denom = diagonal - theta[j]
            denom = np.where(np.abs(denom) < 1e-8, 1e-8, denom)
            corrections[:, j] = residuals[:, j] / denom
        if v.shape[1] + k > max_subspace:
            # Restart: keep the current Ritz block.
            v = _orthonormalize(ritz, None)
            w = apply_block(matvec, v)
        new = _orthonormalize(corrections, v)
        if new.shape[1] == 0:
            # Stagnation: inject a random direction.
            rand = rng.standard_normal((dim, 1)).astype(v.dtype)
            new = _orthonormalize(rand, v)
            if new.shape[1] == 0:
                break
        new_w = apply_block(matvec, new)
        v = np.concatenate([v, new], axis=1)
        w = np.concatenate([w, new_w], axis=1)
        if checkpoint_dir is not None and iteration % checkpoint_every == 0:
            # V and W = H V plus the RNG state is the complete solver
            # state: the next iteration recomputes the Rayleigh-Ritz
            # projection from them, so a resumed run continues exactly.
            write_checkpoint(
                checkpoint_dir,
                iteration,
                arrays={"v": v, "w": w},
                meta={
                    "solver": "davidson",
                    "k": k,
                    "rng_state": json.dumps(rng.bit_generator.state),
                },
                keep=checkpoint_keep,
            )

    if raise_on_no_convergence:
        raise ConvergenceError(
            f"Davidson did not converge in {max_iter} iterations "
            f"(residuals {residual_norms})",
            n_iterations=iteration,
            last_residual=float(residual_norms.max()),
        )
    return DavidsonResult(
        eigenvalues=theta,
        eigenvectors=ritz,
        n_iterations=max_iter,
        residual_norms=residual_norms,
        converged=False,
        progress=progress,
    )
