"""Krylov-subspace propagator: ``y = exp(scale * H) v``.

Used for real-time quench dynamics (``scale = -1j * dt``) and imaginary-time
projection (``scale = -dt``) in the examples.  Builds an ``m``-step Lanczos
basis from ``v`` and exponentiates the small tridiagonal projection — the
standard short-iterate Krylov propagator.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm as dense_expm

from repro.linalg.spaces import NumpyVectorSpace, VectorSpace, as_matvec

__all__ = ["expm_krylov"]


def expm_krylov(
    matvec,
    v,
    scale: complex,
    krylov_dim: int = 30,
    tol: float = 1e-12,
    space: VectorSpace | None = None,
):
    """Apply ``exp(scale * H)`` to ``v`` through a Lanczos subspace.

    ``H`` must be Hermitian (only Hermitian operators arise here; ``scale``
    carries any imaginary factor).  Iteration stops early when the Krylov
    residue ``beta`` underflows ``tol``.
    """
    matvec = as_matvec(matvec)
    if space is None:
        space = NumpyVectorSpace()
    norm_v = space.norm(v)
    if norm_v == 0.0:
        return space.copy(v)
    block = space.block([v])
    w = space.row(block, 0)
    space.scale(1.0 / norm_v, w)
    alphas: list[float] = []
    betas: list[float] = []
    for _ in range(krylov_dim):
        u = matvec(w)
        # Full reorthogonalization keeps the small basis clean.
        alphas.append(float(np.real(space.project(block, u)[-1])))
        space.project(block, u)  # twice: an exhausted space leaves beta ~ 0
        beta = space.norm(u)
        if beta <= tol:
            break
        betas.append(float(beta))
        space.scale(1.0 / beta, u)
        w = space.push(block, u)

    m = len(alphas)
    t = np.zeros((m, m), dtype=np.float64)
    t[np.arange(m), np.arange(m)] = alphas
    if m > 1:
        off = np.asarray(betas[: m - 1])
        t[np.arange(m - 1), np.arange(1, m)] = off
        t[np.arange(1, m), np.arange(m - 1)] = off
    coeffs = dense_expm(scale * t)[:, 0] * norm_v

    return space.combine(block, coeffs)
