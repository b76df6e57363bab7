"""Krylov-subspace propagator: ``y = exp(scale * H) v``.

Used for real-time quench dynamics (``scale = -1j * dt``) and imaginary-time
projection (``scale = -dt``) in the examples.  Builds an ``m``-step Lanczos
basis from ``v`` and exponentiates the small tridiagonal projection — the
standard short-iterate Krylov propagator.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm as dense_expm

from repro.linalg.lanczos import tridiagonalize
from repro.linalg.spaces import NumpyVectorSpace, VectorSpace, as_matvec
from repro.schema import Key, check

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
    residue ``beta`` underflows ``tol``, a finite number >= 0.
    """
    check(tol, Key("tol", float, min=0.0))
    matvec = as_matvec(matvec)
    if space is None:
        space = NumpyVectorSpace()
    norm_v = space.norm(v)
    if norm_v == 0.0:
        return space.copy(v)
    # Full reorthogonalization keeps the small basis clean.
    [(alphas, betas, block)] = tridiagonalize(
        matvec, space, [v], [norm_v], krylov_dim, breakdown=tol
    )
    t = np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1)
    coeffs = dense_expm(scale * t)[:, 0] * norm_v

    return space.combine(block, coeffs)
