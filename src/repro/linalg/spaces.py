"""Vector-space abstraction for the Krylov solvers.

The solvers never touch vector internals: they only need inner products,
scaled updates, fresh vectors, and a block of stored vectors to project
against.  :class:`NumpyVectorSpace` is the plain
in-memory implementation;
:class:`repro.distributed.vector.DistributedVectorSpace` plus the adapter in
:mod:`repro.linalg.lanczos` provide the distributed one, where every
reduction carries a simulated allreduce.
"""

from __future__ import annotations

import io
from pathlib import Path
from types import SimpleNamespace
from typing import Protocol, runtime_checkable

import numpy as np

from repro.resilience.checkpoint import atomic_write

__all__ = ["VectorSpace", "NumpyVectorSpace", "as_matvec", "apply_block"]

#: Rows a block of stored vectors starts with; it doubles when they run out.
BLOCK_ROWS = 64


def as_matvec(operator_or_matvec):
    """Normalize an operator argument to a ``v -> H v`` callable.

    Every Krylov driver accepts either a plain callable or any object with
    a ``matvec`` method (:class:`~repro.operators.Operator`,
    :class:`~repro.distributed.operator.DistributedOperator`,
    ``scipy.sparse.linalg.LinearOperator``, ...).  Passing the operator
    object directly keeps its attached
    :class:`~repro.operators.plan.MatvecPlan` in the loop, so repeated
    iterations replay cached matrix elements.
    """
    bound = getattr(operator_or_matvec, "matvec", None)
    if bound is not None:
        return bound
    if not callable(operator_or_matvec):
        raise TypeError(
            "expected a callable or an object with a .matvec method, got "
            f"{type(operator_or_matvec).__name__}"
        )
    return operator_or_matvec


def apply_block(matvec, block: np.ndarray) -> np.ndarray:
    """Apply ``matvec`` to every column of a ``(dim, m)`` block at once.

    Tries the block (multi-RHS) call first — ``Operator.matvec`` and the
    distributed variants compute all columns in one pass, amortizing
    matrix-element generation, partition, and ranking — and falls back to
    column-by-column application for callables that only understand 1-D
    vectors.  The result always has shape ``(dim, m)``.
    """
    block = np.asarray(block)
    if block.ndim != 2:
        raise ValueError(f"expected a (dim, m) block, got shape {block.shape}")
    if block.shape[1] == 0:
        return block.copy()
    try:
        out = np.asarray(matvec(block))
        if out.shape == block.shape:
            return out
    except (ValueError, TypeError, IndexError):
        pass
    return np.stack(
        [matvec(block[:, j]) for j in range(block.shape[1])], axis=1
    )


@runtime_checkable
class VectorSpace(Protocol):
    """What a Krylov method needs from a vector type ``V``."""

    def dot(self, x, y) -> complex: ...

    def norm(self, x) -> float: ...

    def scale(self, alpha, x) -> None:
        """``x *= alpha`` in place."""

    def copy(self, x): ...

    def random(self, like, seed: int): ...

    # A block keeps vectors as the leading ``m`` rows of one row-major 2-D
    # array per part of a vector (``self._parts(x)``: one for a NumPy vector,
    # one per locale for a distributed one; ``self._vector`` is the inverse).
    # Spaces subclass the protocol to inherit these six methods.

    def block(self, vectors, window: int | None = None):
        """Storage holding copies of ``vectors`` as rows 0, 1, ...: it
        grows, or with ``window`` keeps the last ``window`` rows only."""
        block = SimpleNamespace(arrays=[], m=0, window=window)
        for x in vectors:
            self.push(block, x)
        return block

    def push(self, block, x):
        """Copy ``x`` into the next row and return that row; the arrays
        double when they are full (a full window drops its first row
        instead) and turn complex when ``x`` is."""
        parts = self._parts(x)
        old = block.arrays or [np.empty((0, p.size), p.dtype) for p in parts]
        rows, full = len(old[0]), block.m == len(old[0])
        if full and rows and block.window:
            for a in old:
                a[:-1] = a[1:]
            block.m, full = rows - 1, False
        dtype = np.promote_types(old[0].dtype, parts[0].dtype)
        if full or dtype != old[0].dtype:
            rows = (block.window or max(BLOCK_ROWS, 2 * rows)) if full else rows
            block.arrays = [np.empty((rows, a.shape[1]), dtype) for a in old]
            for new, a in zip(block.arrays, old):
                new[: block.m] = a[: block.m]
        for a, p in zip(block.arrays, parts):
            a[block.m] = p
        block.m += 1
        return self.row(block, block.m - 1)

    def row(self, block, j: int):
        """Row ``j`` as a vector of the space (views, not copies)."""
        return self._vector([a[j] for a in block.arrays])

    def project(self, block, w, start: int = 0) -> np.ndarray:
        """``w -= sum_j <row j|w> row j`` over rows ``start`` onward, in
        place (one classical Gram-Schmidt pass); returns the overlaps."""
        rows = [a[start : block.m] for a in block.arrays]
        parts = self._parts(w)
        # <v|w> = conj(<w|v>) conjugates a vector instead of the block, and
        # a real vector not at all.
        overlaps = np.conj(sum(
            a @ (np.conj(p) if np.iscomplexobj(p) else p)
            for a, p in zip(rows, parts)
        ))
        for a, p in zip(rows, parts):
            p -= overlaps @ a
        return overlaps

    def axpy(self, alpha, x, y) -> None:
        """``y += alpha * x`` in place."""
        for px, py in zip(self._parts(x), self._parts(y)):
            py += alpha * px

    def combine(self, block, coeffs):
        """``sum_j coeffs[j] * row j`` as a new vector."""
        return self._vector([coeffs @ a[: len(coeffs)] for a in block.arrays])

    def save_vector(self, directory, name: str, vector) -> None:
        """Persist ``vector`` under ``directory`` as ``name`` (checkpoints)."""

    def load_vector(self, directory, name: str, like=None):
        """Load a vector previously written by :meth:`save_vector`."""


class NumpyVectorSpace(VectorSpace):
    """The trivial vector space over 1-D NumPy arrays."""

    def _parts(self, x: np.ndarray) -> list[np.ndarray]:
        return [x]

    def _vector(self, parts: list[np.ndarray]) -> np.ndarray:
        return parts[0]

    def dot(self, x: np.ndarray, y: np.ndarray) -> complex:
        value = np.vdot(x, y)
        return complex(value) if np.iscomplexobj(value) else float(value)

    def norm(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(x))

    def scale(self, alpha, x: np.ndarray) -> None:
        x *= alpha

    def copy(self, x: np.ndarray) -> np.ndarray:
        return x.copy()

    def random(self, like: np.ndarray, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        out = rng.standard_normal(like.shape[0])
        if like.dtype.kind == "c":
            out = out + 1j * rng.standard_normal(like.shape[0])
        return out.astype(like.dtype)

    def save_vector(self, directory, name: str, vector: np.ndarray) -> None:
        """Atomic single-file save (:func:`atomic_write`)."""
        buffer = io.BytesIO()
        np.save(buffer, vector)
        atomic_write(Path(directory) / f"{name}.npy", buffer.getvalue())

    def load_vector(self, directory, name: str, like=None) -> np.ndarray:
        return np.load(Path(directory) / f"{name}.npy")
