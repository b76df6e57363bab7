"""Hash-distributed vectors and the vector space used by the eigensolvers.

A :class:`DistributedVector` is aligned element-by-element with a
:class:`~repro.distributed.dist_basis.DistributedBasis`: ``parts[l][i]`` is
the amplitude of basis state ``basis.parts[l][i]``.  The
:class:`DistributedVectorSpace` provides the inner products and updates a
Krylov solver needs, charging simulated time for the local streaming work
and the allreduce latency of the global reductions.
"""

from __future__ import annotations

import time

import numpy as np

from repro.basis.spin_basis import Basis
from repro.distributed.dist_basis import DistributedBasis
from repro.errors import DistributionError
from repro.linalg.spaces import VectorSpace
from repro.runtime.clock import SimReport
from repro.runtime.mpi import SimMPI

__all__ = ["DistributedVector", "DistributedVectorSpace"]


class DistributedVector:
    """A vector — or a ``k``-column block of vectors — distributed like its
    basis (hashed distribution).

    A single vector stores 1-D parts of shape ``(count,)``; a block stores
    2-D parts of shape ``(count, k)`` with every locale agreeing on ``k``.
    All kernels treat the two forms uniformly (the column axis simply rides
    along the hashed element axis), which is what lets the block matvec
    amortize generation/partition/ranking across columns.
    """

    def __init__(self, basis: DistributedBasis, parts: list[np.ndarray]) -> None:
        if len(parts) != basis.n_locales:
            raise DistributionError(
                f"expected {basis.n_locales} parts, got {len(parts)}"
            )
        columns = None if not parts or parts[0].ndim == 1 else parts[0].shape[1]
        for locale, part in enumerate(parts):
            count = int(basis.counts[locale])
            expected = (count,) if columns is None else (count, columns)
            if part.shape != expected:
                raise DistributionError(
                    f"part {locale} has shape {part.shape}, expected "
                    f"{expected}"
                )
        self.basis = basis
        self.parts = parts

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(
        cls, basis: DistributedBasis, dtype=None, columns: int | None = None
    ) -> "DistributedVector":
        """An all-zero vector, or an all-zero ``columns``-wide block."""
        dtype = basis.scalar_dtype if dtype is None else dtype
        shape = (lambda c: (c,)) if columns is None else (lambda c: (c, columns))
        return cls(
            basis,
            [np.zeros(shape(int(c)), dtype=dtype) for c in basis.counts],
        )

    @classmethod
    def full_random(
        cls,
        basis: DistributedBasis,
        seed: int = 0,
        dtype=None,
        columns: int | None = None,
    ) -> "DistributedVector":
        dtype = basis.scalar_dtype if dtype is None else np.dtype(dtype)
        rng = np.random.default_rng(seed)
        parts = []
        for count in basis.counts:
            shape = (
                (int(count),) if columns is None else (int(count), columns)
            )
            values = rng.standard_normal(shape)
            if dtype.kind == "c":
                values = values + 1j * rng.standard_normal(shape)
            parts.append(values.astype(dtype))
        return cls(basis, parts)

    @classmethod
    def from_serial(
        cls,
        basis: DistributedBasis,
        serial_basis: Basis,
        vector: np.ndarray,
    ) -> "DistributedVector":
        """Scatter a serial ``(dim,)`` vector or ``(dim, k)`` block."""
        vector = np.asarray(vector)
        if vector.shape[0] != serial_basis.dim or vector.ndim > 2:
            raise DistributionError("vector length does not match the basis")
        parts = []
        for part_states in basis.parts:
            idx = serial_basis.index(part_states)
            parts.append(vector[idx].copy())
        return cls(basis, parts)

    def to_serial(self, serial_basis: Basis) -> np.ndarray:
        """Gather into a serial vector/block indexed by ``serial_basis``."""
        shape = (
            (serial_basis.dim,)
            if self.columns is None
            else (serial_basis.dim, self.columns)
        )
        out = np.zeros(shape, dtype=self.dtype)
        for part_states, part_values in zip(self.basis.parts, self.parts):
            idx = serial_basis.index(part_states)
            out[idx] = part_values
        return out

    # -- basics ---------------------------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        return self.parts[0].dtype if self.parts else np.dtype(np.float64)

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def columns(self) -> int | None:
        """Block width, or ``None`` for a plain (1-D) vector."""
        if not self.parts or self.parts[0].ndim == 1:
            return None
        return int(self.parts[0].shape[1])

    @property
    def n_columns(self) -> int:
        """Number of vectors carried: 1 for a plain vector, ``k`` for a block."""
        columns = self.columns
        return 1 if columns is None else columns

    @property
    def nbytes(self) -> int:
        """Total buffer bytes across all locale-local parts."""
        return sum(int(part.nbytes) for part in self.parts)

    def copy(self) -> "DistributedVector":
        return DistributedVector(self.basis, [p.copy() for p in self.parts])

    def fill(self, value) -> None:
        for part in self.parts:
            part[:] = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DistributedVector(dim={self.dim}, dtype={self.dtype})"


class DistributedVectorSpace(VectorSpace):
    """Inner products and streaming updates over distributed vectors.

    All methods do the real arithmetic locally per locale and accumulate
    time into :attr:`report`.  On a ``backend="sim"`` cluster that time is
    simulated: streaming work at the machine's axpy rate (parallel over
    each locale's cores), reductions through a simulated allreduce.  On a
    ``backend="threads"`` cluster it is the measured wall-clock time of
    the local arithmetic, and the allreduce charge vanishes (a global sum
    in shared memory is just the local sum).
    """

    def __init__(self, basis: DistributedBasis) -> None:
        self.basis = basis
        self.mpi = SimMPI(basis.cluster, ranks_per_locale=1)
        self.report = SimReport()
        self.wall_clock = basis.cluster.wall_clock

    def _charge_stream(
        self, n_vectors: int = 1, measured: float | None = None
    ) -> None:
        if self.wall_clock:
            elapsed = measured if measured is not None else 0.0
        else:
            machine = self.basis.cluster.machine
            per_locale = [
                machine.compute_time(machine.t_axpy, int(c) * n_vectors)
                for c in self.basis.counts
            ]
            elapsed = max(per_locale) if per_locale else 0.0
        self.report.elapsed += elapsed
        self.report.merge_phase("stream", elapsed)

    def _charge_reduce(self, count: int = 1) -> None:
        """One allreduce of ``count`` numbers."""
        if self.wall_clock:
            # The reduction is part of the measured local arithmetic.
            return
        _, elapsed = self.mpi.allreduce(
            np.zeros((self.basis.n_locales, count))
        )
        self.report.elapsed += elapsed
        self.report.merge_phase("allreduce", elapsed)

    def dot(self, x: DistributedVector, y: DistributedVector) -> complex:
        """Global inner product ``<x|y>`` (conjugating ``x``)."""
        t0 = time.perf_counter()
        local = sum(
            np.vdot(px, py) for px, py in zip(x.parts, y.parts)
        )
        self._charge_stream(2, measured=time.perf_counter() - t0)
        self._charge_reduce()
        value = complex(local)
        return value.real if x.dtype.kind != "c" and y.dtype.kind != "c" else value

    def norm(self, x: DistributedVector) -> float:
        value = self.dot(x, x)
        return float(np.sqrt(np.real(value)))

    def scale(self, alpha, x: DistributedVector) -> None:
        """``x *= alpha`` in place."""
        t0 = time.perf_counter()
        for px in x.parts:
            px *= alpha
        self._charge_stream(1, measured=time.perf_counter() - t0)

    # -- the Krylov block: one row-major array per locale ---------------------

    def _parts(self, x: DistributedVector) -> list[np.ndarray]:
        return x.parts

    def _vector(self, parts: list[np.ndarray]) -> DistributedVector:
        return DistributedVector(self.basis, parts)

    def project(self, block, w: DistributedVector, start: int = 0) -> np.ndarray:
        """Charges both streaming products and one allreduce of the overlaps."""
        t0 = time.perf_counter()
        overlaps = super().project(block, w, start)
        self._charge_stream(
            2 * (overlaps.size + 1), measured=time.perf_counter() - t0
        )
        self._charge_reduce(overlaps.size)
        return overlaps

    def axpy(self, alpha, x: DistributedVector, y: DistributedVector) -> None:
        """Charges the streaming update."""
        t0 = time.perf_counter()
        super().axpy(alpha, x, y)
        self._charge_stream(2, measured=time.perf_counter() - t0)

    # -- vector factory methods (complete the VectorSpace protocol, so the
    # -- Krylov solvers drive distributed vectors directly) -----------------

    def copy(self, x: DistributedVector) -> DistributedVector:
        return x.copy()

    def random(self, like: DistributedVector, seed: int) -> DistributedVector:
        return DistributedVector.full_random(
            like.basis, seed=seed, dtype=like.dtype, columns=like.columns
        )

    # -- checkpoint hooks (per-locale chunked IO; see repro.io.vectors) -----

    def save_vector(self, directory, name: str, vector: DistributedVector) -> None:
        from repro.io.vectors import save_distributed_vector

        save_distributed_vector(directory, vector, name=name)

    def load_vector(self, directory, name: str, like=None) -> DistributedVector:
        from repro.io.vectors import load_distributed_vector

        basis = like.basis if like is not None else self.basis
        return load_distributed_vector(directory, basis, name=name)
