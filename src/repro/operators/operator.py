"""The single-node matrix-free operator (basis + compiled kernels).

This is the serial reference implementation of the matrix-vector product:
its distributed counterparts live in :mod:`repro.distributed` and are all
validated against it.  The structure mirrors the paper's Sec. 5.3: iterate
over source states (columns), generate matrix elements with ``getManyRows``,
and scatter-add into the destination vector.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.basis.spin_basis import Basis
from repro.errors import CompilationError
from repro.operators.compile import compile_expression
from repro.operators.expression import Expression
from repro.operators.kernels import get_many_rows
from repro.operators.matrix import operator_to_dense, operator_to_sparse
from repro.operators.plan import MatvecPlan
from repro.telemetry.context import current as current_telemetry

__all__ = ["Operator", "SerialChunk"]

#: The default batch holds as many sources as can generate at most this many
#: raw output states (the serial analogue of the paper's getManyRows
#: chunking).  A Heisenberg model at zero magnetization emits a quarter of
#: the bound, ~34 k states or 272 KB per ``uint64`` array, so the half
#: dozen arrays that one round of apply_off_diag -> state_info -> project
#: -> index -> scatter-add passes over ~10 times per group element stay in
#: a second-level cache; 16 Ki sources (205-410 k states) streamed them
#: from DRAM every pass — see docs/PERFORMANCE.md, "Cold path".
BATCH_RAW_STATES = 1 << 17
MIN_BATCH_SIZE = 256


class SerialChunk:
    """Plan entry for one serial batch of source states.

    Holds the iteration-invariant ``(sources, rows, amplitudes)`` triple
    recorded by ``getManyRows`` + ``stateToIndex``, ``sources`` as absolute
    basis positions: the 1-D replay is gather → multiply → ``np.add.at`` in
    the recorded element order, so warm single-vector results stay
    bit-identical to the cold pass.
    """

    __slots__ = ("sources", "rows", "amplitudes")

    def __init__(
        self,
        sources: np.ndarray,
        rows: np.ndarray,
        amplitudes: np.ndarray,
    ) -> None:
        self.sources = sources
        self.rows = rows
        self.amplitudes = amplitudes

    def scatter_matrix(self, dim: int, start: int, count: int):
        """The batch ``[start, start + count)`` as a ``(dim, count)`` CSR
        column block of the operator (duplicate ``(row, source)`` pairs are
        summed, matching the scatter-add)."""
        return sp.csr_matrix(
            (self.amplitudes, (self.rows, self.sources - start)),
            shape=(dim, count),
        )


class Operator:
    """A Hermitian operator acting on vectors in a given basis.

    Parameters
    ----------
    expression:
        Symbolic operator; it should commute with the basis symmetries
        (checked for U(1), asserted in tests for the lattice symmetries).
    basis:
        Any :class:`~repro.basis.Basis`.
    batch_size:
        How many source states to process per kernel call.  ``None`` (the
        default) sizes the batch so that the raw states it generates fit
        the second-level cache: ``max(256, (1 << 17) //
        compiled.max_entries_per_row)`` — 2 674 sources on a 24-site
        Heisenberg chain, 1 351 on the 4x6 torus, ~34 k raw states either
        way.  The plan holds one entry per batch.
    plan:
        Cache the iteration-invariant ``(sources, rows, amplitudes)``
        triples produced for each batch and replay them on subsequent
        matvecs (see :class:`~repro.operators.plan.MatvecPlan`).  ``True``
        builds a plan with the default memory budget; pass a
        :class:`MatvecPlan` to control (or share) the budget, or ``False``
        to recompute everything every call.
    """

    def __init__(
        self,
        expression: Expression,
        basis: Basis,
        batch_size: int | None = None,
        plan: bool | MatvecPlan = True,
    ) -> None:
        self.basis = basis
        self.compiled = compile_expression(expression, basis.n_sites)
        if (
            basis.hamming_weight is not None
            and not self.compiled.conserves_magnetization
        ):
            raise CompilationError(
                "operator does not conserve magnetization but the basis has "
                "a fixed Hamming weight; use hamming_weight=None"
            )
        if batch_size is None:
            batch_size = max(
                MIN_BATCH_SIZE,
                BATCH_RAW_STATES // self.compiled.max_entries_per_row,
            )
        self.batch_size = int(batch_size)
        if plan is True:
            self.plan: MatvecPlan | None = MatvecPlan()
        elif plan is False or plan is None:
            self.plan = None
        else:
            self.plan = plan
        self._diagonal: np.ndarray | None = None
        # Block replay: the off-diagonal part as one (dim, dim) CSR, put
        # together from the column blocks of a block pass whose every batch
        # the plan kept (half the plan's bytes again, outside its budget).
        self._scatter = None

    def invalidate_plan(self) -> None:
        """Drop all cached matvec data (keeps the plan enabled)."""
        self._scatter = None
        if self.plan is not None:
            self.plan.invalidate()

    # -- inspection -----------------------------------------------------------

    @property
    def expression(self) -> Expression:
        return self.compiled.expression

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    @property
    def dtype(self) -> np.dtype:
        real = self.basis.is_real and self.compiled.is_real
        return np.dtype(np.float64 if real else np.complex128)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Operator(dim={self.dim}, dtype={self.dtype})"

    # -- matrix-free product ----------------------------------------------------

    def diagonal(self) -> np.ndarray:
        """The matrix diagonal (cached)."""
        if self._diagonal is None:
            states = self.basis.states
            self._diagonal = self.compiled.diagonal_values(states).astype(
                self.dtype
            )
        return self._diagonal

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Serial ``y = H x``, or ``Y = H X`` for a ``(dim, k)`` block.

        With a :attr:`plan`, the first call over each batch caches the
        ``(sources, rows, amplitudes)`` triple — the output of
        ``getManyRows`` plus the ``stateToIndex`` searches — and later
        calls replay it: one gather, one multiply, one scatter-add.

        A block input computes all ``k`` columns in one pass: the
        generation and ranking happen once per batch (or are replayed from
        the plan), and the scatter runs as CSR SpMM, which shares every
        index load across the ``k`` columns — one column block per batch
        (:meth:`SerialChunk.scatter_matrix`) on the first block pass, one
        ``(dim, dim)`` product on every later one when the plan holds all
        batches; the measured per-column cost at ``k=8`` is well under half
        the single-vector path.  A plan recorded under a single vector
        replays against a block (and vice versa); the result dtype follows
        NumPy promotion of the operator's dtype with the input's.
        """
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[0] != self.dim:
            raise ValueError(
                f"expected vector of shape ({self.dim},) or block of shape "
                f"({self.dim}, k)"
            )
        k = 1 if x.ndim == 1 else int(x.shape[1])
        metrics = current_telemetry().metrics
        t0 = perf_counter() if metrics.enabled else 0.0
        dtype = np.promote_types(self.dtype, x.dtype)
        diag = self.diagonal().astype(dtype)
        y = (diag if x.ndim == 1 else diag[:, None]) * x
        if x.ndim == 2 and self._scatter is not None:
            y += self._scatter @ x
        else:
            self._generate_and_scatter(x, y)
        if metrics.enabled:
            metrics.gauge("matvec.block_width").set(float(k))
            dt = perf_counter() - t0
            metrics.histogram("kernel.matvec_seconds").observe(dt)
            metrics.histogram("kernel.matvec_seconds_per_column").observe(
                dt / k
            )
        return y

    def _generate_and_scatter(self, x: np.ndarray, y: np.ndarray) -> None:
        """Add the off-diagonal part of ``H x`` to ``y``, batch by batch."""
        states = self.basis.states
        scale = self.basis.source_scale
        blocks: list | None = [] if x.ndim == 2 and self.plan is not None else None
        for start in range(0, states.size, self.batch_size):
            entry = None if self.plan is None else self.plan.get((start,))
            if entry is None:
                alphas = states[start : start + self.batch_size]
                batch_scale = (
                    None
                    if scale is None
                    else scale[start : start + alphas.size]
                )
                sources, members, amplitudes = get_many_rows(
                    self.compiled, self.basis, alphas, batch_scale
                )
                rows = (
                    self.basis.index(members)
                    if sources.size
                    else np.empty(0, dtype=np.int64)
                )
                entry = SerialChunk(start + sources, rows, amplitudes)
                if self.plan is not None:
                    # Empty batches are cached too: replay then skips the
                    # whole getManyRows call, not just the scatter.
                    self.plan.put((start,), entry)
            if x.ndim == 1:
                if entry.sources.size:
                    np.add.at(y, entry.rows, entry.amplitudes * x[entry.sources])
                continue
            count = min(self.batch_size, states.size - start)
            scatter = entry.scatter_matrix(self.dim, start, count)
            if entry.sources.size:
                y += scatter @ x[start : start + count]
            if blocks is not None and (start,) in self.plan:
                blocks.append(scatter)
            else:  # a batch the plan's budget turned away ends the collection
                blocks = None
        if blocks:
            self._scatter = sp.hstack(blocks, format="csr")

    def __matmul__(self, x):
        if isinstance(x, np.ndarray):
            return self.matvec(x)
        return NotImplemented

    def expectation(self, x: np.ndarray) -> complex:
        """``<x|H|x> / <x|x>``."""
        x = np.asarray(x)
        return np.vdot(x, self.matvec(x)) / np.vdot(x, x)

    # -- export ---------------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        return operator_to_dense(self.compiled, self.basis)

    def to_sparse(self):
        return operator_to_sparse(self.compiled, self.basis)

    def as_linear_operator(self) -> spla.LinearOperator:
        """A SciPy ``LinearOperator`` view (for ``eigsh`` etc.)."""
        return spla.LinearOperator(
            shape=self.shape,
            matvec=self.matvec,
            matmat=self.matvec,
            dtype=self.dtype,
        )
