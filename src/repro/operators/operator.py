"""The single-node matrix-free operator (basis + compiled kernels), and the
rules every operator shares.

This is the serial reference implementation of the matrix-vector product;
it and its distributed counterparts in :mod:`repro.distributed` are checked
against the dense matrices — :meth:`Operator.to_dense` and, as the
independent oracle that never goes through ``getManyRows``,
:func:`~repro.operators.matrix.expression_to_dense`.  The structure mirrors
the paper's Sec. 5.3: iterate over source states (columns), generate matrix
elements with ``getManyRows``, and scatter-add into the destination vector.

:class:`BasisOperator` is what the serial, the distributed and the SpinPack
operators decide the same way: the compile-and-check against the basis
sector, the result dtype and the plan they attach.
"""

from __future__ import annotations

from itertools import chain

import numpy as np
import scipy.sparse.linalg as spla

from repro.basis.spin_basis import Basis
from repro.errors import CompilationError, ConfigError
from repro.operators.compile import compile_expression, result_dtype
from repro.operators.expression import Expression
from repro.operators.kernels import many_rows
from repro.operators.matrix import operator_to_dense, operator_to_sparse
from repro.operators.plan import (
    MatvecPlan,
    csr_footprint,
    csr_in_recorded_order,
)
from repro.schema import require_positive

__all__ = ["BasisOperator", "Operator"]

#: Plan key of the consolidated matrix.  A batch is keyed ``(start,)`` and
#: held as the ``(rows, sources, amplitudes)`` triple that ``getManyRows``
#: and ``stateToIndex`` give it, ``sources`` as absolute basis positions.
MATRIX_KEY = ("matrix",)

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


class BasisOperator:
    """An expression compiled for a basis, with its batch size and plan.

    ``sector`` is the serial basis that names the sector: ``basis`` itself,
    or the template of a distributed one.  The expression must conserve
    magnetization if the sector fixes a Hamming weight
    (:class:`~repro.errors.CompilationError`); ``batch_size`` must be an
    integer >= 1 (:class:`~repro.errors.ConfigError`), and ``None`` sizes
    it so that the raw states a batch generates fit the second-level
    cache, ``max(256, (1 << 17) // compiled.max_entries_per_row)``.
    ``dtype`` is the operator's scalar type
    (:func:`~repro.operators.compile.result_dtype`), what every product
    promotes with its input's.  ``plan=True`` attaches a fresh
    :class:`~repro.operators.plan.MatvecPlan`, a fresh instance attaches
    that one (the way to set a budget), ``False`` none.  The operator is
    its plan's one owner: a plan that holds entries or that another
    operator has attached, or anything but a bool or a plan, is a
    :class:`~repro.errors.ConfigError`.
    """

    def __init__(
        self, expression: Expression, basis, sector: Basis,
        batch_size: int | None, plan: bool | MatvecPlan,
    ) -> None:
        self.basis = basis
        self.compiled = compile_expression(expression, sector.n_sites)
        if (
            sector.hamming_weight is not None
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
        require_positive(batch_size=batch_size)
        self.batch_size = int(batch_size)
        self.dtype = result_dtype(self.compiled, sector)
        if not isinstance(plan, (bool, MatvecPlan)):
            raise ConfigError(f"plan must be True, False or a MatvecPlan, got {plan!r}")
        if isinstance(plan, MatvecPlan) and (plan.attached or plan.n_entries):
            held = "another operator has attached it" if plan.attached else (
                f"it already holds {plan.n_entries} entries"
            )
            raise ConfigError(
                f"this MatvecPlan cannot be attached: {held}; give each "
                "operator its own plan (a capacity_bytes each, to split a budget)"
            )
        self.plan: MatvecPlan | None = MatvecPlan() if plan is True else plan or None
        if self.plan is not None:
            self.plan.attached = True

    def invalidate_plan(self) -> None:
        """Drop all cached matvec data (keeps the plan enabled)."""
        if self.plan is not None:
            self.plan.invalidate()

    @property
    def dim(self) -> int:
        return self.basis.dim


class Operator(BasisOperator):
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
        way.  The plan holds one entry per batch.  Anything but an integer
        >= 1 raises :class:`~repro.errors.ConfigError`.
    plan:
        Cache the iteration-invariant ``(rows, sources, amplitudes)``
        triples produced for each batch and replay them on subsequent
        matvecs (see :class:`~repro.operators.plan.MatvecPlan`).  ``True``
        builds a plan with the default memory budget; pass a fresh
        :class:`MatvecPlan` to control the budget, or ``False`` to
        recompute everything every call.  The plan is this operator's
        alone: one that holds entries or that another operator has
        attached raises :class:`~repro.errors.ConfigError`.  A replay
        equals the recording pass bit for bit on real arithmetic, to 1e-14
        relative on complex.
    """

    def __init__(
        self,
        expression: Expression,
        basis: Basis,
        batch_size: int | None = None,
        plan: bool | MatvecPlan = True,
    ) -> None:
        super().__init__(expression, basis, basis, batch_size, plan)
        self._diagonal: np.ndarray | None = None

    # -- inspection -----------------------------------------------------------

    @property
    def expression(self) -> Expression:
        return self.compiled.expression

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

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
        ``(rows, sources, amplitudes)`` triple — the output of
        ``getManyRows`` plus the ``stateToIndex`` searches — and the next
        call folds the batches into one CSR matrix (:meth:`_consolidate`):
        every later product, single vector or block, is ``matrix @ x``.

        A block input computes all ``k`` columns in one pass, so generation
        and ranking happen once per batch for the whole block.  A plan
        recorded under a single vector replays against a block (and vice
        versa); the result dtype follows NumPy promotion of the operator's
        dtype with the input's.
        """
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[0] != self.dim:
            raise ValueError(
                f"expected vector of shape ({self.dim},) or block of shape "
                f"({self.dim}, k)"
            )
        matrix = self._consolidate()
        if matrix is not None:
            y = matrix @ x
        else:
            # Rank nothing first: a basis that builds its index on first use
            # (a U(1) SpinBasis) builds it before this product's arrays exist.
            self.basis.index(self.basis.states[:0])
            dtype = result_dtype(self.compiled, self.basis, x.dtype)
            diag = self.diagonal().astype(dtype, copy=False)
            y = (diag if x.ndim == 1 else diag[:, None]) * x
            self._generate_and_scatter(x, y)
        return y

    def _consolidate(self):
        """The operator as one CSR matrix, once the plan holds every batch (so
        never during the recording pass) and if its budget admits it, else ``None``.

        Row ``r`` holds the diagonal element, then the off-diagonal ones in the
        order the batches recorded them, columns unsorted and duplicates kept:
        SciPy's ``csr_matvec`` adds a row's entries in stored order starting
        from zero, which is ``diag * x`` followed by the batches' ``np.add.at``.
        The matrix takes the batches' place in the plan (:data:`MATRIX_KEY`).
        """
        plan = self.plan
        if plan is None:
            return None
        if MATRIX_KEY in plan:
            return plan.get(MATRIX_KEY)
        keys = [(start,) for start in range(0, self.dim, self.batch_size)]
        if not keys or not all(key in plan for key in keys):
            return None
        nnz = self.dim + sum(plan.peek(key)[0].size for key in keys)
        if csr_footprint(self.shape, nnz, self.dtype)[1] > plan.capacity_bytes:
            return None  # the plan would turn it away: keep the batches
        # Each batch leaves the plan as the builder takes it: above
        # ``RUN_ELEMENTS`` run by run, so the batches and the matrix are
        # never whole in memory together.
        positions = np.arange(self.dim)
        matrix = csr_in_recorded_order(
            self.shape, self.dtype,
            chain([positions], (plan.get(key)[0] for key in keys)),
            chain([(positions, positions, self.diagonal())], map(plan.pop, keys)),
        )
        plan.put(MATRIX_KEY, matrix)
        return matrix

    def _generate_and_scatter(self, x: np.ndarray, y: np.ndarray) -> None:
        """Add the off-diagonal part of ``H x`` to ``y``, batch by batch."""
        states = self.basis.states
        scale = self.basis.source_scale
        columns, out = np.atleast_2d(x.T).T, np.atleast_2d(y.T).T
        for start in range(0, states.size, self.batch_size):
            entry = None if self.plan is None else self.plan.get((start,))
            if entry is None:
                cut = slice(start, start + self.batch_size)
                sources, rows, amplitudes = many_rows(
                    self.compiled, self.basis.locate, states[cut],
                    None if scale is None else scale[cut],
                )
                entry = rows, start + sources, amplitudes
                if self.plan is not None:
                    # Empty batches are cached too (replay then skips the
                    # whole getManyRows call), all with 32-bit positions where
                    # the basis allows: a third off the plan, and the matrix's.
                    narrow = np.int32 if self.dim < 2**31 else np.int64
                    kept = (part.astype(narrow) for part in entry[:2])
                    self.plan.put((start,), (*kept, amplitudes))
            rows, sources, amplitudes = entry
            # Column by column: a block adds its elements in the order a
            # single vector does (and the consolidated matrix will).
            for j, column in enumerate(columns.T):
                np.add.at(out[:, j], rows, amplitudes * column[sources])

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
