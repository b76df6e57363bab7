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
sector, the result dtype and the plan they own.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from repro.basis.spin_basis import Basis
from repro.errors import CompilationError, ConfigError
from repro.operators.compile import compile_expression, result_dtype
from repro.operators.expression import Expression
from repro.operators.kernels import many_rows
from repro.operators.matrix import operator_to_dense, operator_to_sparse
from repro.operators.plan import MatvecPlan, _csr, csr_footprint
from repro.schema import require_positive

__all__ = ["BasisOperator", "Operator"]

#: Plan key of ``(matrix, covered)``, the one entry a serial plan holds from
#: the second product on.
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
    promotes with its input's.  ``plan=True`` makes the operator its own
    :class:`~repro.operators.plan.MatvecPlan`, sized from the host's
    memory, ``False`` none; anything else (a ``MatvecPlan`` too) is a
    :class:`~repro.errors.ConfigError`.
    """

    def __init__(
        self, expression: Expression, basis, sector: Basis,
        batch_size: int | None, plan: bool,
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
        if not isinstance(plan, bool):
            raise ConfigError(f"plan must be True or False, got {plan!r}")
        self.plan: MatvecPlan | None = MatvecPlan() if plan else None

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
        way.  Anything but an integer >= 1 raises
        :class:`~repro.errors.ConfigError`.
    plan:
        Record the diagonal and the iteration-invariant ``(rows, sources,
        amplitudes)`` of the first product's leading batches whose CSR
        matrix fits the budget, and fold that record once, on the next
        product, into the plan's one entry (see :meth:`matvec` and
        :class:`~repro.operators.plan.MatvecPlan`); every product after is
        ``matrix @ x`` plus the batches past it.  ``True`` gives the
        operator a plan of its own, its budget a share of the host's
        available memory; ``False`` recomputes everything every call;
        anything else raises :class:`~repro.errors.ConfigError`.  Every
        product equals the recording pass bit for bit on real arithmetic,
        to 1e-14 relative on complex.
    """

    def __init__(
        self,
        expression: Expression,
        basis: Basis,
        batch_size: int | None = None,
        plan: bool = True,
    ) -> None:
        super().__init__(expression, basis, basis, batch_size, plan)
        self._diagonal: np.ndarray | None = None
        self._record: tuple | None = None

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

    def invalidate_plan(self) -> None:
        super().invalidate_plan()
        self._record = None

    def diagonal(self) -> np.ndarray:
        """The matrix diagonal: the first element of each row of the plan's
        matrix once it holds one (the operator keeps no copy then), else
        computed once and cached."""
        held = None if self.plan is None else self.plan.peek(MATRIX_KEY)
        matrix, _ = held or (None, 0)
        if matrix is not None:
            return matrix.data[matrix.indptr[:-1]]
        if self._diagonal is None:
            states = self.basis.states
            self._diagonal = self.compiled.diagonal_values(states).astype(
                self.dtype
            )
        return self._diagonal

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Serial ``y = H x``, or ``Y = H X`` for a ``(dim, k)`` block.

        One path: ``y = matrix @ x`` over what the :attr:`plan` holds as a
        matrix (``diag * x`` when it holds none; one plan lookup), then
        ``getManyRows`` and a scatter-add for the batches of sources past
        it.  The first product writes one record: the diagonal, then each
        batch's ``(rows, sources, amplitudes)`` — the output of
        ``getManyRows`` plus the ``stateToIndex`` searches — in turn, until
        the CSR matrix of the record would outgrow the plan's budget.  The
        next product folds it once (:meth:`_fold`) into the plan's one
        entry, ``(matrix, covered)``: the whole matrix whenever the budget
        holds it, else the diagonal and a leading run of the batches, or
        ``(None, 0)`` when not one batch fits.

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
        # ``None`` while a plan holds nothing: the product records, and the
        # next folds the record.
        held = (None, 0) if self.plan is None else self.plan.get(MATRIX_KEY)
        if held is None and self._record is not None:
            held = self._fold()
        matrix, covered = held or (None, 0)
        if matrix is not None:
            y = matrix @ x
        else:
            # Rank nothing first: a basis that builds its index on first use
            # (a U(1) SpinBasis) builds it before this product's arrays exist.
            self.basis.index(self.basis.states[:0])
            dtype = result_dtype(self.compiled, self.basis, x.dtype)
            diag = self.diagonal().astype(dtype, copy=False)
            y = (diag if x.ndim == 1 else diag[:, None]) * x
        if covered < self.dim:
            self._generate_and_scatter(x, y, covered, held is None)
        return y

    def _fold(self):
        """Hold the record as the plan's one entry, ``(matrix, covered)``,
        and drop it.  ``covered`` is the first source the record does not
        cover; the matrix is ``None`` (and the diagonal stays on the
        operator) while it covers none.

        Row ``r`` holds the diagonal element, then the off-diagonal ones in
        the order the batches recorded them, columns unsorted and duplicates
        kept: SciPy's ``csr_matvec`` adds a row's entries in stored order
        starting from zero, which is ``diag * x`` followed by the batches'
        ``np.add.at``; the batches past ``covered`` then add as the
        recording pass did.
        """
        *triple, covered = self._record
        self._record = matrix = None
        if covered:
            matrix = _csr(self.shape, self.dtype, [triple])
            self._diagonal = None
        self.plan.put(MATRIX_KEY, (matrix, covered))
        return matrix, covered

    def _generate_and_scatter(
        self, x: np.ndarray, y: np.ndarray, covered: int, record: bool
    ) -> None:
        """Add the off-diagonal elements of ``H x`` from the sources
        ``covered`` on to ``y``, batch by batch.  With ``record``, keep the
        diagonal and then each batch's triple, with 32-bit positions where
        the basis allows, in three arrays sized for every element (pages
        never written cost no memory), until the first batch whose CSR
        matrix would not fit the plan's budget; the record is kept only
        once every batch has been added."""
        states = self.basis.states
        scale = self.basis.source_scale
        columns, out = np.atleast_2d(x.T).T, np.atleast_2d(y.T).T
        size = reached = self.dim
        if record:
            narrow = np.int32 if self.dim < 2**31 else np.int64
            bound = min(
                self.dim * self.compiled.max_entries_per_row,
                self.dim + self.plan.capacity_bytes // np.dtype(self.dtype).itemsize,
            )
            kept = [np.empty(bound, dtype) for dtype in (narrow, narrow, self.dtype)]
            kept[0][:size] = kept[1][:size] = np.arange(size)
            kept[2][:size] = self.diagonal()
            reached = 0
        for start in range(covered, states.size, self.batch_size):
            cut = slice(start, start + self.batch_size)
            sources, rows, amplitudes = many_rows(
                self.compiled, self.basis.locate, states[cut],
                None if scale is None else scale[cut],
            )
            sources = start + sources
            end = size + rows.size
            # Record while every batch before this one is in the record
            # (when not recording, ``reached`` stays ``dim``).
            if reached == start and csr_footprint(
                self.shape, end, self.dtype
            )[1] <= self.plan.capacity_bytes:
                for part, values in zip(kept, (rows, sources, amplitudes)):
                    part[size:end] = values
                size, reached = end, min(cut.stop, self.dim)
            # Column by column: a block adds its elements in the order a
            # single vector does (and the folded matrix will).
            for j, column in enumerate(columns.T):
                np.add.at(out[:, j], rows, amplitudes * column[sources])
        if record:
            self._record = (*(part[:size] for part in kept), reached)

    def __matmul__(self, x):
        if isinstance(x, np.ndarray):
            return self.matvec(x)
        return NotImplemented

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
