"""Tests for the Krylov-iteration-invariant matvec plan cache.

A :class:`~repro.operators.plan.MatvecPlan` holds the symmetry-resolved
matrix elements a product generates (the serial operator as one CSR matrix
folded once from its first product's record, the distributed one per
chunk), so repeated products (every Krylov iteration after the first) skip
``get_many_rows`` and ``stateToIndex`` for what it holds.  Caching must be
*invisible*: results are bit-for-bit reproducible with the plan on, off,
and after invalidation, for the serial operator and all three distributed
variants.
"""

import os

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

import repro
import repro.operators.plan as plan_module
from repro import telemetry
from repro.basis import SpinBasis, SymmetricBasis
from repro.distributed import (
    DistributedOperator,
    DistributedVector,
    enumerate_states,
)
from repro.errors import ConfigError
from repro.linalg import as_matvec, lanczos
import repro.operators.operator as operator_module
from repro.operators import MatvecPlan
from repro.operators.kernels import many_rows
from repro.operators.plan import csr_footprint, csr_in_recorded_order
from repro.runtime import Cluster, laptop_machine
from repro.symmetry import chain_symmetries


@pytest.fixture
def basis():
    group = chain_symmetries(12, momentum=0, parity=0, inversion=0)
    return SymmetricBasis(group, hamming_weight=6)


@pytest.fixture
def expr():
    return repro.heisenberg_chain(12)


def batch_sizes(op):
    """The number of off-diagonal elements each of ``op``'s batches emits."""
    basis, scale = op.basis, op.basis.source_scale
    return [
        many_rows(
            op.compiled, basis.locate, basis.states[start : start + op.batch_size],
            None if scale is None else scale[start : start + op.batch_size],
        )[0].size
        for start in range(0, op.dim, op.batch_size)
    ]


def record_nbytes(op):
    return sum(part.nbytes for part in op._record[:3])


def counting_folds(monkeypatch):
    """Count the CSR matrices the serial operator builds from here on."""
    calls, build = [], operator_module._csr
    monkeypatch.setattr(
        operator_module, "_csr", lambda *args: calls.append(1) or build(*args)
    )
    return calls


def random_vector(basis, rng):
    x = rng.standard_normal(basis.dim).astype(basis.scalar_dtype)
    if basis.scalar_dtype == np.complex128:
        x = x + 1j * rng.standard_normal(basis.dim)
    return x


class TestSerialPlan:
    def test_plan_matches_unplanned(self, basis, expr, rng):
        planned = repro.Operator(expr, basis, plan=True)
        unplanned = repro.Operator(expr, basis, plan=False)
        assert unplanned.plan is None
        for _ in range(3):  # cold, then two warm replays
            x = random_vector(basis, rng)
            np.testing.assert_allclose(
                planned.matvec(x), unplanned.matvec(x), rtol=1e-12, atol=0
            )
        assert planned.plan.n_entries > 0

    def test_plan_populated_and_replayed(self, basis, expr, rng):
        """One plan lookup per product, of the matrix: the recording
        product and the folding one miss it, every later one hits."""
        op = repro.Operator(expr, basis)
        tele = telemetry.Telemetry.enabled(trace=False)
        with telemetry.use(tele):
            x = random_vector(basis, rng)
            op.matvec(x)
            assert op.plan.n_entries == 0 and op._record[-1] == op.dim
            for _ in range(3):
                op.matvec(x)
        assert op.plan.n_entries == 1
        assert tele.metrics.counter_total("plan.misses") == 2
        assert tele.metrics.counter_total("plan.hits") == 2

    def test_invalidation_recomputes_identically(self, basis, expr, rng):
        op = repro.Operator(expr, basis)
        x = random_vector(basis, rng)
        y_cold = op.matvec(x)
        y_warm = op.matvec(x)
        op.invalidate_plan()
        assert op.plan.n_entries == 0
        y_again = op.matvec(x)
        np.testing.assert_array_equal(y_warm, y_cold)
        np.testing.assert_array_equal(y_again, y_cold)

    def test_lanczos_energy_plan_on_off(self, basis, expr, rng):
        v0 = rng.standard_normal(basis.dim)
        energies = []
        for plan in (True, False):
            op = repro.Operator(expr, basis, plan=plan)
            res = lanczos(op, v0.copy(), k=1, tol=1e-12)
            energies.append(res.eigenvalues[0])
            if plan:
                op.invalidate_plan()
                res2 = lanczos(op, v0.copy(), k=1, tol=1e-12)
                np.testing.assert_allclose(
                    res2.eigenvalues, res.eigenvalues, rtol=1e-12
                )
        np.testing.assert_allclose(energies[0], energies[1], rtol=1e-12)

    def test_lanczos_records_plan_hits(self, basis, expr, rng):
        op = repro.Operator(expr, basis)
        tele = telemetry.Telemetry.enabled(trace=False)
        with telemetry.use(tele):
            lanczos(op, rng.standard_normal(basis.dim), k=1, tol=1e-10)
        assert tele.metrics.counter_total("plan.hits") > 0

    @pytest.mark.parametrize("momentum", [0, 3], ids=["real", "complex"])
    def test_the_fold_leaves_one_diagonal(self, momentum, rng):
        """Once the plan's matrix holds the diagonal, the operator keeps no
        ``dim``-long copy of it, and ``diagonal()`` reads the same values
        from the matrix (each row's first element: duplicates landing on
        the diagonal are not summed in)."""
        basis = SymmetricBasis(chain_symmetries(10, momentum, None, None))
        expr = repro.heisenberg_chain(10)
        op = repro.Operator(expr, basis, batch_size=7)
        expected = repro.Operator(expr, basis, plan=False).diagonal()
        x = random_vector(basis, rng)
        op.matvec(x)
        np.testing.assert_array_equal(op.diagonal(), expected)
        op.matvec(x)
        _, covered = op.plan.peek(("matrix",))
        assert covered == op.dim and op._diagonal is None
        assert not [
            name for name, value in vars(op).items()
            if isinstance(value, np.ndarray) and value.shape[0] == op.dim
        ]
        np.testing.assert_array_equal(op.diagonal(), expected)
        assert op.diagonal().dtype == expected.dtype


class TestSerialBatchRule:
    """``Operator(batch_size=None)`` sizes the batch from the operator's
    row density; the record covers every batch."""

    @pytest.fixture(scope="class")
    def wide_basis(self):
        # momentum only: dim 9252, three default-sized batches
        return SymmetricBasis(
            chain_symmetries(20, 0, None, None), hamming_weight=10
        )

    @pytest.fixture(scope="class")
    def wide_expr(self):
        return repro.heisenberg_chain(20)

    def test_default_follows_row_density_and_explicit_wins(
        self, wide_basis, wide_expr
    ):
        op = repro.Operator(wide_expr, wide_basis)
        assert op.compiled.max_entries_per_row == 41
        assert op.batch_size == (1 << 17) // 41 == 3196
        assert repro.Operator(wide_expr, wide_basis, batch_size=7).batch_size == 7
        all_pairs = repro.heisenberg(
            [(i, j) for i in range(24) for j in range(i)]
        )
        dense = repro.Operator(all_pairs, SpinBasis(24, hamming_weight=1))
        assert dense.compiled.max_entries_per_row == 553
        assert dense.batch_size == 256  # the floor, not 131072 // 553 = 237

    @pytest.mark.parametrize(
        "n_sites, batch_size", [(14, 1), (14, 7), (20, None), (20, 9252)]
    )
    def test_cold_matvec_agrees_with_sparse_matrix(
        self, wide_basis, rng, n_sites, batch_size
    ):
        basis = (
            wide_basis
            if n_sites == 20
            else SymmetricBasis(
                chain_symmetries(n_sites, 0, None, None),
                hamming_weight=n_sites // 2,
            )
        )
        op = repro.Operator(
            repro.heisenberg_chain(n_sites),
            basis,
            batch_size=batch_size,
            plan=False,
        )
        matrix = op.to_sparse()
        for x in (
            rng.standard_normal(op.dim),
            rng.standard_normal((op.dim, 8)),
        ):
            expected = matrix @ x
            error = np.abs(op.matvec(x) - expected).max()
            assert error <= 1e-12 * np.abs(expected).max()

    def test_one_record_of_every_batch_and_bitwise_replay(
        self, wide_basis, wide_expr, rng
    ):
        op = repro.Operator(wide_expr, wide_basis)
        x = rng.standard_normal(op.dim)
        y_recorded = op.matvec(x)
        assert -(-op.dim // op.batch_size) == 3
        assert op._record[0].size == op.dim + sum(batch_sizes(op))
        assert op._record[-1] == op.dim and op.plan.n_entries == 0
        np.testing.assert_array_equal(op.matvec(x), y_recorded)
        cold = repro.Operator(wide_expr, wide_basis, plan=False)
        np.testing.assert_array_equal(cold.matvec(x), y_recorded)
        # a block replays through the consolidated matrix, twice alike
        block = rng.standard_normal((op.dim, 4))
        first, second = op.matvec(block), op.matvec(block)
        np.testing.assert_array_equal(second, first)
        np.testing.assert_allclose(
            first, cold.to_sparse() @ block, rtol=1e-12, atol=1e-12
        )


class TestConsolidatedReplay:
    """The product after the recording folds its record (the diagonal and
    the leading batches whose matrix the budget admits) into one CSR matrix
    in recorded order and generates the rest: bit-for-bit the recording
    pass on real arithmetic, 1e-14 relative on complex."""

    @pytest.fixture(scope="class")
    def sector(self):
        # Real, no magnetization constraint: the two polarized states emit
        # nothing (empty batches at batch_size=1) and symmetry-related
        # images collide on one (row, source) pair (duplicates).
        basis = SymmetricBasis(
            chain_symmetries(10, 0, 0, None), hamming_weight=None
        )
        return repro.heisenberg_chain(10), basis

    @pytest.mark.parametrize("batch_size", [1, 7, None, 78])
    def test_replay_is_the_recording_pass_bit_for_bit(
        self, sector, rng, batch_size
    ):
        expr, basis = sector
        op = repro.Operator(expr, basis, batch_size=batch_size)
        cold = repro.Operator(expr, basis, batch_size=batch_size, plan=False)
        x = rng.standard_normal(op.dim)
        recorded = op.matvec(x)
        rows, sources, _, covered = op._record
        assert op.plan.n_entries == 0 and covered == op.dim
        # the diagonal, then every batch, empty ones too
        np.testing.assert_array_equal(rows[: op.dim], np.arange(op.dim))
        np.testing.assert_array_equal(sources[: op.dim], np.arange(op.dim))
        if batch_size == 1:
            assert 0 in batch_sizes(op)
        pairs = list(zip(rows[op.dim :].tolist(), sources[op.dim :].tolist()))
        assert len(pairs) == sum(batch_sizes(op))
        assert len(set(pairs)) < len(pairs)
        # 32-bit positions
        assert record_nbytes(op) == 16 * (op.dim + len(pairs))
        for _ in range(2):  # the folding replay, then a plain one
            np.testing.assert_array_equal(op.matvec(x), recorded)
            assert op.plan.n_entries == 1
        np.testing.assert_array_equal(cold.matvec(x), recorded)
        # the matrix is accounted at its real size: duplicates kept, the
        # diagonal in, 12 B per element plus the row pointers
        matrix, covered = op.plan.peek(("matrix",))
        assert covered == op.dim
        assert matrix.nnz == op.dim + len(pairs)
        assert op.plan.nbytes == 12 * matrix.nnz + 4 * (op.dim + 1)
        op.invalidate_plan()
        assert op.plan.n_entries == 0 and op._record is None
        np.testing.assert_array_equal(op.matvec(x), recorded)
        assert op.plan.n_entries == 0 and op._record[-1] == op.dim

    def test_block_passes_agree_bit_for_bit(self, sector, rng):
        expr, basis = sector
        op = repro.Operator(expr, basis, batch_size=7)
        cold = repro.Operator(expr, basis, batch_size=7, plan=False)
        block = rng.standard_normal((op.dim, 8))
        recorded = op.matvec(block)
        np.testing.assert_array_equal(op.matvec(block), recorded)
        np.testing.assert_array_equal(cold.matvec(block), recorded)
        for j in range(8):  # a column alone adds in the same order
            np.testing.assert_array_equal(op.matvec(block[:, j]), recorded[:, j])

    def test_budget_too_small_for_all_batches_never_consolidates(
        self, sector, rng, plan_budget
    ):
        """A byte short of the whole matrix: the plan ends as a matrix of a
        leading run of the batches, and the products generate the rest."""
        expr, basis = sector
        full = repro.Operator(expr, basis, batch_size=7)
        x = rng.standard_normal(full.dim)
        recorded = full.matvec(x)
        full.matvec(x)
        with plan_budget(full.plan.nbytes - 1):
            op = repro.Operator(expr, basis, batch_size=7)
        for _ in range(4):
            np.testing.assert_array_equal(op.matvec(x), recorded)
        _, covered = op.plan.peek(("matrix",))
        assert op.plan.n_entries == 1 and 0 < covered < op.dim

    def test_a_budget_short_of_the_records_builds_the_matrix_once(
        self, sector, rng, plan_budget, monkeypatch
    ):
        """A byte short of the record (16 B per element) but room for the
        matrix (12 B per element and 4 B per row): the record takes every
        batch, the next product folds it, and that one build is the last;
        no later product changes the plan's ``(matrix, covered)``."""
        expr, basis = sector
        full = repro.Operator(expr, basis, batch_size=7)
        x = rng.standard_normal(full.dim)
        recorded = full.matvec(x)
        records = record_nbytes(full)
        full.matvec(x)
        matrix = full.plan.nbytes
        assert matrix < records
        with plan_budget(records - 1):
            op = repro.Operator(expr, basis, batch_size=7)
        builds = counting_folds(monkeypatch)
        held = []
        for _ in range(5):
            np.testing.assert_array_equal(op.matvec(x), recorded)
            held.append(op.plan.peek(("matrix",)))
        assert held[0] is None and len(builds) == 1
        assert all(entry is held[1] for entry in held[2:])
        assert held[1][1] == op.dim
        assert op.plan.n_entries == 1 and op.plan.nbytes == matrix

    def test_room_for_the_batches_but_not_for_the_matrix(self, rng, plan_budget):
        # One bond on 12 sites: 0.27 off-diagonal elements per row, so the
        # matrix (a diagonal element and a row pointer for every row) is
        # larger than the batches' 16 B per element.  The record covers no
        # batch: the plan holds no matrix and every product generates every
        # batch.
        basis = SpinBasis(12, hamming_weight=6)
        expr = repro.spin_plus(0) * repro.spin_minus(1)
        expr = expr + repro.spin_minus(0) * repro.spin_plus(1)
        probe = repro.Operator(expr, basis, batch_size=100)
        x = rng.standard_normal(probe.dim)
        recorded = probe.matvec(x)
        budget = record_nbytes(probe) - 16 * probe.dim
        nnz = budget // 16
        assert 0 < nnz < 4 * probe.dim
        assert 12 * (nnz + probe.dim) + 4 * (probe.dim + 1) > budget
        with plan_budget(budget):
            op = repro.Operator(expr, basis, batch_size=100)
        tele = telemetry.Telemetry.enabled(trace=False)
        with telemetry.use(tele):
            np.testing.assert_array_equal(op.matvec(x), recorded)
            assert op.plan.n_entries == 0 and op._record[-1] == 0
            for _ in range(3):
                np.testing.assert_array_equal(op.matvec(x), recorded)
                assert op.plan.peek(("matrix",)) == (None, 0)
                assert op.plan.n_entries == 1 and op.plan.nbytes == 0
        # one matrix lookup per product, nothing turned away
        assert tele.metrics.counter_total("plan.misses") == 2
        assert tele.metrics.counter_total("plan.hits") == 2
        assert tele.metrics.counter_total("plan.rejected") == 0
        # one more byte of room is not enough either; room for the matrix is
        for capacity, covered in [
            (budget + 1, 0),
            (12 * (nnz + op.dim) + 4 * (op.dim + 1), op.dim),
        ]:
            with plan_budget(capacity):
                op = repro.Operator(expr, basis, batch_size=100)
            for _ in range(3):
                np.testing.assert_array_equal(op.matvec(x), recorded)
            assert op.plan.peek(("matrix",))[1] == covered

    def test_pop_keeps_the_bytes_gauge_current(self, plan_budget):
        with plan_budget(1000):
            plan = MatvecPlan()
        tele = telemetry.Telemetry.enabled(trace=False)
        with telemetry.use(tele):
            plan.put(("a",), np.zeros(10))
            plan.put(("b",), np.zeros(20))
            assert plan.peek(("a",)) is plan.pop(("a",))
            assert plan.peek(("a",)) is None and plan.pop(("a",)) is None
        assert plan.nbytes == 160
        assert tele.metrics.gauge("plan.bytes").value == 160.0
        assert tele.metrics.counter_total("plan.hits") == 0
        assert tele.metrics.counter_total("plan.misses") == 0

    def test_mixed_dtypes_and_blocks_against_the_sparse_matrix(self, sector, rng):
        expr, real_basis = sector
        complex_basis = SymmetricBasis(
            chain_symmetries(10, 3, None, None), hamming_weight=5
        )
        for basis, inputs in (
            # real plan x complex vector, and blocks
            (real_basis, (np.complex128, np.float64)),
            # complex sector x real vector, and blocks
            (complex_basis, (np.float64, np.complex128)),
        ):
            op = repro.Operator(expr, basis, batch_size=7)
            matrix = op.to_sparse()
            for dtype in inputs:
                for shape in ((op.dim,), (op.dim, 8)):
                    x = rng.standard_normal(shape).astype(dtype)
                    if dtype is np.complex128:
                        x = x + 1j * rng.standard_normal(shape)
                    expected = matrix @ x
                    for _ in range(3):  # record, consolidate, replay
                        y = op.matvec(x)
                        assert y.dtype == expected.dtype
                        assert np.abs(y - expected).max() <= (
                            1e-12 * np.abs(expected).max()
                        )
                    op.invalidate_plan()

    def test_complex_replay_within_one_part_in_1e14(self, rng):
        # Not bit-identical: NumPy's SIMD complex multiply fuses, SciPy's
        # does not; the contract on complex arithmetic is 1e-14 relative.
        basis = SymmetricBasis(
            chain_symmetries(16, 3, None, None), hamming_weight=8
        )
        op = repro.Operator(repro.heisenberg_chain(16), basis)
        for _ in range(5):
            x = random_vector(basis, rng)
            op.invalidate_plan()
            recorded = op.matvec(x)
            replayed = op.matvec(x)
            assert ("matrix",) in op.plan
            assert np.abs(replayed - recorded).max() <= (
                1e-14 * np.abs(recorded).max()
            )


class TestOnePath:
    """Every serial product is ``y = matrix @ x`` over what the plan holds,
    then ``getManyRows`` and ``np.add.at`` for the batches from
    ``covered`` on: whatever the fold took (no batch, one, some or all of
    them), every product equals ``plan=False``."""

    BATCH = 16

    @pytest.fixture(scope="class", params=["real", "complex"])
    def sector(self, request):
        momentum = 0 if request.param == "real" else 3
        basis = SymmetricBasis(
            chain_symmetries(14, momentum, None, None), hamming_weight=7
        )
        return repro.heisenberg_chain(14), basis

    @staticmethod
    def assert_equal(y, expected):
        if np.isrealobj(expected):
            np.testing.assert_array_equal(y, expected)
        else:
            assert np.abs(y - expected).max() <= 1e-14 * np.abs(expected).max()

    def budget_folding(self, expr, basis, folded):
        """A budget whose fold takes the first ``folded`` batches (all of
        them for ``None``), with the batch sizes of a full recording."""
        probe = repro.Operator(expr, basis, batch_size=self.BATCH)
        sizes = batch_sizes(probe)
        if folded is None:
            return 2**40, sizes

        def footprint(k):
            return csr_footprint(probe.shape, basis.dim + sum(sizes[:k]), probe.dtype)[1]

        return (footprint(1) - 1 if folded == 0 else footprint(folded)), sizes

    @pytest.mark.parametrize("folded", [0, 1, "some", None], ids=["0", "1", "some", "all"])
    def test_every_product_is_the_unplanned_one(
        self, sector, folded, rng, plan_budget, monkeypatch
    ):
        expr, basis = sector
        n_batches = -(-basis.dim // self.BATCH)
        folded = n_batches // 3 if folded == "some" else folded
        budget, sizes = self.budget_folding(expr, basis, folded)
        with plan_budget(budget):
            op = repro.Operator(expr, basis, batch_size=self.BATCH)
        cold = repro.Operator(expr, basis, batch_size=self.BATCH, plan=False)
        vector, block = random_vector(basis, rng), random_vector(basis, rng)
        block = np.stack([np.roll(block, j) for j in range(8)], axis=1)
        builds = counting_folds(monkeypatch)
        # record, fold, then two warm products: a vector, a block, ...
        for x in (vector, block, vector, block):
            self.assert_equal(op.matvec(x), cold.matvec(x))
        matrix, covered = op.plan.peek(("matrix",))
        assert op.plan.n_entries == 1 and op._record is None
        assert len(builds) == (folded != 0)
        if folded is None:
            assert covered == basis.dim and matrix.nnz == basis.dim + sum(sizes)
        elif folded == 0:
            assert (matrix, covered) == (None, 0)
        else:
            assert covered == folded * self.BATCH
            assert matrix.nnz == basis.dim + sum(sizes[:folded])
        # a warm product generates the batches from ``covered`` on, no more
        tele = telemetry.Telemetry.enabled(trace=False)
        with telemetry.use(tele):
            y = op.matvec(vector)
        self.assert_equal(y, cold.matvec(vector))
        tail = telemetry.Telemetry.enabled(trace=False)
        with telemetry.use(tail):
            for start in range(covered, basis.dim, self.BATCH):
                cut = slice(start, start + self.BATCH)
                many_rows(op.compiled, basis.locate, basis.states[cut], basis.source_scale[cut])
        states = tele.metrics.counter_total("kernel.state_info_states")
        assert states == tail.metrics.counter_total("kernel.state_info_states")
        assert (states == 0) == (covered == basis.dim)

    def test_a_recording_that_raises_leaves_no_record(
        self, sector, rng, monkeypatch
    ):
        """A recording product that fails part-way leaves no record: the
        next product records afresh, the one after folds, and the plan ends
        whole."""
        expr, basis = sector
        op = repro.Operator(expr, basis, batch_size=self.BATCH)
        cold = repro.Operator(expr, basis, batch_size=self.BATCH, plan=False)
        x = random_vector(basis, rng)
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("kernel failed")
            return many_rows(*args)

        monkeypatch.setattr(operator_module, "many_rows", failing)
        with pytest.raises(RuntimeError, match="kernel failed"):
            op.matvec(x)
        assert op._record is None and op.plan.n_entries == 0
        monkeypatch.undo()
        self.assert_equal(op.matvec(x), cold.matvec(x))
        assert op._record[-1] == basis.dim and op.plan.n_entries == 0
        for _ in range(2):  # fold, replay
            self.assert_equal(op.matvec(x), cold.matvec(x))
        assert op.plan.n_entries == 1
        assert op.plan.peek(("matrix",))[1] == basis.dim


class TestOneBuilder:
    @given(
        n_rows=st.integers(min_value=0, max_value=40),
        n_columns=st.integers(min_value=1, max_value=40),
        sizes=st.lists(st.integers(min_value=0, max_value=90), max_size=12),
        run_elements=st.sampled_from([0, 50, 2**19]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(n_rows=30, n_columns=7, sizes=[], run_elements=0, seed=0)
    @example(n_rows=30, n_columns=7, sizes=[1], run_elements=0, seed=0)
    @example(n_rows=30, n_columns=7, sizes=[1] * 12, run_elements=0, seed=1)
    @example(n_rows=30, n_columns=7, sizes=[5, 0, 80, 3, 3, 31], run_elements=0, seed=2)
    @example(n_rows=30, n_columns=7, sizes=[5, 0, 80, 3, 3, 31], run_elements=2**19, seed=2)
    @settings(max_examples=60, deadline=None)
    def test_csr_of_the_concatenated_triples(
        self, n_rows, n_columns, sizes, run_elements, seed
    ):
        """The matrix is the stable CSR of the triples one after the other,
        and ``M @ x`` adds what one ``np.add.at`` per triple adds.  Fewer
        than ``max(n_rows, RUN_ELEMENTS)`` elements are one COO -> CSR
        pass; more are joined into runs of at least ``n_rows`` elements,
        so no triple shorter than that pays a counting pass over every
        row."""
        rng = np.random.default_rng(seed)
        sizes = sizes if n_rows else [0] * len(sizes)
        triples = [
            (
                rng.integers(0, max(n_rows, 1), size),
                rng.integers(0, n_columns, size),
                rng.standard_normal(size),
            )
            for size in sizes
        ]
        passes, tocsr = [], sp.coo_matrix.tocsr
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(plan_module, "RUN_ELEMENTS", run_elements)
            patch.setattr(
                sp.coo_matrix, "tocsr",
                lambda *args, **kwargs: passes.append(1) or tocsr(*args, **kwargs),
            )
            matrix = csr_in_recorded_order(
                (n_rows, n_columns), np.float64,
                (rows for rows, _, _ in triples), iter(triples),
            )
        rows, columns, data = (
            np.concatenate([np.empty(0, dtype=kind)] + [t[i] for t in triples])
            for i, kind in enumerate((np.int64, np.int64, np.float64))
        )
        order = np.argsort(rows, kind="stable")
        counts = np.bincount(rows, minlength=n_rows)
        np.testing.assert_array_equal(matrix.indptr, np.r_[0, np.cumsum(counts)])
        np.testing.assert_array_equal(matrix.indices, columns[order])
        np.testing.assert_array_equal(matrix.data, data[order])
        x, y = rng.standard_normal(n_columns), np.zeros(n_rows)
        for triple_rows, triple_columns, values in triples:
            np.add.at(y, triple_rows, values * x[triple_columns])
        np.testing.assert_array_equal(matrix @ x, y)
        if 0 < sum(sizes) < max(n_rows, run_elements):
            assert len(passes) == 1
        else:
            assert not n_rows or len(passes) <= sum(sizes) // n_rows + 1


class TestPlanCachePolicy:
    def test_lru_eviction_under_tiny_budget(self, basis, expr, rng, plan_budget):
        with plan_budget(1):
            op = repro.Operator(expr, basis)
        x = random_vector(basis, rng)
        y_first = op.matvec(x)
        # Every batch is turned away, yet results stay correct.
        np.testing.assert_array_equal(op.matvec(x), y_first)
        assert op.plan.nbytes <= 1

    @staticmethod
    def partial(make_op, x, share, plan_budget, warm=5):
        """A plan of ``share`` of the recording's bytes: what it admits on
        the first matvec it keeps, and each warm matvec hits exactly that.
        (Evicting the least recently used entry threw out, on a cyclic
        scan, the very entry needed next: no hit at all.)"""
        cold = make_op(plan=False).matvec(x)
        probe = make_op(plan=True)
        probe.matvec(x)
        made = [k for k in probe.plan._entries if "replay" in k or "matrix" in k]
        for key in made:
            probe.plan.pop(key)  # on ``sim``: the record and matrices it made
        keys, recorded = probe.plan.n_entries, probe.plan.nbytes
        with plan_budget(int(share * recorded)):
            op = make_op(plan=True)
        tele = telemetry.Telemetry.enabled(trace=False)
        with telemetry.use(tele):
            results = [op.matvec(x) for _ in range(1 + warm)]
        held = op.plan.n_entries
        assert 0 < held < keys and op.plan.nbytes <= share * recorded
        metrics = tele.metrics
        assert metrics.counter_total("plan.hits") == held * warm
        assert metrics.counter_total("plan.misses") == keys + (keys - held) * warm
        assert metrics.counter_total("plan.rejected") == (keys - held) * (1 + warm)
        return cold, results

    @pytest.mark.parametrize("share", [0.9, 0.5, 0.25])
    def test_partial_budget_admits_and_hits_serial(self, share, rng, plan_budget):
        """A plan of ``share`` of the off-diagonal record's bytes: the
        record holds the diagonal and a leading run of the batches, the
        next product folds it into the matrix, and each warm product hits
        it (one lookup) and generates the rest."""
        # chain-20: dim 2518, ten batches of 256
        basis = SymmetricBasis(chain_symmetries(20, 0, 0, 0), hamming_weight=10)
        expr = repro.heisenberg_chain(20)
        x = rng.standard_normal(basis.dim)

        def make(plan):
            return repro.Operator(expr, basis, batch_size=256, plan=plan)

        cold = make(False).matvec(x)
        probe = make(True)
        probe.matvec(x)
        sizes = batch_sizes(probe)
        recorded = 16 * sum(sizes)
        probe.matvec(x)
        whole = probe.plan.nbytes
        with plan_budget(int(share * recorded)):
            op = make(True)
        tele = telemetry.Telemetry.enabled(trace=False)
        with telemetry.use(tele):
            results = [op.matvec(x)]
            reached = op._record[-1]
            results += [op.matvec(x) for _ in range(5)]
        matrix, covered = op.plan.peek(("matrix",))
        assert covered == reached and 0 < covered
        assert covered == op.dim or covered % 256 == 0
        assert op.plan.n_entries == 1 and op.plan.nbytes <= share * recorded
        assert matrix.nnz == op.dim + sum(sizes[: -(-covered // 256)])
        # the whole matrix once the budget holds it, else a leading run
        assert (covered == op.dim) == (whole <= share * recorded)
        metrics = tele.metrics
        assert metrics.counter_total("plan.misses") == 2
        assert metrics.counter_total("plan.hits") == 4
        for y in results:
            np.testing.assert_array_equal(y, cold)

    @pytest.mark.parametrize("share", [0.9, 0.5])
    def test_partial_budget_admits_and_hits_pc_on_sim(self, share, plan_budget):
        group = chain_symmetries(16, momentum=0, parity=0, inversion=0)
        template = SymmetricBasis(group, hamming_weight=8, build=False)
        cluster = Cluster(4, laptop_machine(cores=4))
        dbasis, _ = enumerate_states(cluster, template, use_weight_shortcut=True)
        expr = repro.heisenberg_chain(16)
        x = DistributedVector.full_random(dbasis, seed=7)
        cold, results = self.partial(
            lambda plan: DistributedOperator(
                expr, dbasis, method="pc", batch_size=16, plan=plan
            ),
            x, share, plan_budget,
        )
        for y in results:
            for part, cold_part in zip(y.parts, cold.parts):
                np.testing.assert_array_equal(part, cold_part)

    def test_oversized_entry_rejected(self, plan_budget):
        with plan_budget(8):
            plan = MatvecPlan()
        plan.put("big", (np.zeros(100),))
        assert "big" not in plan
        assert plan.n_entries == 0

    def test_default_budget_positive(self):
        if os.path.exists("/proc/meminfo"):
            assert plan_module.available_memory() > 0
            assert MatvecPlan().capacity_bytes > 0

    @pytest.mark.parametrize(
        "arguments",
        [{"plan": 1}, {"plan": "yes"}, {"plan": None}, {"plan": MatvecPlan}],
        ids=["{'plan': 1}", "{'plan': 'yes'}", "{'plan': None}", "{'plan': MatvecPlan()}"],
    )
    def test_typed_arguments(self, basis, expr, arguments):
        """A plan argument that is not a bool is a ConfigError (``plan=1``
        was an AttributeError from ``claim``); a ``MatvecPlan`` is one
        too, serial or distributed: an operator makes its own."""
        if arguments["plan"] is MatvecPlan:
            arguments = {"plan": MatvecPlan()}
            dbasis, _ = enumerate_states(
                Cluster(2, laptop_machine(cores=2)),
                SymmetricBasis(basis.group, hamming_weight=6, build=False),
            )
            with pytest.raises(ConfigError, match="plan must be True or False"):
                DistributedOperator(expr, dbasis, **arguments)
        with pytest.raises(ConfigError, match="plan must be True or False"):
            repro.Operator(expr, basis, **arguments)


class TestMeasuredBudget:
    """A plan's budget is :data:`PLAN_MEMORY_SHARE` of the host's available
    memory, read once when the plan is made.  (A budget below the matrix
    keeps a partial plan: ``TestPlanCachePolicy``'s partial-budget tests.)"""

    def test_read_at_creation_only(self, basis, expr, rng, monkeypatch):
        """A budget above the records: one reading, at creation; the
        recording product and the folding one read nothing, and the plan
        ends as one matrix."""
        readings = []
        monkeypatch.setattr(
            plan_module, "available_memory", lambda: readings.append(1) or 2**32
        )
        op = repro.Operator(expr, basis)
        assert readings == [1]
        assert op.plan.capacity_bytes == int(2**32 * plan_module.PLAN_MEMORY_SHARE)
        x = random_vector(basis, rng)
        recorded = op.matvec(x)
        assert op.plan.n_entries == 0 and op._record[-1] == op.dim
        np.testing.assert_array_equal(op.matvec(x), recorded)
        assert readings == [1] and op.plan.n_entries == 1 and ("matrix",) in op.plan

    def test_a_host_that_reports_no_memory_plans_nothing(
        self, basis, expr, rng, monkeypatch
    ):
        """Without ``/proc/meminfo`` the reading is 0: the plan's budget is
        0, its one entry holds no matrix and no byte, and every product
        equals ``plan=False``."""

        def no_meminfo(*args, **kwargs):
            raise FileNotFoundError("/proc/meminfo")

        monkeypatch.setattr(plan_module, "open", no_meminfo, raising=False)
        assert plan_module.available_memory() == 0
        op = repro.Operator(expr, basis)
        assert op.plan.capacity_bytes == 0
        x = random_vector(basis, rng)
        cold = repro.Operator(expr, basis, plan=False).matvec(x)
        for _ in range(3):
            np.testing.assert_array_equal(op.matvec(x), cold)
        assert op.plan.n_entries == 1 and op.plan.nbytes == 0
        assert op.plan.peek(("matrix",)) == (None, 0)


class TestDistributedPlan:
    @pytest.mark.parametrize("method", ["naive", "batched", "pc"])
    @pytest.mark.parametrize("n_locales", [1, 3])
    def test_warm_matches_cold_and_serial(
        self, basis, expr, rng, method, n_locales
    ):
        group = chain_symmetries(12, momentum=0, parity=0, inversion=0)
        template = SymmetricBasis(group, hamming_weight=6, build=False)
        cluster = Cluster(n_locales, laptop_machine(cores=4))
        dbasis, _ = enumerate_states(cluster, template, chunks_per_core=3)
        serial_op = repro.Operator(expr, basis, plan=False)
        dop = DistributedOperator(expr, dbasis, method=method)
        for _ in range(2):  # cold pass populates the plan, warm replays it
            x = random_vector(basis, rng)
            dx = DistributedVector.from_serial(dbasis, basis, x)
            np.testing.assert_allclose(
                dop.matvec(dx).to_serial(basis),
                serial_op.matvec(x),
                atol=1e-12,
            )
        assert dop.plan.n_entries > 0
        dop.invalidate_plan()
        assert dop.plan.n_entries == 0

    def test_distributed_plan_hits_counted(self, basis, expr, rng):
        group = chain_symmetries(12, momentum=0, parity=0, inversion=0)
        template = SymmetricBasis(group, hamming_weight=6, build=False)
        cluster = Cluster(2, laptop_machine(cores=4))
        dbasis, _ = enumerate_states(cluster, template, chunks_per_core=3)
        dop = DistributedOperator(expr, dbasis, method="batched")
        x = random_vector(basis, rng)
        dx = DistributedVector.from_serial(dbasis, basis, x)
        tele = telemetry.Telemetry.enabled(trace=False)
        with telemetry.use(tele):
            dop.matvec(dx)
            assert tele.metrics.counter_total("plan.hits") == 0
            dop.matvec(dx)
        assert tele.metrics.counter_total("plan.hits") > 0


class TestAsMatvec:
    def test_operator_is_unwrapped(self, basis, expr, rng):
        op = repro.Operator(expr, basis)
        mv = as_matvec(op)
        assert mv == op.matvec
        x = random_vector(basis, rng)
        np.testing.assert_array_equal(mv(x), op.matvec(x))

    def test_plain_callable_passes_through(self):
        f = lambda x: x  # noqa: E731
        assert as_matvec(f) is f

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError):
            as_matvec(42)


class TestEmptyBasisRanker:
    def test_sorted_ranker_empty_basis_raises_basis_error(self):
        from repro.basis.ranking import SortedRanker
        from repro.errors import BasisError

        ranker = SortedRanker(np.empty(0, dtype=np.uint64))
        with pytest.raises(BasisError, match="empty"):
            ranker.rank(np.array([3], dtype=np.uint64))
        assert ranker.rank(np.empty(0, dtype=np.uint64)).size == 0
        idx, found = ranker.try_rank(np.array([3], dtype=np.uint64))
        assert not found.any()
