"""Tests for the Krylov-iteration-invariant matvec plan cache.

A :class:`~repro.operators.plan.MatvecPlan` memoizes the symmetry-resolved
``(sources, rows, amplitudes)`` triples of each matvec batch, so repeated
products (every Krylov iteration after the first) skip ``get_many_rows``
and ``stateToIndex`` entirely.  Caching must be *invisible*: results are
bit-for-bit reproducible with the plan on, off, and after invalidation,
for the serial operator and all three distributed variants.
"""

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
from repro.operators import MatvecPlan
from repro.operators.plan import csr_in_recorded_order
from repro.runtime import Cluster, laptop_machine
from repro.symmetry import chain_symmetries


@pytest.fixture
def basis():
    group = chain_symmetries(12, momentum=0, parity=0, inversion=0)
    return SymmetricBasis(group, hamming_weight=6)


@pytest.fixture
def expr():
    return repro.heisenberg_chain(12)


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
        op = repro.Operator(expr, basis)
        tele = telemetry.Telemetry.enabled(trace=False)
        with telemetry.use(tele):
            x = random_vector(basis, rng)
            op.matvec(x)
            misses = tele.metrics.counter_total("plan.misses")
            op.matvec(x)
        assert misses > 0
        assert tele.metrics.counter_total("plan.hits") == misses
        assert tele.metrics.counter_total("plan.misses") == misses

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

    def test_shared_plan_instance(self, basis, expr, rng):
        plan = MatvecPlan()
        op = repro.Operator(expr, basis, plan=plan)
        assert op.plan is plan
        op.matvec(random_vector(basis, rng))
        assert plan.n_entries > 0


class TestSerialBatchRule:
    """``Operator(batch_size=None)`` sizes the batch from the operator's
    row density; the plan holds one entry per batch."""

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

    def test_one_entry_per_batch_and_bitwise_replay(
        self, wide_basis, wide_expr, rng
    ):
        op = repro.Operator(wide_expr, wide_basis)
        x = rng.standard_normal(op.dim)
        y_recorded = op.matvec(x)
        assert op.plan.n_entries == -(-op.dim // op.batch_size) == 3
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
    """The first replay that finds every batch in the plan folds them into
    one CSR matrix in recorded order: bit-for-bit the recording pass on
    real arithmetic, 1e-14 relative on complex."""

    @pytest.fixture(scope="class")
    def sector(self):
        # Real, no magnetization constraint: the two polarized states emit
        # nothing (empty batches at batch_size=1) and symmetry-related
        # images collide on one (row, source) pair (duplicates).
        basis = SymmetricBasis(
            chain_symmetries(10, 0, 0, None), hamming_weight=None
        )
        return repro.heisenberg_chain(10), basis

    @staticmethod
    def batch_keys(op):
        return [(start,) for start in range(0, op.dim, op.batch_size)]

    @pytest.mark.parametrize("batch_size", [1, 7, None, 78])
    def test_replay_is_the_recording_pass_bit_for_bit(
        self, sector, rng, batch_size
    ):
        expr, basis = sector
        op = repro.Operator(expr, basis, batch_size=batch_size)
        cold = repro.Operator(expr, basis, batch_size=batch_size, plan=False)
        x = rng.standard_normal(op.dim)
        recorded = op.matvec(x)
        keys = self.batch_keys(op)
        chunks = [op.plan.get(key) for key in keys]
        assert op.plan.n_entries == len(keys) == -(-op.dim // op.batch_size)
        if batch_size == 1:
            assert any(chunk[0].size == 0 for chunk in chunks)
        pairs = [
            pair
            for chunk in chunks
            for pair in zip(chunk[0].tolist(), chunk[1].tolist())
        ]
        assert len(set(pairs)) < len(pairs)
        assert op.plan.nbytes == 16 * len(pairs)  # 32-bit positions
        for _ in range(2):  # the consolidating replay, then a plain one
            np.testing.assert_array_equal(op.matvec(x), recorded)
            assert op.plan.n_entries == 1
        np.testing.assert_array_equal(cold.matvec(x), recorded)
        # the matrix is accounted at its real size: duplicates kept, the
        # diagonal in, 12 B per element plus the row pointers
        matrix = op.plan.get(("matrix",))
        assert matrix.nnz == op.dim + len(pairs)
        assert op.plan.nbytes == 12 * matrix.nnz + 4 * (op.dim + 1)
        op.invalidate_plan()
        assert op.plan.n_entries == 0
        np.testing.assert_array_equal(op.matvec(x), recorded)
        assert all(key in op.plan for key in keys)
        assert op.plan.n_entries == len(keys)

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
        self, sector, rng
    ):
        expr, basis = sector
        full = repro.Operator(expr, basis, batch_size=7)
        x = rng.standard_normal(full.dim)
        recorded = full.matvec(x)
        budget = full.plan.nbytes - 1
        op = repro.Operator(
            expr, basis, batch_size=7, plan=MatvecPlan(capacity_bytes=budget)
        )
        for _ in range(3):
            np.testing.assert_array_equal(op.matvec(x), recorded)
            assert ("matrix",) not in op.plan
            assert 0 < op.plan.n_entries < len(self.batch_keys(op))

    def test_room_for_the_batches_but_not_for_the_matrix(self, rng):
        # One bond on 12 sites: 0.27 off-diagonal elements per row, so the
        # matrix (a diagonal element and a row pointer for every row) is
        # larger than the batches.  The batches have to stay and replay.
        basis = SpinBasis(12, hamming_weight=6)
        expr = repro.spin_plus(0) * repro.spin_minus(1)
        expr = expr + repro.spin_minus(0) * repro.spin_plus(1)
        probe = repro.Operator(expr, basis, batch_size=100)
        x = rng.standard_normal(probe.dim)
        recorded = probe.matvec(x)
        budget = probe.plan.nbytes
        nnz = budget // 16
        assert 0 < nnz < 4 * probe.dim
        assert 12 * (nnz + probe.dim) + 4 * (probe.dim + 1) > budget
        op = repro.Operator(
            expr, basis, batch_size=100, plan=MatvecPlan(capacity_bytes=budget)
        )
        keys = self.batch_keys(op)
        tele = telemetry.Telemetry.enabled(trace=False)
        with telemetry.use(tele):
            for _ in range(4):
                np.testing.assert_array_equal(op.matvec(x), recorded)
                assert ("matrix",) not in op.plan
                assert op.plan.n_entries == len(keys)
                assert op.plan.nbytes == budget
        # one recording pass, three per-batch replays, nothing turned away
        assert tele.metrics.counter_total("plan.misses") == len(keys)
        assert tele.metrics.counter_total("plan.hits") == 3 * len(keys)
        assert tele.metrics.counter_total("plan.rejected") == 0
        # one more byte of room is not enough either; room for the matrix is
        for capacity, consolidated in [
            (budget + 1, False),
            (12 * (nnz + op.dim) + 4 * (op.dim + 1), True),
        ]:
            op = repro.Operator(
                expr, basis, batch_size=100, plan=MatvecPlan(capacity_bytes=capacity)
            )
            for _ in range(3):
                np.testing.assert_array_equal(op.matvec(x), recorded)
            assert (("matrix",) in op.plan) == consolidated

    def test_pop_keeps_the_bytes_gauge_current(self):
        plan = MatvecPlan(capacity_bytes=1000)
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
    def test_lru_eviction_under_tiny_budget(self, basis, expr, rng):
        op = repro.Operator(expr, basis, plan=MatvecPlan(capacity_bytes=1))
        x = random_vector(basis, rng)
        y_first = op.matvec(x)
        # Every batch is turned away, yet results stay correct.
        np.testing.assert_array_equal(op.matvec(x), y_first)
        assert op.plan.nbytes <= 1

    @staticmethod
    def partial(make_op, x, share, warm=5):
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
        op = make_op(plan=MatvecPlan(capacity_bytes=int(share * recorded)))
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
    def test_partial_budget_admits_and_hits_serial(self, share, rng):
        # chain-20: dim 2518, ten batches of 256
        basis = SymmetricBasis(chain_symmetries(20, 0, 0, 0), hamming_weight=10)
        expr = repro.heisenberg_chain(20)
        x = rng.standard_normal(basis.dim)
        cold, results = self.partial(
            lambda plan: repro.Operator(expr, basis, batch_size=256, plan=plan),
            x, share,
        )
        for y in results:
            np.testing.assert_array_equal(y, cold)

    @pytest.mark.parametrize("share", [0.9, 0.5])
    def test_partial_budget_admits_and_hits_pc_on_sim(self, share):
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
            x, share,
        )
        for y in results:
            for part, cold_part in zip(y.parts, cold.parts):
                np.testing.assert_array_equal(part, cold_part)

    def test_oversized_entry_rejected(self):
        plan = MatvecPlan(capacity_bytes=8)
        plan.put("big", (np.zeros(100),))
        assert "big" not in plan
        assert plan.n_entries == 0

    def test_default_budget_positive(self):
        from repro.perfmodel.capacity import plan_cache_budget

        assert MatvecPlan().capacity_bytes == plan_cache_budget()
        assert plan_cache_budget() > 0

    @pytest.mark.parametrize(
        "arguments",
        [
            {"capacity_bytes": float("nan")},
            {"capacity_bytes": "10"},
            {"capacity_bytes": -1},
            {"capacity_bytes": 2.5},
            {"capacity_bytes": True},
            {"plan": 1},
            {"plan": "yes"},
            {"plan": None},
        ],
        ids=repr,
    )
    def test_typed_arguments(self, basis, expr, arguments):
        """A plan argument of the wrong type or range is a ConfigError (a
        NaN budget was a raw ValueError, ``"10"`` and ``-1`` were accepted,
        ``plan=1`` an AttributeError from ``claim``)."""
        with pytest.raises(ConfigError, match=next(iter(arguments))):
            if "plan" in arguments:
                repro.Operator(expr, basis, **arguments)
            else:
                MatvecPlan(**arguments)
        assert MatvecPlan(capacity_bytes=np.int64(0)).capacity_bytes == 0


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
