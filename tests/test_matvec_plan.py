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

import repro
from repro import telemetry
from repro.basis import SpinBasis, SymmetricBasis
from repro.distributed import (
    DistributedOperator,
    DistributedVector,
    enumerate_states,
)
from repro.linalg import as_matvec, lanczos
from repro.operators import MatvecPlan
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
        # a block replays through the one (dim, dim) scatter, twice alike
        block = rng.standard_normal((op.dim, 4))
        first, second = op.matvec(block), op.matvec(block)
        np.testing.assert_allclose(second, first, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(
            first, cold.to_sparse() @ block, rtol=1e-12, atol=1e-12
        )


class TestPlanCachePolicy:
    def test_lru_eviction_under_tiny_budget(self, basis, expr, rng):
        op = repro.Operator(expr, basis, plan=MatvecPlan(capacity_bytes=1))
        x = random_vector(basis, rng)
        y_first = op.matvec(x)
        # Every batch is rejected or evicted, yet results stay correct.
        np.testing.assert_array_equal(op.matvec(x), y_first)
        assert op.plan.nbytes <= 1

    def test_eviction_order_is_lru(self):
        plan = MatvecPlan(capacity_bytes=3 * 240)  # room for three entries
        a = (np.zeros(10), np.zeros(10, dtype=np.int64), np.zeros(10))
        for key in ("a", "b", "c"):
            plan.put(key, a)
        assert plan.get("a") is not None  # refresh "a"
        plan.put("d", a)  # evicts "b", the least recently used
        assert "b" not in plan
        assert "a" in plan and "c" in plan and "d" in plan

    def test_oversized_entry_rejected(self):
        plan = MatvecPlan(capacity_bytes=8)
        plan.put("big", (np.zeros(100),))
        assert "big" not in plan
        assert plan.n_entries == 0

    def test_default_budget_positive(self):
        from repro.perfmodel.capacity import plan_cache_budget

        assert MatvecPlan().capacity_bytes == plan_cache_budget()
        assert plan_cache_budget() > 0


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
