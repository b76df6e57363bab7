"""Tests for the block (multi-RHS) matvec engine.

The tentpole contract: ``matvec`` over a ``(dim, k)`` block must agree with
``k`` column-by-column single-vector matvecs to ``<= 1e-12`` — for the
serial operator and all three distributed variants, with symmetry-adapted
bases, under an active :class:`~repro.operators.plan.MatvecPlan`, and
across dtype promotion (a plan recorded with a real ``x`` replayed with a
complex one).  The surrounding machinery is covered too: the linear-time
counting-sort partition, the ``wire_bytes`` traffic model, cached
``ProducedChunk.rows`` reuse, and the block adoption in FTLM.
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
from repro.distributed.convert import counting_sort_order
from repro.distributed.dist_basis import DistributedBasis
from repro.distributed.matvec_common import wire_bytes
from repro.errors import DistributionError
from repro.linalg import ftlm_thermal, lanczos
from repro.linalg.spaces import apply_block
from repro.runtime import Cluster, laptop_machine
from repro.symmetry import chain_symmetries

N_SITES = 12


@pytest.fixture
def basis():
    group = chain_symmetries(N_SITES, momentum=0, parity=0, inversion=0)
    return SymmetricBasis(group, hamming_weight=N_SITES // 2)


@pytest.fixture
def expr():
    return repro.heisenberg_chain(N_SITES)


def make_distributed(n_locales, backend="sim"):
    group = chain_symmetries(N_SITES, momentum=0, parity=0, inversion=0)
    template = SymmetricBasis(
        group, hamming_weight=N_SITES // 2, build=False
    )
    cluster = Cluster(n_locales, laptop_machine(cores=4), backend=backend)
    dbasis, _ = enumerate_states(cluster, template, chunks_per_core=3)
    return dbasis


def random_block(basis, rng, k, dtype=None):
    dtype = np.dtype(basis.scalar_dtype if dtype is None else dtype)
    block = rng.standard_normal((basis.dim, k))
    if dtype.kind == "c":
        block = block + 1j * rng.standard_normal((basis.dim, k))
    return block.astype(dtype)


class TestCountingSortOrder:
    @pytest.mark.parametrize("n_keys", [1, 2, 3, 16, 64])
    def test_matches_stable_argsort(self, rng, n_keys):
        keys = rng.integers(0, n_keys, size=1000)
        order, starts = counting_sort_order(keys, n_keys)
        np.testing.assert_array_equal(
            order, np.argsort(keys, kind="stable")
        )
        np.testing.assert_array_equal(
            np.diff(starts), np.bincount(keys, minlength=n_keys)
        )

    def test_empty_and_single_bucket(self):
        order, starts = counting_sort_order(np.empty(0, dtype=np.int64), 4)
        assert order.size == 0 and starts[-1] == 0
        # One occupied bucket takes the identity shortcut.
        order, starts = counting_sort_order(np.full(10, 2), 4)
        np.testing.assert_array_equal(order, np.arange(10))
        assert starts[2] == 0 and starts[3] == 10


class TestWireBytes:
    def test_single_vector_is_the_classic_pair(self):
        assert wire_bytes(1, 1) == wire_bytes(1) == 16
        assert wire_bytes(100) == 1600

    def test_block_amortizes_the_key_bytes(self):
        n = 1000
        for k in (2, 4, 8):
            assert wire_bytes(n, k) < k * wire_bytes(n, 1)
            assert wire_bytes(n, k) == n * (8 + 8 * k)


class TestSerialBlock:
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_block_matches_looped(self, basis, expr, rng, k):
        op = repro.Operator(expr, basis, plan=True)
        block = random_block(basis, rng, k)
        looped = np.stack(
            [op.matvec(block[:, j]) for j in range(k)], axis=1
        )
        cold = op.matvec(block)
        warm = op.matvec(block)  # replayed from the plan
        np.testing.assert_allclose(cold, looped, atol=1e-12)
        np.testing.assert_allclose(warm, looped, atol=1e-12)

    def test_block_on_plain_basis(self, rng):
        basis = SpinBasis(8, hamming_weight=4)
        op = repro.Operator(repro.heisenberg_chain(8), basis)
        block = random_block(basis, rng, 4)
        looped = np.stack(
            [op.matvec(block[:, j]) for j in range(4)], axis=1
        )
        np.testing.assert_allclose(op.matvec(block), looped, atol=1e-12)

    def test_plan_recorded_real_replayed_complex(self, basis, expr, rng):
        op = repro.Operator(expr, basis, plan=True)
        op.matvec(random_block(basis, rng, 1)[:, 0])  # record with real x
        xc = random_block(basis, rng, 1, dtype=np.complex128)[:, 0]
        yc = op.matvec(xc)
        assert yc.dtype == np.complex128
        reference = repro.Operator(expr, basis, plan=False).matvec(xc)
        np.testing.assert_allclose(yc, reference, atol=1e-12)
        bc = random_block(basis, rng, 3, dtype=np.complex128)
        yb = op.matvec(bc)
        assert yb.dtype == np.complex128
        for j in range(3):
            np.testing.assert_allclose(
                yb[:, j],
                repro.Operator(expr, basis, plan=False).matvec(bc[:, j]),
                atol=1e-12,
            )

    def test_shape_validation(self, basis, expr):
        op = repro.Operator(expr, basis)
        with pytest.raises(ValueError):
            op.matvec(np.zeros(basis.dim + 1))
        with pytest.raises(ValueError):
            op.matvec(np.zeros((basis.dim, 2, 2)))

    def test_matmul_and_linear_operator_accept_blocks(
        self, basis, expr, rng
    ):
        op = repro.Operator(expr, basis)
        block = random_block(basis, rng, 2)
        np.testing.assert_allclose(
            op @ block, op.matvec(block), atol=1e-12
        )
        np.testing.assert_allclose(
            op.as_linear_operator() @ block, op.matvec(block), atol=1e-12
        )

    def test_block_width_telemetry(self, basis, expr, rng):
        """A block of any width is one pass of the kernels: the first
        product of a 5-column block counts the same kernel states and plan
        misses as that of a single column."""
        counts = []
        for width in (5, 1):
            tele = telemetry.Telemetry.enabled(trace=False)
            with telemetry.use(tele):
                repro.Operator(expr, basis).matvec(random_block(basis, rng, width))
            snapshot = tele.metrics.snapshot()
            counts.append({
                name: snapshot.counter_total(name)
                for name in ("kernel.state_info_states", "plan.misses")
            })
        assert counts[0] == counts[1]
        assert all(counts[0].values()), counts


class TestDistributedBlock:
    @pytest.mark.parametrize(
        "method, backend",
        [("naive", "sim"), ("batched", "sim"), ("pc", "sim"), ("pc", "threads")],
    )
    def test_zero_columns_give_the_empty_block(
        self, basis, expr, method, backend
    ):
        # Used to run the whole product, then divide by k = 0.
        assert repro.Operator(expr, basis).matvec(
            np.zeros((basis.dim, 0))
        ).shape == (basis.dim, 0)
        dbasis = make_distributed(3, backend)
        dop = DistributedOperator(expr, dbasis, method=method)
        dx = DistributedVector.full_random(dbasis, columns=0)
        for _ in range(3):  # record, fold on threads, replay
            y = dop.matvec(dx)
            assert y.columns == 0
            assert y.to_serial(basis).shape == (basis.dim, 0)
        assert dop.last_report.extras["block_width"] == 0.0

    @pytest.mark.parametrize("method", ["naive", "batched", "pc"])
    @pytest.mark.parametrize("n_locales", [1, 3])
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_block_matches_looped(
        self, basis, expr, rng, method, n_locales, k
    ):
        dbasis = make_distributed(n_locales)
        dop = DistributedOperator(expr, dbasis, method=method)
        block = random_block(basis, rng, k)
        # Looped singles populate the plan; the block then replays it.
        looped = np.stack(
            [
                dop.matvec(
                    DistributedVector.from_serial(
                        dbasis, basis, block[:, j]
                    )
                ).to_serial(basis)
                for j in range(k)
            ],
            axis=1,
        )
        dx = DistributedVector.from_serial(dbasis, basis, block)
        assert dx.columns == k
        warm = dop.matvec(dx)
        np.testing.assert_allclose(
            warm.to_serial(basis), looped, atol=1e-12
        )
        assert warm.columns == k
        assert dop.last_report.extras["block_width"] == float(k)
        # A cold block pass (fresh plan) must agree too.
        dop.invalidate_plan()
        cold = dop.matvec(DistributedVector.from_serial(dbasis, basis, block))
        np.testing.assert_allclose(
            cold.to_serial(basis), looped, atol=1e-12
        )

    @pytest.mark.parametrize("method", ["naive", "batched", "pc"])
    def test_plan_recorded_real_replayed_complex(
        self, basis, expr, rng, method
    ):
        dbasis = make_distributed(3)
        dop = DistributedOperator(expr, dbasis, method=method)
        x = random_block(basis, rng, 1)[:, 0]
        dop.matvec(DistributedVector.from_serial(dbasis, basis, x))
        serial = repro.Operator(expr, basis, plan=False)
        xc = random_block(basis, rng, 1, dtype=np.complex128)[:, 0]
        yc = dop.matvec(DistributedVector.from_serial(dbasis, basis, xc))
        assert yc.dtype == np.complex128
        np.testing.assert_allclose(
            yc.to_serial(basis), serial.matvec(xc), atol=1e-12
        )
        bc = random_block(basis, rng, 3, dtype=np.complex128)
        yb = dop.matvec(DistributedVector.from_serial(dbasis, basis, bc))
        assert yb.dtype == np.complex128
        for j in range(3):
            np.testing.assert_allclose(
                yb.to_serial(basis)[:, j],
                serial.matvec(bc[:, j]),
                atol=1e-12,
            )

    def test_block_simulated_bytes_beat_singles(self, basis, expr, rng):
        dbasis = make_distributed(3)
        k = 8
        block = random_block(basis, rng, k)
        dop = DistributedOperator(expr, dbasis, method="batched")
        singles_bytes = 0
        for j in range(k):
            dop.matvec(
                DistributedVector.from_serial(dbasis, basis, block[:, j])
            )
            singles_bytes += dop.last_report.bytes_sent
        dop.matvec(DistributedVector.from_serial(dbasis, basis, block))
        block_bytes = dop.last_report.bytes_sent
        assert block_bytes < singles_bytes
        assert dop.last_report.extras["seconds_per_column"] * k == (
            pytest.approx(dop.last_report.elapsed)
        )

    def test_consumer_rows_cached_across_matvecs(self, basis, expr, rng):
        """Warm matvecs must not re-run stateToIndex: ProducedChunk.rows
        holds the ranked indices after the first (cold) pass."""
        dbasis = make_distributed(3)
        batch = 8
        dop = DistributedOperator(
            expr, dbasis, method="batched", batch_size=batch
        )
        dop.matvec(
            DistributedVector.from_serial(
                dbasis, basis, random_block(basis, rng, 1)[:, 0]
            )
        )
        chunks = [
            dop.plan.get((locale, start))
            for locale in range(dbasis.n_locales)
            for start in range(0, int(dbasis.counts[locale]), batch)
        ]
        assert len(chunks) > dbasis.n_locales
        calls = {"n": 0}
        original = DistributedBasis.index_local

        def counting(self, locale, betas):
            calls["n"] += 1
            return original(self, locale, betas)

        DistributedBasis.index_local = counting
        try:
            for chunk in chunks:
                assert chunk.rows is not None
                assert np.all(chunk.rows >= 0)  # filled by the cold pass
            dop.matvec(
                DistributedVector.from_serial(
                    dbasis, basis, random_block(basis, rng, 3)
                )
            )
        finally:
            DistributedBasis.index_local = original
        assert calls["n"] == 0


class TestDistributedVectorBlocks:
    def test_serial_roundtrip(self, basis, rng):
        dbasis = make_distributed(3)
        block = random_block(basis, rng, 4)
        dv = DistributedVector.from_serial(dbasis, basis, block)
        assert dv.columns == 4 and dv.n_columns == 4
        np.testing.assert_array_equal(dv.to_serial(basis), block)

    def test_constructors(self):
        dbasis = make_distributed(3)
        z = DistributedVector.zeros(dbasis, columns=3)
        assert z.columns == 3
        assert all(p.shape == (int(c), 3) for p, c in zip(z.parts, dbasis.counts))
        r = DistributedVector.full_random(dbasis, seed=7, columns=2)
        assert r.columns == 2
        single = DistributedVector.zeros(dbasis)
        assert single.columns is None and single.n_columns == 1

    def test_inconsistent_parts_rejected(self):
        dbasis = make_distributed(3)
        parts = [
            np.zeros((int(c), 2)) for c in dbasis.counts
        ]
        parts[1] = np.zeros((int(dbasis.counts[1]), 3))
        with pytest.raises(DistributionError):
            DistributedVector(dbasis, parts)


class TestApplyBlock:
    def test_block_capable_operator_called_once(self, basis, expr, rng):
        calls = {"n": 0}
        op = repro.Operator(expr, basis)

        def mv(x):
            calls["n"] += 1
            return op.matvec(x)

        block = random_block(basis, rng, 4)
        out = apply_block(mv, block)
        assert calls["n"] == 1
        looped = np.stack(
            [op.matvec(block[:, j]) for j in range(4)], axis=1
        )
        np.testing.assert_allclose(out, looped, atol=1e-12)

    def test_strict_1d_callable_falls_back(self, rng):
        mat = rng.standard_normal((20, 20))
        mat = mat + mat.T

        def strict(x):
            if np.asarray(x).ndim != 1:
                raise ValueError("1-D only")
            return mat @ x

        block = rng.standard_normal((20, 3))
        np.testing.assert_allclose(
            apply_block(strict, block), mat @ block, atol=1e-12
        )

    def test_wrong_shape_result_falls_back(self, rng):
        # A callable that "succeeds" on 2-D input but returns the wrong
        # shape (e.g. ravels) must be driven column by column instead.
        mat = np.diag(np.arange(1.0, 6.0))
        looped = {"n": 0}

        def sloppy(x):
            x = np.asarray(x)
            if x.ndim == 2:
                return (mat @ x).ravel()
            looped["n"] += 1
            return mat @ x

        block = rng.standard_normal((5, 2))
        np.testing.assert_allclose(
            apply_block(sloppy, block), mat @ block, atol=1e-12
        )
        assert looped["n"] == 2


class TestBlockAdoption:
    def test_ftlm_blocked_matches_sequential(self, basis, expr):
        op = repro.Operator(expr, basis)
        temperatures = np.array([0.5, 1.0, 2.0])
        sequential = ftlm_thermal(
            op, np.zeros(basis.dim), temperatures,
            krylov_dim=20, n_samples=6, seed=3, block_size=1,
        )
        blocked = ftlm_thermal(
            op, np.zeros(basis.dim), temperatures,
            krylov_dim=20, n_samples=6, seed=3, block_size=4,
        )
        np.testing.assert_allclose(
            blocked.energy, sequential.energy, rtol=1e-8
        )
        np.testing.assert_allclose(
            blocked.specific_heat, sequential.specific_heat, rtol=1e-6,
            atol=1e-10,
        )

    def test_lanczos_single_vector_path_unchanged(self, basis, expr, rng):
        op = repro.Operator(expr, basis)
        v0 = rng.standard_normal(basis.dim)
        res = lanczos(op, v0, k=1, tol=1e-12)
        dense = np.linalg.eigvalsh(op.to_dense())
        np.testing.assert_allclose(
            res.eigenvalues[0], dense[0], atol=1e-9
        )
