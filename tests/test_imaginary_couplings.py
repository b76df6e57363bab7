"""A Hamiltonian's imaginary coefficients survive a real-character basis.

``get_many_rows`` used to end by keeping only the real part of the
amplitudes whenever the *basis* had real characters; amplitudes are complex
there only when the *operator* is, so ``i S+_0 S-_1 - i S-_0 S+_1`` acted
as zero on ``SpinBasis(4)`` and a chain with couplings ``0.3 +- 0.7i`` lost
its imaginary half in the ``k = 0`` sector.  Every path is checked against
a dense oracle that never goes through ``get_many_rows``.
"""

import numpy as np
import pytest

import repro
from repro.basis import SpinBasis, SymmetricBasis
from repro.distributed import (
    DistributedOperator,
    DistributedVector,
    enumerate_states,
)
from repro.linalg.lanczos import lanczos
from repro.operators.expression import Expression, spin_minus, spin_plus
from repro.operators.matrix import expression_to_dense
from repro.operators.operator import MATRIX_KEY
from repro.operators.plan import MatvecPlan
from repro.runtime import Cluster, laptop_machine
from repro.symmetry import SymmetryGroup, translation

N = 8


def current_chain(n: int = N, coupling: complex = 0.3 + 0.7j):
    """``sum_i c S+_i S-_{i+1} + h.c.``: Hermitian, translation invariant,
    magnetization conserving, and not real."""
    bonds = [spin_plus(i) * spin_minus((i + 1) % n) for i in range(n)]
    return sum(
        (coupling * bond + np.conj(coupling) * bond.adjoint() for bond in bonds),
        start=Expression(),
    )


def projected_dense(expression, basis: SymmetricBasis) -> np.ndarray:
    """``V^+ H V`` with the columns of ``V`` the normalized sector
    projections ``P|r>`` of the representatives, in the full space."""
    group, n = basis.group, basis.n_sites
    v = np.zeros((1 << n, basis.dim), dtype=np.complex128)
    for i in range(len(group)):
        images = group.apply_element(i, basis.states).astype(np.int64)
        np.add.at(
            v, (images, np.arange(basis.dim)), np.conj(group.characters[i])
        )
    v /= np.linalg.norm(v, axis=0)
    return v.conj().T @ expression_to_dense(expression, n) @ v


def complex_vector(dim: int, seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


@pytest.fixture(scope="module")
def k0_basis() -> SymmetricBasis:
    group = SymmetryGroup.from_generators([translation(N, 0)])
    assert group.is_real
    return SymmetricBasis(group, hamming_weight=N // 2)


class TestPlainBasis:
    def test_two_site_current_is_not_zero(self):
        expression = 1j * spin_plus(0) * spin_minus(1) - 1j * spin_minus(
            0
        ) * spin_plus(1)
        op = repro.Operator(expression, SpinBasis(4))
        oracle = expression_to_dense(expression, 4)
        assert op.dtype == np.complex128
        np.testing.assert_allclose(op.to_dense(), oracle, atol=1e-15)
        x = complex_vector(op.dim)
        assert np.abs(oracle @ x).max() > 1.0
        np.testing.assert_allclose(op.matvec(x), oracle @ x, atol=1e-14)

    def test_fixed_weight(self):
        expression = current_chain()
        basis = SpinBasis(N, hamming_weight=N // 2)
        rows = basis.states.astype(np.int64)
        oracle = expression_to_dense(expression, N)[np.ix_(rows, rows)]
        op = repro.Operator(expression, basis)
        x = complex_vector(op.dim)
        np.testing.assert_allclose(op.matvec(x), oracle @ x, atol=1e-14)
        np.testing.assert_allclose(op.to_sparse().toarray(), oracle, atol=1e-15)


class TestRealCharacterSector:
    def test_dense_keeps_the_imaginary_part(self, k0_basis):
        expression = current_chain()
        oracle = projected_dense(expression, k0_basis)
        assert np.abs(oracle.imag).max() > 1.0
        op = repro.Operator(expression, k0_basis)
        np.testing.assert_allclose(op.to_dense(), oracle, atol=1e-14)

    @pytest.mark.parametrize("plan", [False, True], ids=["cold", "planned"])
    def test_cold_recorded_and_consolidated(self, k0_basis, plan):
        expression = current_chain()
        oracle = projected_dense(expression, k0_basis)
        op = repro.Operator(expression, k0_basis, batch_size=7, plan=plan)
        x = complex_vector(op.dim)
        # With a plan: the recording pass, then the consolidated matrix.
        for _ in range(3):
            np.testing.assert_allclose(op.matvec(x), oracle @ x, atol=1e-14)

    def test_batch_replay_without_consolidation(self, k0_basis):
        expression = current_chain()
        oracle = projected_dense(expression, k0_basis)
        probe = repro.Operator(expression, k0_basis, batch_size=7)
        x = complex_vector(probe.dim)
        probe.matvec(x)
        # Room for the batches and not for the matrix (diagonal and row
        # pointers on top of them): they stay and are replayed.
        plan = MatvecPlan(capacity_bytes=probe.plan.nbytes)
        op = repro.Operator(expression, k0_basis, batch_size=7, plan=plan)
        for _ in range(3):
            np.testing.assert_allclose(op.matvec(x), oracle @ x, atol=1e-14)
        assert MATRIX_KEY not in plan and plan.n_entries == 2

    def test_lanczos_finds_the_oracle_ground_state(self, k0_basis):
        expression = current_chain()
        oracle = projected_dense(expression, k0_basis)
        op = repro.Operator(expression, k0_basis)
        result = lanczos(op.matvec, complex_vector(op.dim), k=1, tol=1e-12)
        assert result.eigenvalues[0] == pytest.approx(
            np.linalg.eigvalsh(oracle)[0], abs=1e-10
        )

    def test_distributed_pc_on_sim(self, k0_basis):
        expression = current_chain()
        oracle = projected_dense(expression, k0_basis)
        cluster = Cluster(3, laptop_machine(cores=2))
        template = SymmetricBasis(
            k0_basis.group, hamming_weight=N // 2, build=False
        )
        dbasis, _ = enumerate_states(cluster, template)
        op = DistributedOperator(expression, dbasis, method="pc", batch_size=8)
        x = complex_vector(k0_basis.dim)
        dx = DistributedVector.from_serial(dbasis, k0_basis, x)
        for _ in range(2):  # generating pass, replay
            y = op.matvec(dx).to_serial(k0_basis)
            np.testing.assert_allclose(y, oracle @ x, atol=1e-14)
