"""A Hamiltonian's imaginary coefficients survive a real-character basis.

``get_many_rows`` used to end by keeping only the real part of the
amplitudes whenever the *basis* had real characters; amplitudes are complex
there only when the *operator* is, so ``i S+_0 S-_1 - i S-_0 S+_1`` acted
as zero on ``SpinBasis(4)`` and a chain with couplings ``0.3 +- 0.7i`` lost
its imaginary half in the ``k = 0`` sector.  Every path is checked against
a dense oracle that never goes through ``get_many_rows``.
"""

import warnings

import numpy as np
import pytest
from numpy.exceptions import ComplexWarning

import repro
from repro.baselines import SpinpackBasis, SpinpackOperator
from repro.basis import SpinBasis, SymmetricBasis
from repro.distributed import (
    DistributedOperator,
    DistributedVector,
    enumerate_states,
)
from repro.errors import CompilationError, ConfigError
from repro.linalg.lanczos import lanczos, lanczos_distributed
from repro.operators.expression import (
    Expression,
    sigma_x,
    spin_minus,
    spin_plus,
)
from repro.operators.matrix import expression_to_dense
from repro.operators.operator import MATRIX_KEY
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

    def test_batch_replay_without_consolidation(self, k0_basis, plan_budget):
        expression = current_chain()
        oracle = projected_dense(expression, k0_basis)
        probe = repro.Operator(expression, k0_basis, batch_size=7)
        x = complex_vector(probe.dim)
        probe.matvec(x)
        probe.matvec(x)
        # A byte short of the whole matrix: the record and its fold take
        # the first batch, the product generates the second.
        with plan_budget(probe.plan.nbytes - 1):
            op = repro.Operator(expression, k0_basis, batch_size=7)
        for _ in range(3):
            np.testing.assert_allclose(op.matvec(x), oracle @ x, atol=1e-14)
        assert op.plan.n_entries == 1 and op.plan.peek(MATRIX_KEY)[1] == 7 < op.dim

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


def fixed_weight_oracle(expression, basis: SpinBasis) -> np.ndarray:
    rows = basis.states.astype(np.int64)
    return expression_to_dense(expression, basis.n_sites)[np.ix_(rows, rows)]


def distributed(backend: str, n_locales: int):
    """``SpinBasis(N, N // 2)`` on ``n_locales`` locales, and its serial
    twin: a real basis, so only the operator makes ``H x`` complex."""
    cluster = Cluster(n_locales, laptop_machine(cores=2), backend=backend)
    dbasis, _ = enumerate_states(cluster, SpinBasis(N, hamming_weight=N // 2))
    return SpinBasis(N, hamming_weight=N // 2), dbasis


PATHS = [
    ("naive", "sim", 3),
    ("batched", "sim", 3),
    ("pc", "sim", 3),
    ("pc", "sim", 1),
    ("pc", "threads", 3),
    ("pc", "threads", 1),
]


class TestRealInputToAComplexOperator:
    """A real ``x`` through a complex operator on a real basis: ``y`` is
    complex on every path (the result dtype is the operator's promoted
    with the input's, not the basis's), and a real ``y`` cannot hold it."""

    @pytest.mark.parametrize("method, backend, n_locales", PATHS)
    def test_every_distributed_path_matches_the_oracle(
        self, method, backend, n_locales
    ):
        serial, dbasis = distributed(backend, n_locales)
        oracle = fixed_weight_oracle(current_chain(), serial)
        op = DistributedOperator(
            current_chain(), dbasis, method=method, batch_size=8
        )
        assert op.dtype == np.complex128
        rng = np.random.default_rng(3)
        single, block = rng.standard_normal(serial.dim), rng.standard_normal(
            (serial.dim, 3)
        )
        # Cold, then the replay; the first block on the complete plan
        # replays its chunks (on sim), the second one the record.
        with warnings.catch_warnings():
            warnings.simplefilter("error", ComplexWarning)
            for x in (single, single, block, block):
                y = op.matvec(DistributedVector.from_serial(dbasis, serial, x))
                assert y.dtype == np.complex128
                np.testing.assert_allclose(
                    y.to_serial(serial), oracle @ x, atol=1e-13
                )

    @pytest.mark.parametrize("backend", ["sim", "threads"])
    def test_lanczos_distributed_finds_the_dense_ground_state(self, backend):
        serial, dbasis = distributed(backend, 3)
        oracle = fixed_weight_oracle(current_chain(), serial)
        op = DistributedOperator(current_chain(), dbasis, batch_size=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ComplexWarning)
            result, _ = lanczos_distributed(op, k=1, tol=1e-12)
        assert result.eigenvalues[0] == pytest.approx(
            np.linalg.eigvalsh(oracle)[0], abs=1e-10
        )


class TestSpinpackTakesTheSameRules:
    @staticmethod
    def spinpack_basis():
        serial = SpinBasis(N, hamming_weight=N // 2)
        return serial, SpinpackBasis.from_serial(
            Cluster(3, laptop_machine(cores=2)), serial
        )

    def test_real_input_gives_the_complex_product(self):
        serial, basis = self.spinpack_basis()
        oracle = fixed_weight_oracle(current_chain(), serial)
        op = SpinpackOperator(current_chain(), basis, batch_size=8)
        x = np.random.default_rng(4).standard_normal(serial.dim)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ComplexWarning)
            y, _ = op.matvec(basis.vector_from_serial(serial, x))
        assert y.dtype == np.complex128
        np.testing.assert_allclose(
            basis.vector_to_serial(serial, y), oracle @ x, atol=1e-13
        )

    def test_an_operator_outside_the_sector_is_refused(self):
        _, basis = self.spinpack_basis()
        with pytest.raises(CompilationError, match="magnetization"):
            SpinpackOperator(sigma_x(0), basis)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_is_refused(self, batch_size):
        _, basis = self.spinpack_basis()
        with pytest.raises(ConfigError, match="batch_size"):
            SpinpackOperator(current_chain(), basis, batch_size=batch_size)
