"""Tests for the finite-temperature Lanczos method."""

from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.basis import SpinBasis, SymmetricBasis
from repro.errors import ConfigError
from repro.linalg import ftlm_thermal
from repro.linalg.ftlm import _spectrum
from repro.linalg.lanczos import tridiagonalize
from repro.linalg.spaces import NumpyVectorSpace
from repro.symmetry import chain_symmetries


@pytest.fixture(scope="module")
def small_system():
    basis = SpinBasis(8, hamming_weight=4)
    op = repro.Operator(repro.heisenberg_chain(8), basis)
    evals = np.linalg.eigvalsh(op.to_dense())
    return basis, op, evals


def exact_energy(evals, t):
    boltz = np.exp(-(evals - evals.min()) / t)
    return float((evals * boltz).sum() / boltz.sum())


def exact_specific_heat(evals, t):
    boltz = np.exp(-(evals - evals.min()) / t)
    e = (evals * boltz).sum() / boltz.sum()
    e2 = (evals**2 * boltz).sum() / boltz.sum()
    return float((e2 - e**2) / t**2)


class TestAgainstExactThermal:
    def test_energy_across_temperatures(self, small_system):
        basis, op, evals = small_system
        ts = np.array([0.25, 0.5, 1.0, 2.0, 10.0])
        est = ftlm_thermal(
            op.matvec,
            np.zeros(basis.dim),
            ts,
            krylov_dim=60,
            n_samples=60,
            seed=0,
        )
        for i, t in enumerate(ts):
            assert est.energy[i] == pytest.approx(
                exact_energy(evals, t), abs=0.12
            )

    def test_specific_heat_shape(self, small_system):
        basis, op, evals = small_system
        ts = np.linspace(0.2, 3.0, 12)
        est = ftlm_thermal(
            op.matvec,
            np.zeros(basis.dim),
            ts,
            krylov_dim=60,
            n_samples=60,
            seed=1,
        )
        exact = np.array([exact_specific_heat(evals, t) for t in ts])
        # the specific-heat peak position must match within a grid step
        assert abs(
            ts[np.argmax(est.specific_heat)] - ts[np.argmax(exact)]
        ) <= (ts[1] - ts[0]) + 1e-12

    def test_partition_function_high_temperature(self, small_system):
        # As T -> inf, Z -> dim.
        basis, op, _ = small_system
        est = ftlm_thermal(
            op.matvec,
            np.zeros(basis.dim),
            np.array([1000.0]),
            krylov_dim=40,
            n_samples=40,
            seed=2,
        )
        assert est.partition_function[0] == pytest.approx(basis.dim, rel=0.1)

    def test_low_temperature_limit_is_ground_state(self, small_system):
        basis, op, evals = small_system
        est = ftlm_thermal(
            op.matvec,
            np.zeros(basis.dim),
            np.array([0.02]),
            krylov_dim=60,
            n_samples=20,
            seed=3,
        )
        assert est.energy[0] == pytest.approx(evals[0], abs=1e-3)


class TestKrylovSpaceExhausted:
    """A sector smaller than ``krylov_dim``: ordinary in a loop over momenta.
    The factorization has to stop at the sector's dimension instead of
    carrying on with normalized rounding noise."""

    @pytest.fixture(scope="class")
    def sector(self):
        basis = SymmetricBasis(chain_symmetries(12, momentum=0), hamming_weight=6)
        op = repro.Operator(repro.heisenberg_chain(12), basis)
        return op, np.linalg.eigvalsh(op.to_dense())

    @pytest.mark.parametrize("krylov_dim", [36, 60, 100])
    def test_ritz_values_are_the_spectrum(self, sector, rng, krylov_dim):
        op, evals = sector
        assert op.dim == 35
        v0 = rng.standard_normal(op.dim)
        [(alphas, betas, _)] = tridiagonalize(
            op.matvec, NumpyVectorSpace(), [v0], [np.linalg.norm(v0)], krylov_dim
        )
        ritz, weights, final_beta = _spectrum(alphas, betas)
        assert ritz.size <= op.dim
        assert ritz.min() == pytest.approx(evals[0], abs=1e-10)
        assert ritz.max() <= evals[-1] + 1e-10
        assert weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert final_beta <= 1e-12

    @pytest.mark.parametrize("krylov_dim", [60, 100])
    def test_thermal_energy_independent_of_krylov_dim(self, sector, krylov_dim):
        op, evals = sector
        temperatures = np.array([0.2, 1.0])
        kwargs = dict(n_samples=10, seed=0)  # one at a time: ``op`` has a plan
        full = ftlm_thermal(
            op, np.zeros(op.dim), temperatures, krylov_dim=op.dim, **kwargs
        )
        est = ftlm_thermal(
            op, np.zeros(op.dim), temperatures, krylov_dim=krylov_dim, **kwargs
        )
        assert np.all(np.isfinite(est.partition_function))
        assert est.energy == pytest.approx(full.energy, abs=1e-9)
        assert est.energy[0] == pytest.approx(exact_energy(evals, 0.2), abs=0.05)


class TestInterface:
    @pytest.mark.parametrize(
        "argument, value",
        [("n_samples", 2.5), ("krylov_dim", 2.5)],
    )
    def test_rejects_a_bad_count_before_the_first_product(
        self, argument, value
    ):
        """``n_samples=2.5`` raised ``TypeError``."""
        calls = []
        diag = np.linspace(-1.0, 1.0, 8)
        matvec = lambda v: calls.append(v) or diag * v  # noqa: E731
        with pytest.raises(ConfigError, match=rf"^{argument} must be"):
            ftlm_thermal(matvec, np.ones(8), [1.0], **{argument: value})
        assert not calls

    def test_rejects_nonpositive_temperature(self, small_system):
        basis, op, _ = small_system
        with pytest.raises(ConfigError):
            ftlm_thermal(op.matvec, np.zeros(basis.dim), np.array([0.0]))

    def test_deterministic_with_seed(self, small_system):
        basis, op, _ = small_system
        kwargs = dict(krylov_dim=20, n_samples=5, seed=7)
        a = ftlm_thermal(
            op.matvec, np.zeros(basis.dim), np.array([1.0]), **kwargs
        )
        b = ftlm_thermal(
            op.matvec, np.zeros(basis.dim), np.array([1.0]), **kwargs
        )
        assert a.energy[0] == b.energy[0]

    def test_metadata(self, small_system):
        basis, op, _ = small_system
        est = ftlm_thermal(
            op.matvec,
            np.zeros(basis.dim),
            np.array([1.0]),
            krylov_dim=15,
            n_samples=3,
        )
        assert est.krylov_dim == 15
        assert est.n_samples == 3


@pytest.mark.parametrize("n", [12, 14])
@pytest.mark.parametrize("krylov_dim", [20, 60])
def test_ftlm_blocked_matches_sequential(n, krylov_dim):
    """Lock-step samples run the one recurrence, so blocking is invisible:
    the same bits as one sample at a time, breakdown included (chain-12's
    sector has dimension 35 < 60).  The operator has no plan, so its
    samples go in one block of 7; the same products behind an object that
    holds a plan with a budget go one at a time."""
    basis = SymmetricBasis(chain_symmetries(n, 0), hamming_weight=n // 2)
    op = repro.Operator(repro.heisenberg_chain(n), basis, plan=False)
    temperatures = np.array([0.1, 0.5, 2.0])
    kwargs = dict(krylov_dim=krylov_dim, n_samples=7, seed=4)
    one_at_a_time = SimpleNamespace(
        matvec=op.matvec, plan=SimpleNamespace(capacity_bytes=1)
    )
    sequential, blocked = [
        ftlm_thermal(matvec, np.zeros(op.dim), temperatures, **kwargs)
        for matvec in (one_at_a_time, op)
    ]
    np.testing.assert_array_equal(blocked.energy, sequential.energy)
    np.testing.assert_array_equal(
        blocked.specific_heat, sequential.specific_heat
    )
    np.testing.assert_array_equal(
        blocked.partition_function, sequential.partition_function
    )


@pytest.mark.parametrize("plan", [True, False])
def test_block_width_follows_the_plan(plan):
    """On NumPy vectors an operator with a plan gets single-vector
    products (a replayed plan is faster one vector at a time), one
    without gets blocks of ``min(n_samples, 8)`` samples."""
    basis = SymmetricBasis(chain_symmetries(12, 0), hamming_weight=6)
    op = repro.Operator(repro.heisenberg_chain(12), basis, plan=plan)
    widths = []
    product = op.matvec
    op.matvec = lambda x: widths.append(1 if x.ndim == 1 else x.shape[1]) or product(x)
    ftlm_thermal(op, np.zeros(op.dim), [1.0], krylov_dim=10, n_samples=12, seed=0)
    assert set(widths) == ({1} if plan else {8, 4})


def test_a_plan_without_a_budget_gets_blocks(plan_budget):
    """A plan whose budget is 0 holds nothing and regenerates every
    product, as ``plan=False`` does: its samples go in blocks too, with the
    same bits as the unplanned run."""
    basis = SymmetricBasis(chain_symmetries(12, 0), hamming_weight=6)
    expression = repro.heisenberg_chain(12)
    with plan_budget(0):
        planned = repro.Operator(expression, basis)
    assert planned.plan.capacity_bytes == 0
    widths = []
    product = planned.matvec
    planned.matvec = lambda x: widths.append(1 if x.ndim == 1 else x.shape[1]) or product(x)
    temperatures = np.array([0.1, 0.5, 2.0])
    kwargs = dict(krylov_dim=10, n_samples=12, seed=0)
    zero_budget, unplanned = [
        ftlm_thermal(op, np.zeros(basis.dim), temperatures, **kwargs)
        for op in (planned, repro.Operator(expression, basis, plan=False))
    ]
    assert set(widths) == {8, 4}
    np.testing.assert_array_equal(zero_budget.energy, unplanned.energy)
    np.testing.assert_array_equal(
        zero_budget.specific_heat, unplanned.specific_heat
    )
