"""Tests for dynamical spectral functions."""

import numpy as np
import pytest

import repro
from repro.basis import SpinBasis, SymmetricBasis
from repro.linalg import spectral_function
from repro.symmetry import chain_symmetries


@pytest.fixture(scope="module")
def system():
    n = 10
    basis = SpinBasis(n, hamming_weight=5)
    op = repro.Operator(repro.heisenberg_chain(n), basis)
    h = op.to_dense()
    evals, evecs = np.linalg.eigh(h)
    return n, basis, op, evals, evecs


def staggered_sz(n):
    expr = repro.Expression()
    for i in range(n):
        expr = expr + ((-1) ** i / np.sqrt(n)) * repro.spin_z(i)
    return expr


class TestAgainstDenseDecomposition:
    def test_sum_rule(self, system):
        n, basis, op, evals, evecs = system
        gs = evecs[:, 0]
        probe = repro.Operator(staggered_sz(n), basis)
        seed = probe.matvec(gs)
        sf = spectral_function(op.matvec, seed, ground_energy=evals[0])
        static = float(gs @ (probe.to_dense() @ probe.to_dense()) @ gs)
        assert sf.total_weight == pytest.approx(static, abs=1e-10)

    def test_poles_and_weights_match_exact(self, system):
        n, basis, op, evals, evecs = system
        gs = evecs[:, 0]
        probe = repro.Operator(staggered_sz(n), basis)
        seed = probe.matvec(gs)
        sf = spectral_function(
            op.matvec, seed, ground_energy=evals[0], krylov_dim=120
        )
        amps = np.abs(evecs.T @ (probe.to_dense() @ gs)) ** 2
        mask = amps > 1e-10
        # Exact poles may be degenerate; compare broadened curves instead
        # of matching poles one-to-one.
        omega = np.linspace(-0.5, 6.0, 400)
        eta = 0.08
        exact = (
            eta / np.pi / ((omega[:, None] - (evals[mask] - evals[0])) ** 2 + eta**2)
        ) @ amps[mask]
        assert np.allclose(sf(omega, eta), exact, atol=1e-6)

    def test_first_moment(self, system):
        # f-sum-rule style check: first moment equals <0|A [H,A]|0> variant,
        # evaluated here directly from the dense decomposition.
        n, basis, op, evals, evecs = system
        gs = evecs[:, 0]
        probe = repro.Operator(staggered_sz(n), basis)
        seed = probe.matvec(gs)
        sf = spectral_function(op.matvec, seed, ground_energy=evals[0])
        amps = np.abs(evecs.T @ (probe.to_dense() @ gs)) ** 2
        exact_m1 = float((amps * (evals - evals[0])).sum())
        m1 = float((sf.weights * sf.poles).sum())
        assert m1 == pytest.approx(exact_m1, abs=1e-9)

    def test_poles_nonnegative_from_ground_state(self, system):
        n, basis, op, evals, evecs = system
        gs = evecs[:, 0]
        probe = repro.Operator(staggered_sz(n), basis)
        sf = spectral_function(
            op.matvec, probe.matvec(gs), ground_energy=evals[0]
        )
        assert np.all(sf.poles > -1e-9)


class TestInSymmetrySector:
    def test_sector_spectral_function(self):
        # Probe with the symmetrized bond operator inside the k=0 sector.
        n = 12
        group = chain_symmetries(n, momentum=0, parity=0, inversion=0)
        basis = SymmetricBasis(group, hamming_weight=6)
        op = repro.Operator(repro.heisenberg_chain(n), basis)
        evals, evecs = np.linalg.eigh(op.to_dense())
        probe_expr = repro.symmetrize_expression(
            repro.spin_z(0) * repro.spin_z(1), group
        )
        probe = repro.Operator(probe_expr, basis)
        gs = evecs[:, 0]
        sf = spectral_function(op.matvec, probe.matvec(gs), ground_energy=evals[0])
        static = float(gs @ probe.to_dense() @ probe.to_dense() @ gs)
        assert sf.total_weight == pytest.approx(static, abs=1e-10)

    def test_krylov_dim_beyond_the_sector_dimension(self, rng):
        # dim 35 < krylov_dim: the recurrence must stop when the Krylov
        # space is exhausted, not continue on rounding noise.
        basis = SymmetricBasis(chain_symmetries(12, momentum=0), hamming_weight=6)
        op = repro.Operator(repro.heisenberg_chain(12), basis)
        evals, evecs = np.linalg.eigh(op.to_dense())
        seed = rng.standard_normal(op.dim)
        sf = spectral_function(op.matvec, seed, krylov_dim=100)
        assert sf.poles.size <= op.dim
        assert sf.poles.min() >= evals[0] - 1e-10
        assert sf.poles.max() <= evals[-1] + 1e-10
        assert sf.total_weight == pytest.approx(seed @ seed, rel=1e-12)
        # First moment: sum_j w_j E_j = <seed|H|seed>.
        moment = float(sf.weights @ sf.poles)
        assert moment == pytest.approx(seed @ op.matvec(seed), abs=1e-9)


class TestInterface:
    def test_zero_seed(self, system):
        _, basis, op, _, _ = system
        sf = spectral_function(op.matvec, np.zeros(basis.dim))
        assert sf.poles.size == 0
        assert np.allclose(sf(np.linspace(0, 1, 5)), 0.0)

    def test_broadening_must_be_positive(self, system):
        n, basis, op, evals, evecs = system
        probe = repro.Operator(staggered_sz(n), basis)
        sf = spectral_function(op.matvec, probe.matvec(evecs[:, 0]))
        with pytest.raises(ValueError):
            sf(np.array([0.0]), broadening=0.0)

    def test_eigenvector_seed_single_pole(self, system):
        _, basis, op, evals, evecs = system
        sf = spectral_function(op.matvec, 2.0 * evecs[:, 3])
        assert sf.poles.size == 1
        assert sf.poles[0] == pytest.approx(evals[3], abs=1e-9)
        assert sf.weights[0] == pytest.approx(4.0, abs=1e-9)
