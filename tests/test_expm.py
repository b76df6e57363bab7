"""Tests for the Krylov propagator."""

import numpy as np
import pytest
import scipy.linalg as sla

import repro
from repro.basis import SymmetricBasis
from repro.linalg import expm_krylov
from repro.symmetry import chain_symmetries


@pytest.fixture
def operator():
    group = chain_symmetries(12, momentum=0, parity=0, inversion=0)
    basis = SymmetricBasis(group, hamming_weight=6)
    return repro.Operator(repro.heisenberg_chain(12), basis)


class TestRealTimeEvolution:
    def test_matches_dense_expm(self, operator, rng):
        h = operator.to_dense()
        x = rng.standard_normal(operator.dim)
        x /= np.linalg.norm(x)
        y = expm_krylov(operator.matvec, x, scale=-0.4j, krylov_dim=40)
        y_ref = sla.expm(-0.4j * h) @ x
        assert np.allclose(y, y_ref, atol=1e-9)

    def test_unitary_preserves_norm(self, operator, rng):
        x = rng.standard_normal(operator.dim)
        y = expm_krylov(operator.matvec, x, scale=-1.0j, krylov_dim=40)
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), rel=1e-9)

    def test_zero_time_is_identity(self, operator, rng):
        x = rng.standard_normal(operator.dim)
        y = expm_krylov(operator.matvec, x, scale=0.0, krylov_dim=10)
        assert np.allclose(y, x, atol=1e-12)

    def test_composition_property(self, operator, rng):
        # exp(-i t H) applied twice equals exp(-2 i t H).
        x = rng.standard_normal(operator.dim)
        x /= np.linalg.norm(x)
        one = expm_krylov(operator.matvec, x, scale=-0.2j, krylov_dim=40)
        two = expm_krylov(operator.matvec, one, scale=-0.2j, krylov_dim=40)
        direct = expm_krylov(operator.matvec, x, scale=-0.4j, krylov_dim=40)
        assert np.allclose(two, direct, atol=1e-8)


class TestImaginaryTimeEvolution:
    def test_projects_to_ground_state(self, operator, rng):
        evals, evecs = np.linalg.eigh(operator.to_dense())
        ground = evecs[:, 0]
        x = rng.standard_normal(operator.dim)
        x /= np.linalg.norm(x)
        y = x
        for _ in range(6):
            y = expm_krylov(operator.matvec, y, scale=-2.0, krylov_dim=30)
            y = y / np.linalg.norm(y)
        overlap = abs(np.dot(ground, y))
        assert overlap > 1 - 1e-8

    def test_real_scale_keeps_real_dtype(self, operator, rng):
        x = rng.standard_normal(operator.dim)
        y = expm_krylov(operator.matvec, x, scale=-0.5, krylov_dim=20)
        assert not np.iscomplexobj(y)

    def test_complex_scale_promotes_dtype(self, operator, rng):
        x = rng.standard_normal(operator.dim)
        y = expm_krylov(operator.matvec, x, scale=-0.5j, krylov_dim=20)
        assert np.iscomplexobj(y)


class TestEdgeCases:
    def test_zero_vector_passthrough(self, operator):
        x = np.zeros(operator.dim)
        y = expm_krylov(operator.matvec, x, scale=-1.0j)
        assert np.allclose(y, 0.0)

    def test_eigenvector_gets_phase(self, operator):
        evals, evecs = np.linalg.eigh(operator.to_dense())
        v = evecs[:, 0]
        y = expm_krylov(operator.matvec, v, scale=-0.7j, krylov_dim=20)
        assert np.allclose(y, np.exp(-0.7j * evals[0]) * v, atol=1e-9)

    def test_small_krylov_dim_still_accurate_short_time(self, operator, rng):
        h = operator.to_dense()
        x = rng.standard_normal(operator.dim)
        x /= np.linalg.norm(x)
        y = expm_krylov(operator.matvec, x, scale=-0.01j, krylov_dim=8)
        y_ref = sla.expm(-0.01j * h) @ x
        assert np.allclose(y, y_ref, atol=1e-10)

    def test_krylov_dim_beyond_the_sector_dimension(self, rng):
        # dim 35 < krylov_dim: the basis stops growing at the dimension.
        basis = SymmetricBasis(chain_symmetries(12, momentum=0), hamming_weight=6)
        op = repro.Operator(repro.heisenberg_chain(12), basis)
        x = rng.standard_normal(op.dim)
        y = expm_krylov(op.matvec, x, scale=-0.9j, krylov_dim=100)
        assert np.allclose(y, sla.expm(-0.9j * op.to_dense()) @ x, atol=1e-12)
