"""Tests for the block Davidson eigensolver."""

import numpy as np
import pytest

import repro
from repro.basis import SpinBasis, SymmetricBasis
from repro.errors import ConfigError, ConvergenceError
from repro.linalg import davidson, lanczos
from repro.symmetry import chain_symmetries


@pytest.fixture(scope="module")
def operator():
    basis = SpinBasis(12, hamming_weight=6)
    return repro.Operator(repro.heisenberg_chain(12), basis)


@pytest.fixture(scope="module")
def dense_spectrum(operator):
    return np.linalg.eigvalsh(operator.to_dense())


class TestCorrectness:
    def test_lowest_eigenvalue(self, operator, dense_spectrum):
        res = davidson(operator.matvec, operator.diagonal(), k=1, tol=1e-10)
        assert res.converged
        assert res.eigenvalues[0] == pytest.approx(dense_spectrum[0], abs=1e-8)

    def test_block_of_five(self, operator, dense_spectrum):
        res = davidson(operator.matvec, operator.diagonal(), k=5, tol=1e-9)
        assert np.allclose(res.eigenvalues, dense_spectrum[:5], atol=1e-7)

    def test_resolves_exact_degeneracy(self, operator, dense_spectrum):
        # The 12-site chain's U(1) spectrum has an exact 2-fold degeneracy
        # among the lowest five levels (momentum +-k pairs).  A single
        # Lanczos run cannot produce both copies; block Davidson can.
        assert dense_spectrum[3] == pytest.approx(dense_spectrum[4], abs=1e-10)
        res = davidson(operator.matvec, operator.diagonal(), k=5, tol=1e-9)
        assert res.eigenvalues[3] == pytest.approx(res.eigenvalues[4], abs=1e-7)

    def test_lanczos_misses_degenerate_copy(self, operator, dense_spectrum):
        # Documented limitation that motivates the block solver: Lanczos
        # from one vector returns only one Ritz value per degenerate pair,
        # so its 5th value differs from the true 5th eigenvalue.
        res = lanczos(
            operator.matvec,
            np.random.default_rng(0).standard_normal(operator.dim),
            k=5,
            tol=1e-10,
            max_iter=300,
        )
        assert res.eigenvalues[4] != pytest.approx(dense_spectrum[4], abs=1e-6)

    def test_eigenvectors_residuals(self, operator):
        res = davidson(operator.matvec, operator.diagonal(), k=3, tol=1e-9)
        for j in range(3):
            vec = res.eigenvectors[:, j]
            r = operator.matvec(vec) - res.eigenvalues[j] * vec
            assert np.linalg.norm(r) < 1e-7

    def test_eigenvectors_orthonormal(self, operator):
        res = davidson(operator.matvec, operator.diagonal(), k=4, tol=1e-9)
        v = res.eigenvectors
        assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-8)

    def test_complex_sector(self):
        group = chain_symmetries(10, momentum=2, parity=None, inversion=None)
        basis = SymmetricBasis(group, hamming_weight=5)
        op = repro.Operator(repro.heisenberg_chain(10), basis)
        ref = np.linalg.eigvalsh(op.to_dense())[:2]
        res = davidson(op.matvec, op.diagonal(), k=2, tol=1e-9)
        assert np.allclose(res.eigenvalues, ref, atol=1e-7)

    def test_restart_path(self, operator, dense_spectrum):
        # Force frequent restarts with a tiny subspace cap.
        res = davidson(
            operator.matvec,
            operator.diagonal(),
            k=2,
            tol=1e-8,
            max_subspace=6,
            max_iter=400,
        )
        assert np.allclose(res.eigenvalues, dense_spectrum[:2], atol=1e-6)


class TestInterface:
    def test_explicit_starting_block(self, operator, dense_spectrum):
        rng = np.random.default_rng(5)
        v0 = rng.standard_normal((operator.dim, 4))
        res = davidson(operator.matvec, operator.diagonal(), k=2, v0=v0)
        assert np.allclose(res.eigenvalues, dense_spectrum[:2], atol=1e-7)

    def test_one_dim_start_vector_promoted(self, operator):
        v0 = np.random.default_rng(0).standard_normal(operator.dim)
        res = davidson(operator.matvec, operator.diagonal(), k=1, v0=v0)
        assert res.converged

    def test_too_narrow_block_rejected(self, operator):
        v0 = np.random.default_rng(0).standard_normal((operator.dim, 1))
        with pytest.raises(ValueError):
            davidson(operator.matvec, operator.diagonal(), k=2, v0=v0)

    def test_bad_k_rejected(self, operator):
        with pytest.raises(ConfigError):
            davidson(operator.matvec, operator.diagonal(), k=0)

    @pytest.mark.parametrize(
        "argument, value",
        [
            ("k", 2.5),
            ("k", 9),
            ("max_iter", 0),
            ("tol", np.nan),
            ("tol", -1.0),
            ("checkpoint_every", 0),
            ("checkpoint_every", -1),
            ("checkpoint_keep", 0),
        ],
    )
    def test_rejects_a_bad_argument_before_the_first_product(
        self, argument, value, tmp_path
    ):
        """``max_iter=0`` ended in a misleading ``ConvergenceError``, a NaN
        ``tol`` ran the whole budget, ``checkpoint_every=0`` divided by
        zero mid-solve."""
        calls = []
        diag = np.linspace(-1.0, 1.0, 8)
        matvec = lambda v: calls.append(v) or diag * v  # noqa: E731
        with pytest.raises(ConfigError, match=rf"^{argument} must be"):
            davidson(
                matvec, diag, checkpoint_dir=tmp_path, **{argument: value}
            )
        assert not calls and not list(tmp_path.iterdir())

    def test_convergence_error(self, operator):
        with pytest.raises(ConvergenceError):
            davidson(
                operator.matvec, operator.diagonal(), k=1, tol=1e-14, max_iter=2
            )

    def test_no_raise_flag(self, operator):
        res = davidson(
            operator.matvec,
            operator.diagonal(),
            k=1,
            tol=1e-14,
            max_iter=2,
            raise_on_no_convergence=False,
        )
        assert not res.converged

    def test_tiny_matrix(self):
        diag = np.array([3.0, 1.0, 2.0])
        res = davidson(lambda v: diag * v, diag, k=3, tol=1e-12)
        assert np.allclose(np.sort(res.eigenvalues), [1.0, 2.0, 3.0])
