"""Tests for the serial Operator: matvec vs dense ground truth."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import repro
from repro.basis import SpinBasis, SymmetricBasis
from repro.errors import CompilationError, ConfigError
from repro.operators.matrix import expression_to_dense
from repro.symmetry import chain_symmetries


def random_vector(dim, dtype, rng):
    x = rng.standard_normal(dim)
    if np.dtype(dtype).kind == "c":
        x = x + 1j * rng.standard_normal(dim)
    return x.astype(dtype)


class TestFullBasis:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: repro.heisenberg_chain(6),
            lambda: repro.transverse_field_ising(6, coupling=1.3, field=0.7),
            lambda: repro.xxz_chain(6, jz=0.4, jxy=1.1),
            lambda: repro.j1j2_chain(6, j1=1.0, j2=0.4),
        ],
    )
    def test_dense_matches_kron(self, builder):
        expr = builder()
        basis = SpinBasis(6)
        op = repro.Operator(expr, basis)
        assert np.allclose(op.to_dense(), expression_to_dense(expr, 6))

    def test_matvec_matches_dense(self, rng):
        expr = repro.transverse_field_ising(8)
        op = repro.Operator(expr, SpinBasis(8))
        x = random_vector(op.dim, op.dtype, rng)
        assert np.allclose(op.matvec(x), op.to_dense() @ x)

    def test_sparse_matches_dense(self):
        expr = repro.heisenberg_chain(6)
        op = repro.Operator(expr, SpinBasis(6))
        assert np.allclose(op.to_sparse().toarray(), op.to_dense())

    def test_small_batch_size_equivalent(self, rng):
        expr = repro.heisenberg_chain(8)
        big = repro.Operator(expr, SpinBasis(8), batch_size=1 << 14)
        small = repro.Operator(expr, SpinBasis(8), batch_size=7)
        x = rng.standard_normal(big.dim)
        assert np.allclose(big.matvec(x), small.matvec(x))


class TestU1Basis:
    def test_matvec_matches_restricted_dense(self, rng):
        n, w = 10, 5
        expr = repro.heisenberg_chain(n)
        basis = SpinBasis(n, hamming_weight=w)
        op = repro.Operator(expr, basis)
        full = expression_to_dense(expr, n)
        idx = basis.states.astype(np.int64)
        restricted = full[np.ix_(idx, idx)].real
        x = rng.standard_normal(basis.dim)
        assert np.allclose(op.matvec(x), restricted @ x)

    def test_non_conserving_operator_rejected(self):
        with pytest.raises(CompilationError):
            repro.Operator(
                repro.transverse_field_ising(6), SpinBasis(6, hamming_weight=3)
            )


class TestSymmetricBasis:
    @pytest.mark.parametrize(
        "momentum,parity,inversion",
        [(0, 0, 0), (0, 1, 1), (2, None, None), (1, None, None), (5, None, None)],
    )
    def test_spectrum_contained_in_full(self, momentum, parity, inversion):
        n, w = 10, 5
        group = chain_symmetries(n, momentum, parity, inversion)
        basis = SymmetricBasis(group, hamming_weight=w)
        if basis.dim == 0:
            pytest.skip("empty sector")
        op = repro.Operator(repro.heisenberg_chain(n), basis)
        hs = op.to_dense()
        assert np.allclose(hs, hs.conj().T)  # Hermitian
        sector = np.sort(np.linalg.eigvalsh(hs))
        full_basis = SpinBasis(n, hamming_weight=w)
        full = np.sort(
            np.linalg.eigvalsh(
                repro.Operator(repro.heisenberg_chain(n), full_basis).to_dense()
            )
        )
        # every sector eigenvalue appears in the full spectrum
        for e in sector:
            assert np.min(np.abs(full - e)) < 1e-8

    def test_sector_spectra_partition_full_spectrum(self):
        n, w = 8, 4
        expr = repro.heisenberg_chain(n)
        full = np.sort(
            np.linalg.eigvalsh(
                repro.Operator(expr, SpinBasis(n, hamming_weight=w)).to_dense()
            )
        )
        collected = []
        for k in range(n):
            group = chain_symmetries(n, momentum=k, parity=None, inversion=None)
            basis = SymmetricBasis(group, hamming_weight=w)
            if basis.dim:
                op = repro.Operator(expr, basis)
                collected.append(np.linalg.eigvalsh(op.to_dense()))
        merged = np.sort(np.concatenate(collected))
        assert merged.size == full.size
        assert np.allclose(merged, full, atol=1e-8)

    def test_matvec_matches_dense(self, rng, chain12_operator):
        op = chain12_operator
        x = rng.standard_normal(op.dim)
        assert np.allclose(op.matvec(x), op.to_dense() @ x)

    def test_complex_sector_matvec(self, rng):
        group = chain_symmetries(10, momentum=3, parity=None, inversion=None)
        basis = SymmetricBasis(group, hamming_weight=5)
        op = repro.Operator(repro.heisenberg_chain(10), basis)
        assert op.dtype == np.complex128
        x = random_vector(op.dim, np.complex128, rng)
        assert np.allclose(op.matvec(x), op.to_dense() @ x)

    def test_diagonal_cached_and_correct(self, chain12_operator):
        diag1 = chain12_operator.diagonal()
        diag2 = chain12_operator.diagonal()
        assert diag1 is diag2
        assert np.allclose(diag1, np.diag(chain12_operator.to_dense()))


class TestInterfaces:
    def test_matmul(self, rng, chain12_operator):
        x = rng.standard_normal(chain12_operator.dim)
        assert np.allclose(chain12_operator @ x, chain12_operator.matvec(x))

    def test_expectation_of_eigenvector(self, chain12_operator):
        h = chain12_operator.to_dense()
        evals, evecs = np.linalg.eigh(h)
        val = repro.expectation(
            repro.heisenberg_chain(12), chain12_operator.basis, evecs[:, 0]
        )
        assert val == pytest.approx(evals[0])

    def test_linear_operator_eigsh(self, chain12_operator):
        linop = chain12_operator.as_linear_operator()
        ref = np.linalg.eigvalsh(chain12_operator.to_dense())[0]
        got = spla.eigsh(linop, k=1, which="SA")[0][0]
        assert got == pytest.approx(ref, abs=1e-8)

    def test_wrong_shape_rejected(self, chain12_operator):
        with pytest.raises(ValueError):
            chain12_operator.matvec(np.zeros(3))

    @pytest.mark.parametrize("batch_size", [-1, 0, 2.5, True])
    def test_batch_size_below_one_rejected(self, chain12_basis, batch_size):
        # -1 used to skip every batch (H x came back as its diagonal part),
        # 0 raised a bare ValueError at the first product.
        with pytest.raises(ConfigError, match="batch_size"):
            repro.Operator(
                repro.heisenberg_chain(12), chain12_basis, batch_size=batch_size
            )

    def test_shape_and_dtype(self, chain12_operator):
        assert chain12_operator.shape == (chain12_operator.dim,) * 2
        assert chain12_operator.dtype == np.float64
