"""Tests for the plain (full and U(1)) spin bases."""

import numpy as np
import pytest

from repro.basis import SpinBasis
from repro.bits import popcount
from repro.errors import BasisError


class TestFullBasis:
    def test_dim(self):
        assert SpinBasis(5).dim == 32

    def test_states_are_indices(self):
        basis = SpinBasis(4)
        assert np.array_equal(basis.states, np.arange(16, dtype=np.uint64))
        assert np.array_equal(
            basis.index(basis.states), np.arange(16, dtype=np.int64)
        )

    def test_check_in_range(self):
        basis = SpinBasis(4)
        mask = basis.in_space(np.array([0, 15, 16, 100], dtype=np.uint64))
        assert mask.tolist() == [True, True, False, False]

    def test_index_out_of_range(self):
        basis = SpinBasis(4)
        with pytest.raises(BasisError):
            basis.index(np.array([16], dtype=np.uint64))

    def test_project_is_identity(self, rng):
        basis = SpinBasis(6)
        raw = rng.integers(0, 64, size=50, dtype=np.uint64)
        members, factors, valid = basis.project(raw)
        assert np.array_equal(members, raw)
        assert np.all(factors == 1.0)
        assert np.all(valid)

    def test_source_scale_is_none(self):
        assert SpinBasis(4).source_scale is None

    def test_is_real(self):
        assert SpinBasis(4).is_real
        assert SpinBasis(4).scalar_dtype == np.float64

    def test_refuses_huge_materialization(self):
        basis = SpinBasis(40)
        assert basis.dim == 1 << 40
        with pytest.raises(BasisError):
            _ = basis.states


class TestU1Basis:
    def test_dim(self):
        assert SpinBasis(6, hamming_weight=3).dim == 20

    def test_states_sorted_with_correct_weight(self):
        basis = SpinBasis(10, hamming_weight=4)
        assert np.all(popcount(basis.states) == 4)
        assert np.all(np.diff(basis.states.astype(np.int64)) > 0)

    def test_index_roundtrip(self):
        basis = SpinBasis(10, hamming_weight=5)
        assert np.array_equal(
            basis.index(basis.states), np.arange(basis.dim, dtype=np.int64)
        )

    def test_index_rejects_bits_above_n_sites(self):
        # Bits above n_sites put a state outside the space, whatever its weight.
        basis = SpinBasis(4, hamming_weight=2)
        with pytest.raises(BasisError, match="outside the Hilbert space"):
            basis.index([0b110011])

    def test_check_filters_weight(self):
        basis = SpinBasis(6, hamming_weight=2)
        cand = np.array([0b000011, 0b000111, 0b100001, 0b111111], dtype=np.uint64)
        assert basis.in_space(cand).tolist() == [True, False, True, False]

    def test_extreme_weights(self):
        assert SpinBasis(8, hamming_weight=0).dim == 1
        assert SpinBasis(8, hamming_weight=8).dim == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SpinBasis(0)
        with pytest.raises(ValueError):
            SpinBasis(4, hamming_weight=5)
        with pytest.raises(ValueError):
            SpinBasis(64)
