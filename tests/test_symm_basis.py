"""Tests for the symmetry-adapted basis, validated against an explicit
group-projector construction."""

import numpy as np
import pytest

from repro.basis import SpinBasis, SymmetricBasis
from repro.errors import BasisError, InvalidSectorError
from repro.symmetry import chain_symmetries, sector_dimension


def projector_matrix(group, u1_basis):
    """The explicit sector projector in a U(1) subspace."""
    dim = u1_basis.dim
    p = np.zeros((dim, dim), dtype=complex)
    for i in range(len(group)):
        permuted = group.apply_element(i, u1_basis.states)
        rows = u1_basis.index(permuted)
        u = np.zeros((dim, dim), dtype=complex)
        u[rows, np.arange(dim)] = 1.0
        p += np.conj(group.characters[i]) * u
    return p / len(group)


SECTORS = [
    (0, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (0, 1, 1),
    (0, None, None),
    (1, None, None),
    (2, None, None),
    (3, None, None),
]


class TestDimensions:
    @pytest.mark.parametrize("momentum,parity,inversion", SECTORS)
    def test_dim_matches_projector_rank(self, momentum, parity, inversion):
        n, w = 8, 4
        group = chain_symmetries(n, momentum, parity, inversion)
        basis = SymmetricBasis(group, hamming_weight=w)
        u1 = SpinBasis(n, hamming_weight=w)
        p = projector_matrix(group, u1)
        rank = int(np.sum(np.linalg.eigvalsh(p) > 0.5))
        assert basis.dim == rank

    @pytest.mark.parametrize("momentum,parity,inversion", SECTORS)
    def test_dim_matches_burnside(self, momentum, parity, inversion):
        n, w = 10, 5
        group = chain_symmetries(n, momentum, parity, inversion)
        basis = SymmetricBasis(group, hamming_weight=w)
        assert basis.dim == sector_dimension(group, w)

    def test_full_space_no_weight(self):
        group = chain_symmetries(6, momentum=0, parity=0, inversion=0)
        basis = SymmetricBasis(group)
        assert basis.dim == sector_dimension(group, None)


class TestRepresentatives:
    @pytest.fixture
    def basis(self):
        group = chain_symmetries(10, momentum=0, parity=0, inversion=0)
        return SymmetricBasis(group, hamming_weight=5)

    def test_states_sorted(self, basis):
        assert np.all(np.diff(basis.states.astype(np.int64)) > 0)

    def test_states_are_orbit_minima(self, basis):
        rep, _, _ = basis.group.state_info(basis.states)
        assert np.array_equal(rep, basis.states)

    def test_index_roundtrip(self, basis):
        assert np.array_equal(
            basis.index(basis.states), np.arange(basis.dim, dtype=np.int64)
        )

    def test_check_agrees_with_membership(self, basis):
        """The range and weight filters, then the group's set-up filter
        and its sums pass, keep exactly the basis."""
        candidates = np.arange(1 << 11, dtype=np.uint64)  # past 2**10
        kernel = basis.group.kernel
        minima = kernel.minima(candidates[basis.in_space(candidates)])
        keep, stab = kernel.in_sector(minima)
        assert np.array_equal(minima[keep], basis.states)
        assert np.array_equal(stab, basis.stabilizer_sums)

    def test_stabilizer_sums_positive_integers(self, basis):
        stab = basis.stabilizer_sums
        assert np.all(stab > 0.5)
        assert np.allclose(stab, np.round(stab))

    def test_norms_formula(self, basis):
        assert np.allclose(
            basis.norms, np.sqrt(basis.stabilizer_sums / len(basis.group))
        )

    def test_source_scale(self, basis):
        assert np.allclose(
            basis.source_scale, 1.0 / np.sqrt(basis.stabilizer_sums)
        )


class TestProjection:
    def test_project_diagonal_factor_is_one(self):
        group = chain_symmetries(8, momentum=0, parity=0, inversion=0)
        basis = SymmetricBasis(group, hamming_weight=4)
        members, factors, valid = basis.project(basis.states)
        assert np.array_equal(members, basis.states)
        assert np.all(valid)
        # factor * source_scale == 1 for representatives mapped to themselves
        assert np.allclose(factors * basis.source_scale, 1.0)

    def test_project_invalid_states_flagged(self):
        group = chain_symmetries(4, momentum=1, parity=None, inversion=None)
        basis = SymmetricBasis(group, hamming_weight=2)
        # The Neel orbit {0101, 1010} has stabilizer {e, t^2} with
        # chi(t^2) = -1 at k=1, so its character sum vanishes.
        _, _, valid = basis.project(np.array([0b0101], dtype=np.uint64))
        assert not valid[0]

    def test_project_real_sector_returns_real(self):
        group = chain_symmetries(8, momentum=0, parity=0, inversion=0)
        basis = SymmetricBasis(group, hamming_weight=4)
        _, factors, _ = basis.project(basis.states)
        assert factors.dtype == np.float64

    def test_project_complex_sector_returns_complex(self):
        group = chain_symmetries(8, momentum=1, parity=None, inversion=None)
        basis = SymmetricBasis(group, hamming_weight=4)
        _, factors, _ = basis.project(basis.states)
        assert factors.dtype == np.complex128


class TestConstruction:
    def test_unbuilt_basis_raises_on_access(self):
        group = chain_symmetries(8, momentum=0, parity=0, inversion=0)
        basis = SymmetricBasis(group, hamming_weight=4, build=False)
        with pytest.raises(BasisError):
            _ = basis.dim
        with pytest.raises(BasisError):
            basis.index(np.array([0], dtype=np.uint64))

    def test_unbuilt_basis_can_check_and_project(self):
        group = chain_symmetries(8, momentum=0, parity=0, inversion=0)
        basis = SymmetricBasis(group, hamming_weight=4, build=False)
        assert basis.in_space(np.array([0b00001111], dtype=np.uint64)).shape == (1,)
        basis.project(np.array([0b00001111], dtype=np.uint64))

    def test_from_representatives(self):
        group = chain_symmetries(8, momentum=0, parity=0, inversion=0)
        reference = SymmetricBasis(group, hamming_weight=4)
        rebuilt = SymmetricBasis.from_representatives(
            group, reference.states, hamming_weight=4
        )
        assert np.array_equal(rebuilt.states, reference.states)
        assert np.allclose(rebuilt.norms, reference.norms)

    def test_from_representatives_rejects_outsiders(self):
        group = chain_symmetries(4, momentum=1, parity=None, inversion=None)
        with pytest.raises(BasisError):
            SymmetricBasis.from_representatives(
                group, np.array([0b0101], dtype=np.uint64), hamming_weight=2
            )

    def test_from_representatives_rejects_another_orbit_member(self):
        """A sorted list with one state replaced by a non-minimal member of
        its orbit used to be accepted and fail at the first matvec with
        "state(s) not found in the basis"."""
        group = chain_symmetries(8, momentum=0, parity=0, inversion=0)
        states = SymmetricBasis(group, hamming_weight=4).states.copy()
        at = states.size - 1
        orbit = [
            group.apply_element(i, states[at:])[0] for i in range(len(group))
        ]
        states[at] = max(orbit)  # still sorted: nothing comes after it
        assert states[at] != min(orbit)
        with pytest.raises(BasisError, match=rf"state {states[at]} \(position {at}\).*minimum"):
            SymmetricBasis.from_representatives(group, states, hamming_weight=4)

    def test_from_representatives_rejects_unsorted_and_repeated(self):
        group = chain_symmetries(8, momentum=0, parity=0, inversion=0)
        states = SymmetricBasis(group, hamming_weight=4).states
        swapped = states.copy()
        swapped[[2, 3]] = swapped[[3, 2]]
        with pytest.raises(BasisError, match=rf"state {swapped[3]} \(position 3\)"):
            SymmetricBasis.from_representatives(group, swapped, hamming_weight=4)
        with pytest.raises(BasisError, match=r"position 1\)"):
            SymmetricBasis.from_representatives(
                group, states[[0, 0, 1]], hamming_weight=4
            )
        with pytest.raises(BasisError):
            SymmetricBasis.from_representatives(
                group, states[:4].reshape(2, 2), hamming_weight=4
            )

    def test_from_representatives_accepts_empty_and_partial_lists(self):
        group = chain_symmetries(8, momentum=0, parity=0, inversion=0)
        states = SymmetricBasis(group, hamming_weight=4).states
        empty = SymmetricBasis.from_representatives(
            group, np.empty(0, dtype=np.uint64), hamming_weight=4
        )
        assert empty.dim == 0
        some = SymmetricBasis.from_representatives(group, states[::2], hamming_weight=4)
        assert np.array_equal(some.index(states[::2]), np.arange(some.dim))

    def test_inversion_requires_half_filling(self):
        group = chain_symmetries(8, momentum=0, parity=0, inversion=0)
        with pytest.raises(InvalidSectorError):
            SymmetricBasis(group, hamming_weight=3)

    def test_build_idempotent(self):
        group = chain_symmetries(8, momentum=0, parity=0, inversion=0)
        basis = SymmetricBasis(group, hamming_weight=4)
        states = basis.states
        basis.build()
        assert basis.states is states
