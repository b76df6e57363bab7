"""Tests for symmetry generators, group closure, and state_info."""

import numpy as np
import pytest

from repro.errors import BasisError, InvalidSectorError
from repro.symmetry import (
    Permutation,
    Symmetry,
    SymmetryGroup,
    chain_symmetries,
    reflection,
    spin_inversion,
    translation,
)
from reference_kernels import full_orbit


class TestSymmetryGenerator:
    def test_translation_order(self):
        assert translation(8).order == 8

    def test_reflection_order(self):
        assert reflection(8).order == 2

    def test_spin_inversion_order(self):
        assert spin_inversion(8).order == 2

    def test_flip_doubles_odd_order(self):
        # A 3-cycle combined with a flip has order 6.
        gen = Symmetry(Permutation([1, 2, 0]), flip=True)
        assert gen.order == 6

    def test_character_is_root_of_unity(self):
        gen = translation(8, sector=3)
        assert gen.character**8 == pytest.approx(1.0)
        assert gen.character == pytest.approx(np.exp(-2j * np.pi * 3 / 8))

    def test_action_with_flip(self):
        group = SymmetryGroup.from_generators([spin_inversion(4)])
        flip = int(np.flatnonzero(group.flips)[0])
        assert int(group.apply_element(flip, np.uint64(0b0011))) == 0b1100

    def test_accepts_raw_sequence_as_permutation(self):
        gen = Symmetry([1, 0], sector=1)
        assert gen.permutation == Permutation([1, 0])


class TestClosure:
    def test_trivial_group(self):
        g = SymmetryGroup.trivial(6)
        assert g.size == 1
        assert g.is_real

    def test_translation_group_size(self):
        g = SymmetryGroup.from_generators([translation(10)])
        assert g.size == 10

    def test_dihedral_group_size(self):
        g = SymmetryGroup.from_generators([translation(10), reflection(10)])
        assert g.size == 20

    def test_full_chain_group_size(self):
        g = chain_symmetries(10, momentum=0, parity=0, inversion=0)
        assert g.size == 40

    def test_identity_has_unit_character(self):
        g = chain_symmetries(8, momentum=0, parity=1, inversion=0)
        for perm, flip, char in zip(g.permutations, g.flips, g.characters):
            if perm.is_identity and not flip:
                assert char == pytest.approx(1.0)

    def test_characters_multiply(self):
        # chi is a homomorphism: chi(g)^order == 1 for every element.
        g = chain_symmetries(6, momentum=2, parity=None, inversion=None)
        for perm, flip, char in zip(g.permutations, g.flips, g.characters):
            order = perm.order * (2 if flip and perm.order % 2 else 1)
            assert char**order == pytest.approx(1.0)

    def test_inconsistent_sector_raises(self):
        # Reflection maps momentum k to -k: k=1 with parity is inconsistent.
        with pytest.raises(InvalidSectorError):
            chain_symmetries(8, momentum=1, parity=0, inversion=None)

    def test_momentum_half_with_reflection_is_consistent(self):
        g = chain_symmetries(8, momentum=4, parity=0, inversion=None)
        assert g.size == 16

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            SymmetryGroup.from_generators([])

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            SymmetryGroup.from_generators([translation(4), translation(6)])

    def test_is_real_for_momentum_zero(self):
        assert chain_symmetries(8, momentum=0).is_real

    def test_is_real_for_momentum_pi(self):
        assert chain_symmetries(8, momentum=4, parity=None, inversion=None).is_real

    def test_complex_for_generic_momentum(self):
        g = chain_symmetries(8, momentum=1, parity=None, inversion=None)
        assert not g.is_real


class TestStateInfo:
    @pytest.fixture
    def group(self):
        return chain_symmetries(8, momentum=0, parity=0, inversion=0)

    def test_representative_is_orbit_minimum(self, group, rng):
        states = rng.integers(0, 1 << 8, size=100, dtype=np.uint64)
        rep, _, _ = group.state_info(states)
        for s, r in zip(states, rep):
            orbit = full_orbit(group, int(s))
            assert int(r) == int(orbit.min())

    def test_representative_idempotent(self, group, rng):
        states = rng.integers(0, 1 << 8, size=100, dtype=np.uint64)
        rep1, _, _ = group.state_info(states)
        rep2, _, _ = group.state_info(rep1)
        assert np.array_equal(rep1, rep2)

    def test_stab_constant_along_orbit(self, group):
        state = 0b00110101
        orbit = full_orbit(group, state)
        _, _, stab = group.state_info(orbit)
        assert np.allclose(stab, stab[0])

    def test_stab_times_orbit_size_for_trivial_sector(self, group):
        # In the trivial sector chi==1, so N_s = |Stab(s)| and
        # |Stab| * |Orbit| = |G|.
        state = 0b00110101
        orbit = full_orbit(group, state)
        _, _, stab = group.state_info(np.array([state], dtype=np.uint64))
        assert stab[0] * orbit.size == pytest.approx(group.size)

    def test_phase_maps_state_to_representative(self, group, rng):
        # For each state there must exist an element with chi* == phase
        # mapping the state to its representative.
        states = rng.integers(0, 1 << 8, size=50, dtype=np.uint64)
        rep, phase, _ = group.state_info(states)
        for s, r, ph in zip(states, rep, phase):
            found = False
            for i in range(group.size):
                if int(group.apply_element(i, np.uint64(s))) == int(r):
                    if np.isclose(np.conj(group.characters[i]), ph):
                        found = True
                        break
            assert found

    def test_is_representative_counts(self, group):
        states = np.arange(1 << 8, dtype=np.uint64)
        keep, _ = group.kernel.in_sector(group.kernel.minima(states))
        from repro.symmetry import sector_dimension

        assert int(keep.sum()) == sector_dimension(group, hamming_weight=None)

    def test_phases_unit_modulus_complex_sector(self):
        g = chain_symmetries(6, momentum=1, parity=None, inversion=None)
        states = np.arange(1 << 6, dtype=np.uint64)
        _, phase, _ = g.state_info(states)
        assert np.allclose(np.abs(phase), 1.0)

    @pytest.mark.parametrize(
        "states, first",
        [
            ([1 << 12], 1 << 12),
            ([3, 1 << 11, 1 << 12], 1 << 11),
            ([[5], [1 << 10]], 1 << 10),
        ],
    )
    def test_states_beyond_the_lattice_raise(self, states, first):
        """A 10-site state has no bit 10 or above: ``state_info`` names the
        first state that does instead of answering for its low bits."""
        group = chain_symmetries(10, momentum=0, parity=0, inversion=0)
        message = rf"^state {first} has bits beyond n_sites=10$"
        with pytest.raises(BasisError, match=message):
            group.state_info(np.array(states, dtype=np.uint64))
        assert group.kernel.minima(np.array([first], dtype=np.uint64)).size == 0

    def test_zero_norm_states_detected(self):
        # At momentum pi, the all-up state (orbit of size 1) has
        # sum_g chi(g)* = sum of characters over the whole group = 0.
        g = chain_symmetries(4, momentum=2, parity=None, inversion=None)
        state = np.array([0b1111], dtype=np.uint64)
        _, _, stab = g.state_info(state)
        assert stab[0] == pytest.approx(0.0, abs=1e-12)
