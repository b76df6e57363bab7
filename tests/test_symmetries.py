"""Tests for the lattice-symmetry factories."""

import numpy as np
import pytest

from repro.symmetry import (
    SymmetryGroup,
    rectangle_translation,
    reflection,
    spin_inversion,
    translation,
)


class TestChainFactories:
    def test_translation_action(self):
        t = translation(6).permutation
        assert int(t(np.uint64(0b000001))) == 0b000010

    def test_translation_composed_n_times_is_identity(self):
        n = 7
        t = translation(n).permutation
        state = np.uint64(0b0110001)
        out = state
        for _ in range(n):
            out = t(out)
        assert int(out) == int(state)

    def test_reflection_action(self):
        r = reflection(6).permutation
        assert int(r(np.uint64(0b000011))) == 0b110000

    def test_reflection_involution(self):
        r = reflection(9).permutation
        state = np.uint64(0b101100110)
        assert int(r(r(state))) == int(state)

    def test_spin_inversion_action(self):
        x = spin_inversion(5)
        assert x.flip and x.permutation.is_identity
        group = SymmetryGroup.from_generators([x])
        flip = int(np.flatnonzero(group.flips)[0])
        assert int(group.apply_element(flip, np.uint64(0b00000))) == 0b11111

    def test_translation_and_reflection_generate_dihedral(self):
        n = 6
        g = SymmetryGroup.from_generators([translation(n), reflection(n)])
        assert g.size == 2 * n


class TestRectangleTranslation:
    def test_x_translation_period(self):
        nx, ny = 4, 3
        t = rectangle_translation(nx, ny, axis=0)
        assert t.permutation.order == nx

    def test_y_translation_period(self):
        nx, ny = 4, 3
        t = rectangle_translation(nx, ny, axis=1)
        assert t.permutation.order == ny

    def test_translations_commute(self):
        nx, ny = 3, 4
        tx = rectangle_translation(nx, ny, axis=0).permutation
        ty = rectangle_translation(nx, ny, axis=1).permutation
        assert tx @ ty == ty @ tx

    def test_moves_correct_site(self):
        nx, ny = 4, 2
        tx = rectangle_translation(nx, ny, axis=0).permutation
        # site (0,0) = bit 0 moves to site (1,0) = bit 1
        assert int(tx(np.uint64(1))) == 0b10
        ty = rectangle_translation(nx, ny, axis=1).permutation
        # site (0,0) moves to site (0,1) = bit nx
        assert int(ty(np.uint64(1))) == 1 << nx

    def test_rejects_axis(self):
        with pytest.raises(ValueError):
            rectangle_translation(3, 3, axis=2)

    def test_rejects_too_large(self):
        with pytest.raises(ValueError):
            rectangle_translation(9, 9, axis=0)

    def test_group_size_torus(self):
        nx, ny = 3, 4
        g = SymmetryGroup.from_generators(
            [
                rectangle_translation(nx, ny, axis=0),
                rectangle_translation(nx, ny, axis=1),
            ]
        )
        assert g.size == nx * ny
