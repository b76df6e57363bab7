"""Tests for the Permutation class."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.symmetry import Permutation

perm_st = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.permutations(list(range(n)))
)


class TestConstruction:
    def test_identity(self):
        p = Permutation.identity(5)
        assert p.is_identity
        assert p.order == 1

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            Permutation([0, 2])

    def test_rejects_too_many_sites(self):
        with pytest.raises(ValueError):
            Permutation(list(range(65)))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            Permutation([[0, 1], [1, 0]])

    def test_sites_read_only(self):
        p = Permutation([1, 0])
        with pytest.raises(ValueError):
            p.sites[0] = 5


class TestGroupStructure:
    @given(perm_st)
    def test_order(self, sites):
        p = Permutation(sites)
        q = Permutation.identity(p.n_sites)
        for _ in range(p.order):
            q = p @ q
        assert q.is_identity
        # order is minimal
        if p.order > 1:
            q = Permutation.identity(p.n_sites)
            seen_identity_early = False
            for step in range(1, p.order):
                q = p @ q
                if q.is_identity:
                    seen_identity_early = True
            assert not seen_identity_early

    def test_composition_order(self):
        # (p @ q)(x) == p(q(x))
        p = Permutation([1, 2, 0])
        q = Permutation([0, 2, 1])
        states = np.arange(8, dtype=np.uint64)
        assert np.array_equal((p @ q)(states), p(q(states)))

    def test_composition_size_mismatch(self):
        with pytest.raises(ValueError):
            Permutation([1, 0]) @ Permutation([0, 1, 2])

    def test_equality_and_hash(self):
        a = Permutation([1, 0, 2])
        b = Permutation([1, 0, 2])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Permutation([0, 1, 2])

    @given(perm_st)
    def test_cycle_lengths_sum_to_n(self, sites):
        p = Permutation(sites)
        assert sum(p.cycle_lengths) == p.n_sites


class TestActionFastPaths:
    def test_rotation_detected(self):
        n = 12
        p = Permutation((np.arange(n) + 3) % n)
        assert p._rotation_amount == 3

    def test_reversal_detected(self):
        p = Permutation(np.arange(9)[::-1])
        assert p.reversed_rotation_amount == 0

    @given(perm_st, st.integers(min_value=0, max_value=4095))
    def test_fast_and_generic_paths_agree(self, sites, x):
        from repro.bits import apply_permutation_to_states

        p = Permutation(sites)
        x = np.uint64(x) & np.uint64((1 << p.n_sites) - 1)
        assert int(p(x)) == int(
            apply_permutation_to_states(np.array(sites), x)
        )

    def test_translation_on_known_state(self):
        # |.up up.| on 4 sites: translation moves bits left cyclically.
        p = Permutation([1, 2, 3, 0])
        assert int(p(np.uint64(0b1001))) == 0b0011
