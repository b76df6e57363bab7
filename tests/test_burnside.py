"""Tests for exact sector-dimension counting — including the paper's Table 2."""

from math import comb

import numpy as np
import pytest

from repro.symmetry import (
    SymmetryGroup,
    chain_sector_dimension,
    chain_symmetries,
    paper_table2,
    sector_dimension,
)
from repro.symmetry.burnside import PAPER_TABLE2, fixed_states_count


def brute_force_dimension(group: SymmetryGroup, hamming_weight):
    """Count surviving representatives by explicit enumeration."""
    n = group.n_sites
    states = np.arange(1 << n, dtype=np.uint64)
    if hamming_weight is not None:
        from repro.bits import popcount

        states = states[popcount(states) == np.uint64(hamming_weight)]
    keep, _ = group.kernel.in_sector(group.kernel.minima(states))
    return int(keep.sum())


class TestFixedStatesCount:
    def test_identity_counts_all(self):
        # identity on 4 sites: 4 cycles of length 1
        assert fixed_states_count((1, 1, 1, 1), False, None) == 16
        assert fixed_states_count((1, 1, 1, 1), False, 2) == 6

    def test_single_cycle(self):
        # full rotation cycle: only all-up / all-down are fixed
        assert fixed_states_count((4,), False, None) == 2
        assert fixed_states_count((4,), False, 2) == 0
        assert fixed_states_count((4,), False, 4) == 1

    def test_flip_odd_cycle_has_no_fixed_states(self):
        assert fixed_states_count((3,), True, None) == 0

    def test_flip_even_cycles(self):
        # two 2-cycles with flip: 2 choices each, weight forced to half
        assert fixed_states_count((2, 2), True, None) == 4
        assert fixed_states_count((2, 2), True, 2) == 4
        assert fixed_states_count((2, 2), True, 1) == 0


class TestAgainstBruteForce:
    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    @pytest.mark.parametrize(
        "momentum,parity,inversion",
        [(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (0, None, None)],
    )
    def test_full_symmetry_sectors(self, n, momentum, parity, inversion):
        group = chain_symmetries(n, momentum, parity, inversion)
        weights = [None, n // 2]
        if inversion is None:
            # Off-half-filling weights are only valid without spin inversion.
            weights.append(n // 2 - 1)
        for w in weights:
            assert sector_dimension(group, w) == brute_force_dimension(group, w)

    def test_inversion_off_half_filling_rejected(self):
        from repro.errors import InvalidSectorError

        group = chain_symmetries(8, momentum=0, parity=0, inversion=0)
        with pytest.raises(InvalidSectorError):
            sector_dimension(group, hamming_weight=3)

    @pytest.mark.parametrize("n,k", [(6, 1), (6, 2), (8, 3), (8, 4), (5, 2)])
    def test_momentum_sectors(self, n, k):
        group = chain_symmetries(n, momentum=k, parity=None, inversion=None)
        for w in [None, n // 2]:
            assert sector_dimension(group, w) == brute_force_dimension(group, w)

    def test_sectors_partition_the_space(self):
        # Summing over all momentum sectors recovers the full dimension.
        n, w = 8, 4
        total = sum(
            chain_sector_dimension(n, w, momentum=k, parity=None, inversion=None)
            for k in range(n)
        )
        assert total == comb(n, w)

    def test_parity_sectors_partition_translation_sector(self):
        n, w = 8, 4
        k0 = chain_sector_dimension(n, w, momentum=0, parity=None, inversion=None)
        even = chain_sector_dimension(n, w, momentum=0, parity=0, inversion=None)
        odd = chain_sector_dimension(n, w, momentum=0, parity=1, inversion=None)
        assert even + odd == k0


class TestPaperTable2:
    def test_all_five_sizes_match_exactly(self):
        assert paper_table2() == PAPER_TABLE2

    def test_40_spins(self):
        assert (
            chain_sector_dimension(40, 20, momentum=0, parity=0, inversion=0)
            == 861_725_794
        )

    def test_48_spins(self):
        assert (
            chain_sector_dimension(48, 24, momentum=0, parity=0, inversion=0)
            == 167_959_144_032
        )

    def test_reduction_factor_close_to_group_order(self):
        # Symmetries reduce the U(1) dimension by roughly |G| = 4n.
        n = 40
        full = comb(n, n // 2)
        reduced = PAPER_TABLE2[n]
        assert full / reduced == pytest.approx(4 * n, rel=0.01)


class TestU1Dimension:
    def test_matches_enumeration(self):
        from repro.bits import states_with_weight

        assert comb(12, 5) == states_with_weight(12, 5).size
