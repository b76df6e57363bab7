"""Unit and property tests for the bit-manipulation kernels."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bits import (
    as_states,
    bit_mask,
    candidate_batches,
    flip_all,
    parity,
    popcount,
    reverse_bits,
    rotate_left,
    states_with_weight,
)

states_st = st.integers(min_value=0, max_value=(1 << 64) - 1)
width_st = st.integers(min_value=1, max_value=64)


class TestAsStates:
    def test_accepts_python_ints(self):
        out = as_states([1, 2, 3])
        assert out.dtype == np.uint64
        assert out.tolist() == [1, 2, 3]

    def test_accepts_uint64_passthrough(self):
        arr = np.array([5], dtype=np.uint64)
        assert as_states(arr) is arr

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            as_states([-1])

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            as_states([1.5])

    def test_scalar_input(self):
        assert int(as_states(7)) == 7


class TestBitMask:
    def test_zero(self):
        assert int(bit_mask(0)) == 0

    def test_full_width(self):
        assert int(bit_mask(64)) == (1 << 64) - 1

    @pytest.mark.parametrize("n", [1, 7, 13, 32, 63])
    def test_values(self, n):
        assert int(bit_mask(n)) == (1 << n) - 1

    @pytest.mark.parametrize("n", [-1, 65])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError):
            bit_mask(n)


class TestPopcount:
    def test_known_values(self):
        values = np.array([0, 1, 3, 0xFF, (1 << 64) - 1], dtype=np.uint64)
        assert popcount(values).tolist() == [0, 1, 2, 8, 64]

    @given(states_st)
    def test_matches_python_bit_count(self, x):
        assert int(popcount(np.uint64(x))) == x.bit_count()

    @given(states_st)
    def test_parity_is_popcount_mod_2(self, x):
        assert int(parity(np.uint64(x))) == x.bit_count() % 2


class TestRotations:
    @given(states_st, width_st, st.integers(min_value=0, max_value=200))
    def test_left_right_inverse(self, x, n, k):
        x = np.uint64(x) & bit_mask(n)
        assert rotate_left(rotate_left(x, k, n), n - k, n) == x

    @given(states_st, width_st)
    def test_full_rotation_is_identity(self, x, n):
        x = np.uint64(x) & bit_mask(n)
        assert rotate_left(x, n, n) == x

    @given(states_st, width_st, st.integers(min_value=0, max_value=200))
    def test_preserves_popcount(self, x, n, k):
        x = np.uint64(x) & bit_mask(n)
        assert int(popcount(rotate_left(x, k, n))) == int(popcount(x))

    def test_matches_site_shift(self):
        # bit i of input appears at bit (i+k) % n.
        x = np.uint64(0b00101)
        assert int(rotate_left(x, 2, 5)) == 0b10100

    def test_wraps(self):
        x = np.uint64(0b10000)
        assert int(rotate_left(x, 1, 5)) == 0b00001

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            rotate_left(np.uint64(0), 1, 0)


class TestReverseBits:
    @given(states_st, width_st)
    def test_involution(self, x, n):
        x = np.uint64(x) & bit_mask(n)
        assert reverse_bits(reverse_bits(x, n), n) == x

    @given(states_st, width_st)
    def test_preserves_popcount(self, x, n):
        x = np.uint64(x) & bit_mask(n)
        assert int(popcount(reverse_bits(x, n))) == int(popcount(x))

    def test_known_value(self):
        assert int(reverse_bits(np.uint64(0b00011), 5)) == 0b11000

    @given(states_st, width_st)
    def test_matches_string_reversal(self, x, n):
        x = int(np.uint64(x) & bit_mask(n))
        expected = int(f"{x:0{n}b}"[::-1], 2)
        assert int(reverse_bits(np.uint64(x), n)) == expected


class TestFlipAll:
    @given(states_st, width_st)
    def test_involution(self, x, n):
        x = np.uint64(x) & bit_mask(n)
        assert flip_all(flip_all(x, n), n) == x

    @given(states_st, width_st)
    def test_complements_popcount(self, x, n):
        x = np.uint64(x) & bit_mask(n)
        assert int(popcount(flip_all(x, n))) == n - int(popcount(x))


class TestStatesWithWeight:
    @pytest.mark.parametrize(
        "n,w,count",
        [(4, 2, 6), (6, 3, 20), (10, 5, 252), (12, 0, 1), (12, 12, 1), (5, 6, 0)],
    )
    def test_counts(self, n, w, count):
        assert states_with_weight(n, w).size == count

    @given(
        st.integers(min_value=1, max_value=14),
        st.integers(min_value=0, max_value=14),
    )
    def test_sorted_unique_and_correct_weight(self, n, w):
        out = states_with_weight(n, w)
        if w > n:
            assert out.size == 0
            return
        assert np.all(np.diff(out.astype(np.int64)) > 0)
        assert np.all(popcount(out) == w)

    def test_matches_brute_force(self):
        n, w = 10, 4
        brute = np.array(
            [x for x in range(1 << n) if x.bit_count() == w], dtype=np.uint64
        )
        assert np.array_equal(states_with_weight(n, w), brute)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            states_with_weight(-1, 0)
        with pytest.raises(ValueError):
            states_with_weight(4, -1)

    def test_rejects_more_than_64_bits(self):
        with pytest.raises(ValueError, match="64"):
            states_with_weight(70, 3)

    def test_sparse_sector_of_a_wide_word(self):
        assert states_with_weight(63, 1).tolist() == [1 << i for i in range(63)]
        assert states_with_weight(64, 64).tolist() == [(1 << 64) - 1]


class TestCandidateBatches:
    @given(st.integers(min_value=0, max_value=20), st.data())
    def test_matches_brute_force_in_full_batches(self, n, data):
        w = data.draw(st.one_of(st.none(), st.integers(0, n + 1)))
        batches = list(candidate_batches(n, w))
        everything = np.arange(1 << n, dtype=np.uint64)
        brute = everything if w is None else everything[popcount(everything) == w]
        got = np.concatenate([np.empty(0, dtype=np.uint64), *batches])
        assert got.dtype == np.uint64 and np.array_equal(got, brute)
        assert all(batch.size == 1 << 16 for batch in batches[:-1])

    def test_streams_in_batch_sized_memory(self):
        # C(26, 13) = 10 400 600 states, 83 MB if held at once.
        tracemalloc.start()
        try:
            count = sum(batch.size for batch in candidate_batches(26, 13))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 10_400_600
        assert peak < 8 << 20
