"""Tests for the stateToIndex ranking strategies."""

import warnings
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.basis import SortedRanker, SpinBasis
from repro.bits import states_with_weight
from repro.errors import BasisError


class TestSortedRanker:
    def test_rank_roundtrip(self):
        states = np.array([2, 5, 9, 17], dtype=np.uint64)
        ranker = SortedRanker(states)
        assert ranker.rank(states).tolist() == [0, 1, 2, 3]

    def test_rank_shuffled_queries(self, rng):
        states = np.sort(
            rng.choice(1 << 20, size=500, replace=False).astype(np.uint64)
        )
        ranker = SortedRanker(states)
        perm = rng.permutation(500)
        assert np.array_equal(ranker.rank(states[perm]), perm)

    def test_missing_state_raises(self):
        ranker = SortedRanker(np.array([1, 3], dtype=np.uint64))
        with pytest.raises(BasisError):
            ranker.rank(np.array([2], dtype=np.uint64))

    def test_missing_past_end_raises(self):
        ranker = SortedRanker(np.array([1, 3], dtype=np.uint64))
        with pytest.raises(BasisError):
            ranker.rank(np.array([4], dtype=np.uint64))

    def test_try_rank(self):
        ranker = SortedRanker(np.array([1, 3, 7], dtype=np.uint64))
        idx, found = ranker.try_rank(np.array([3, 4, 7], dtype=np.uint64))
        assert found.tolist() == [True, False, True]
        assert idx[0] == 1 and idx[2] == 2

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SortedRanker(np.array([3, 1], dtype=np.uint64))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SortedRanker(np.array([1, 1], dtype=np.uint64))

    def test_empty(self):
        ranker = SortedRanker(np.empty(0, dtype=np.uint64))
        _, found = ranker.try_rank(np.array([1], dtype=np.uint64))
        assert not found[0]


def sorted_set(rng: np.random.Generator, size: int, span_bits: int) -> np.ndarray:
    """``size`` distinct states below ``2**span_bits``, ascending."""
    states = np.unique(rng.integers(0, 2**span_bits, size=size, dtype=np.uint64))
    while states.size < size:
        more = rng.integers(0, 2**span_bits, size=size, dtype=np.uint64)
        states = np.unique(np.concatenate([states, more]))
    return states[:size]


def assert_ranks_like_searchsorted(states: np.ndarray, queries) -> None:
    """``try_rank`` against the binary search it sits on, for any query
    shape; ``rank`` returns the same or raises on the first absent state."""
    ranker = SortedRanker(states)
    queries = np.asarray(queries, dtype=np.uint64)
    at = np.searchsorted(states, queries.ravel())
    present = at < states.size
    present[present] = states[at[present]] == queries.ravel()[present]
    at, present = at.reshape(queries.shape), present.reshape(queries.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a scalar uint64 product overflows
        idx, found = ranker.try_rank(queries)
        assert idx.dtype == np.int64 and idx.shape == found.shape == queries.shape
        np.testing.assert_array_equal(found, present)
        np.testing.assert_array_equal(idx[found], at[present])
        if present.all():
            ranked = ranker.rank(queries)
            assert ranked.dtype == np.int64 and ranked.shape == queries.shape
            np.testing.assert_array_equal(ranked, at)
        else:
            absent = queries[~present]
            detail = (
                f"first missing: {int(absent.flat[0])}"
                if states.size
                else "the basis is empty"
            )
            with pytest.raises(BasisError) as raised:
                ranker.rank(queries)
            assert str(raised.value) == (
                f"{absent.size} state(s) not found in the basis ({detail})"
            )


class TestSlotTable:
    @settings(max_examples=60, deadline=None)
    @given(
        size=st.one_of(
            st.sampled_from([0, 1, 2, 3]),
            st.integers(1, 11).flatmap(
                lambda k: st.sampled_from([2**k - 1, 2**k, 2**k + 1])
            ),
        ),
        span_bits=st.sampled_from([12, 24, 40, 64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_searchsorted(self, size, span_bits, seed):
        rng = np.random.default_rng(seed)
        states = sorted_set(rng, size, span_bits)
        everywhere = rng.integers(0, 2**span_bits, size=64, dtype=np.uint64)
        some = states[rng.integers(0, size, size=48)] if size else states
        edges = np.array([0, 2**64 - 1], dtype=np.uint64)
        if size:
            # just below the first and above the last, where there is room
            edges = np.concatenate(
                [edges, states[:1] - (states[0] > 0), states[-1:] + (states[-1] < 2**64 - 1)]
            )
        assert_ranks_like_searchsorted(states, states)
        assert_ranks_like_searchsorted(states, some)
        assert_ranks_like_searchsorted(states, some.reshape(-1, 4))
        assert_ranks_like_searchsorted(states, everywhere)
        assert_ranks_like_searchsorted(states, np.concatenate([some, edges]))
        assert_ranks_like_searchsorted(states, np.concatenate([some, everywhere]).reshape(2, -1))
        assert_ranks_like_searchsorted(states, everywhere[0])  # 0-d, absent or not
        if size:
            assert_ranks_like_searchsorted(states, states[size // 2])
        assert_ranks_like_searchsorted(states, states[:0])

    @pytest.mark.parametrize("sharing", [2, 17, 300])
    def test_many_states_in_one_slot(self, sharing):
        """States built to hash to one slot: the slot keeps the lowest, the
        others are found by the search behind it."""
        from repro.basis.ranking import _SLOT_MULTIPLIER

        rng = np.random.default_rng(sharing)
        background = sorted_set(rng, 700, 40)
        bits = (background.size + sharing - 1).bit_length() + 1
        inverse = np.uint64(pow(int(_SLOT_MULTIPLIER), -1, 2**64))
        slot = np.uint64(5) << np.uint64(64 - bits)
        crowd = (slot + np.arange(sharing, dtype=np.uint64)) * inverse
        states = np.unique(np.concatenate([background, crowd]))
        assert states.size == background.size + sharing
        ranker = SortedRanker(states)
        assert np.all(ranker._slot_of(crowd) == 5)
        assert states[ranker._slots[5]] == crowd.min()
        assert_ranks_like_searchsorted(states, crowd)
        assert_ranks_like_searchsorted(states, states[::-1])
        assert_ranks_like_searchsorted(states, np.concatenate([crowd, crowd + np.uint64(1)]))

    def test_table_is_two_to_four_slots_of_int32_per_state(self):
        for size in (1, 2, 3, 1000, 1024, 1025, 28968):
            ranker = SortedRanker(np.arange(size, dtype=np.uint64))
            assert ranker._slots.dtype == np.int32
            assert 2 * size <= ranker._slots.size < max(4 * size, 3)


class TestCombinatorialRanker:
    """A U(1) ``SpinBasis`` ranks its weight-``w`` combinations of sites
    through a :class:`SortedRanker` over ``states`` (which unranks them):
    the position ``np.searchsorted`` finds in ``states_with_weight``."""

    @pytest.mark.parametrize("n,w", [(4, 2), (8, 3), (12, 6), (10, 0), (10, 10)])
    def test_matches_sorted_enumeration(self, n, w):
        states = states_with_weight(n, w)
        basis = SpinBasis(n, w)
        assert basis.dim == states.size
        assert np.array_equal(basis.index(states), np.arange(states.size))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 20).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n), st.integers(0, 2**32 - 1))
    ))
    def test_unrank_rank_roundtrip(self, case):
        n, w, seed = case
        states = states_with_weight(n, w)
        basis = SpinBasis(n, w)
        picks = np.random.default_rng(seed).integers(0, states.size, size=200)
        for queries in (states, states[picks], states[picks].reshape(-1, 8)):
            idx = basis.index(queries)
            assert idx.dtype == np.int64 and idx.shape == queries.shape
            np.testing.assert_array_equal(idx, np.searchsorted(states, queries))
            np.testing.assert_array_equal(basis.states[idx], queries)

    def test_wrong_weight_raises(self):
        basis = SpinBasis(6, 3)
        with pytest.raises(BasisError, match="not found in the basis"):
            basis.index(np.array([0b111, 0b11], dtype=np.uint64))

    @pytest.mark.parametrize("query", [0b111 << 6, 0b11 | 1 << 6, 2**64 - 1])
    def test_out_of_range_query_raises(self, query):
        with pytest.raises(BasisError, match="outside the Hilbert space"):
            SpinBasis(6, 3).index(np.array([0b111, query], dtype=np.uint64))

    def test_dim_materializes_nothing(self):
        basis = SpinBasis(40, hamming_weight=20)
        assert basis.dim == comb(40, 20)
        assert not {"states", "_ranker"} & vars(basis).keys()
        # Too large to materialize is too large to rank.
        with pytest.raises(BasisError, match="refusing to materialize"):
            basis.index(np.array([2**20 - 1], dtype=np.uint64))

    def test_a_product_builds_the_ranker_before_its_first_batch(
        self, monkeypatch
    ):
        """A U(1) sector's slot table is built before the product allocates
        its diagonal, ``y`` and first batch, so the build's temporaries
        never stack on them."""
        import repro
        import repro.operators.operator as operator_module

        basis = SpinBasis(12, hamming_weight=6)
        op = repro.Operator(repro.heisenberg_chain(12), basis, plan=False)
        x = np.random.default_rng(1).standard_normal(basis.dim)
        built, diagonal = [], op.diagonal
        monkeypatch.setattr(
            op, "diagonal",
            lambda: built.append("_ranker" in vars(basis)) or diagonal(),
        )
        y = op.matvec(x)
        assert built == [True]
        np.testing.assert_allclose(y, op.to_sparse() @ x, atol=1e-12)

    def test_agrees_with_sorted_ranker(self, rng):
        n, w = 16, 8
        states = states_with_weight(n, w)
        sample = states[rng.choice(states.size, size=200, replace=False)]
        assert np.array_equal(
            SpinBasis(n, w).index(sample), np.searchsorted(states, sample)
        )
