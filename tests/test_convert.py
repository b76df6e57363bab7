"""Tests for the order-preserving block <-> hashed conversions (Figs. 2-3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed import BlockArray, block_to_hashed, hashed_to_block, locale_of
from repro.distributed.convert import stable_partition
from repro.errors import DistributionError
from repro.runtime import Cluster, laptop_machine


def make_cluster(n, cores=2):
    """``n`` locales of ``cores`` cores: a conversion cuts each locale's
    block into one chunk per core."""
    return Cluster(n, laptop_machine(cores=cores))


class TestStablePartition:
    def test_groups_and_counts(self):
        values = np.array([10, 20, 30, 40, 50])
        keys = np.array([1, 0, 1, 0, 2])
        out, counts = stable_partition(values, keys, 3)
        assert out.tolist() == [20, 40, 10, 30, 50]
        assert counts.tolist() == [2, 2, 1]

    def test_stability(self, rng):
        values = np.arange(1000)
        keys = rng.integers(0, 4, size=1000)
        out, counts = stable_partition(values, keys, 4)
        start = 0
        for k in range(4):
            chunk = out[start : start + counts[k]]
            # within each key, original order (= increasing values) holds
            assert np.all(np.diff(chunk) > 0)
            start += counts[k]

    def test_empty(self):
        out, counts = stable_partition(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 3
        )
        assert out.size == 0
        assert counts.tolist() == [0, 0, 0]


class TestBlockToHashed:
    @pytest.mark.parametrize("n_locales", [1, 2, 3, 5])
    @pytest.mark.parametrize("length", [0, 1, 7, 100, 1000])
    def test_partition_complete_and_ordered(self, n_locales, length, rng):
        cluster = make_cluster(n_locales, cores=3)
        data = rng.permutation(length).astype(np.int64)
        masks_np = locale_of(np.abs(data).astype(np.uint64), n_locales)
        arr = BlockArray.from_global(cluster, data)
        masks = BlockArray.from_global(cluster, masks_np)
        parts, report = block_to_hashed(arr, masks)
        # every element lands on its masked locale, in original order
        for dest in range(n_locales):
            expected = data[masks_np == dest]
            assert np.array_equal(parts[dest], expected)
        assert sum(p.size for p in parts) == length

    def test_order_preservation_with_duplicates(self):
        cluster = make_cluster(2)
        data = np.array([5, 5, 5, 5, 5, 5], dtype=np.int64)
        masks = BlockArray.from_global(
            cluster, np.array([0, 1, 0, 1, 0, 1], dtype=np.int64)
        )
        arr = BlockArray.from_global(cluster, data)
        parts, _ = block_to_hashed(arr, masks)
        assert parts[0].tolist() == [5, 5, 5]
        assert parts[1].tolist() == [5, 5, 5]

    def test_mask_validation(self):
        cluster = make_cluster(2)
        arr = BlockArray.from_global(cluster, np.arange(4.0))
        bad = BlockArray.from_global(cluster, np.array([0, 1, 2, 0]))
        with pytest.raises(DistributionError):
            block_to_hashed(arr, bad)

    def test_length_mismatch(self):
        cluster = make_cluster(2)
        arr = BlockArray.from_global(cluster, np.arange(4.0))
        masks = BlockArray.from_global(cluster, np.zeros(6, dtype=np.int64))
        with pytest.raises(DistributionError):
            block_to_hashed(arr, masks)

    def test_report_counts_messages(self, rng):
        cluster = make_cluster(3)
        data = rng.standard_normal(90)
        masks = BlockArray.from_global(
            cluster, rng.integers(0, 3, size=90).astype(np.int64)
        )
        arr = BlockArray.from_global(cluster, data)
        _, report = block_to_hashed(arr, masks)
        assert report.messages > 0
        assert report.bytes_sent >= 90 * 8
        assert report.elapsed > 0
        assert set(report.phase_elapsed) == {"histogram", "offsets", "put"}


class TestRoundTrip:
    @given(
        n_locales=st.integers(min_value=1, max_value=5),
        length=st.integers(min_value=0, max_value=400),
        seed=st.integers(min_value=0, max_value=2**31),
        chunks=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_is_exact(self, n_locales, length, seed, chunks):
        """The paper's Sec. 6.1 verification: block -> hashed -> block is
        the identity, bit for bit, also when the two directions cut the
        blocks into different chunks (``chunks`` and ``chunks + 1`` cores)."""
        rng = np.random.default_rng(seed)
        there, back_again = make_cluster(n_locales, chunks), make_cluster(
            n_locales, chunks + 1
        )
        data = rng.standard_normal(length)
        masks_np = rng.integers(0, n_locales, size=length).astype(np.int64)
        arr = BlockArray.from_global(there, data)
        parts, _ = block_to_hashed(arr, BlockArray.from_global(there, masks_np))
        back, _ = hashed_to_block(
            parts, BlockArray.from_global(back_again, masks_np)
        )
        assert np.array_equal(back.to_global(), data)

    def test_roundtrip_uint64(self, rng):
        cluster = make_cluster(4)
        data = rng.integers(0, 1 << 60, size=500, dtype=np.uint64)
        masks_np = locale_of(data, 4)
        arr = BlockArray.from_global(cluster, data)
        masks = BlockArray.from_global(cluster, masks_np)
        parts, _ = block_to_hashed(arr, masks)
        back, _ = hashed_to_block(parts, masks)
        assert np.array_equal(back.to_global(), data)

    def test_roundtrip_2d(self, rng):
        # The paper's implementation handles 2-D arrays (blocks of Krylov
        # vectors); rows travel together, order is preserved per row.
        cluster = make_cluster(3, cores=4)
        data = rng.standard_normal((120, 5))
        masks_np = rng.integers(0, 3, size=120).astype(np.int64)
        arr = BlockArray.from_global(cluster, data)
        masks = BlockArray.from_global(cluster, masks_np)
        parts, _ = block_to_hashed(arr, masks)
        for dest in range(3):
            assert np.array_equal(parts[dest], data[masks_np == dest])
        masks = BlockArray.from_global(make_cluster(3), masks_np)
        back, _ = hashed_to_block(parts, masks)
        assert np.array_equal(back.to_global(), data)

    def test_2d_message_bytes_scale_with_width(self, rng):
        cluster = make_cluster(2)
        masks_np = rng.integers(0, 2, size=60).astype(np.int64)
        masks = BlockArray.from_global(cluster, masks_np)
        narrow = BlockArray.from_global(cluster, rng.standard_normal((60, 1)))
        wide = BlockArray.from_global(cluster, rng.standard_normal((60, 8)))
        _, r1 = block_to_hashed(narrow, masks)
        _, r8 = block_to_hashed(wide, masks)
        assert r8.bytes_sent > 4 * r1.bytes_sent

    def test_hashed_to_block_validation(self):
        cluster = make_cluster(2)
        masks = BlockArray.from_global(cluster, np.zeros(4, dtype=np.int64))
        with pytest.raises(DistributionError):
            hashed_to_block([np.zeros(1)], masks)
        with pytest.raises(DistributionError):
            hashed_to_block([np.zeros(1), np.zeros(1)], masks)
