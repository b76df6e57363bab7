"""Tests for block-distributed arrays."""

import numpy as np
import pytest

from repro.distributed import BlockArray
from repro.distributed.block import block_boundaries
from repro.errors import DistributionError
from repro.runtime import Cluster, laptop_machine


@pytest.fixture
def cluster():
    return Cluster(3, laptop_machine(cores=2))


class TestBoundaries:
    def test_even_split(self):
        assert block_boundaries(12, 3).tolist() == [0, 4, 8, 12]

    def test_uneven_split_front_loaded(self):
        # Chapel's block distribution gives the first blocks the extras.
        assert block_boundaries(10, 3).tolist() == [0, 4, 7, 10]

    def test_more_locales_than_elements(self):
        assert block_boundaries(2, 4).tolist() == [0, 1, 2, 2, 2]

    def test_empty(self):
        assert block_boundaries(0, 2).tolist() == [0, 0, 0]


class TestBlockArray:
    def test_roundtrip(self, cluster, rng):
        data = rng.standard_normal(100)
        arr = BlockArray.from_global(cluster, data)
        assert np.array_equal(arr.to_global(), data)

    def test_blocks_are_copies(self, cluster):
        data = np.arange(9.0)
        arr = BlockArray.from_global(cluster, data)
        data[0] = 99.0
        assert arr.blocks[0][0] == 0.0

    def test_local_range(self, cluster):
        arr = BlockArray.from_global(cluster, np.arange(10.0))
        assert arr.boundaries.tolist() == [0, 4, 7, 10]
        assert [block.tolist() for block in arr.blocks] == [
            [0, 1, 2, 3], [4, 5, 6], [7, 8, 9]
        ]

    def test_empty_constructor(self, cluster):
        arr = BlockArray.empty(cluster, 10, np.float64)
        assert arr.global_length == 10
        assert arr.dtype == np.float64

    def test_wrong_block_sizes_rejected(self, cluster):
        with pytest.raises(DistributionError):
            BlockArray(cluster, [np.zeros(1), np.zeros(5), np.zeros(1)])

    def test_wrong_block_count_rejected(self, cluster):
        with pytest.raises(DistributionError):
            BlockArray(cluster, [np.zeros(3)])

    def test_2d_supported(self, cluster, rng):
        data = rng.standard_normal((10, 4))
        arr = BlockArray.from_global(cluster, data)
        assert arr.global_length == 10
        assert arr.row_width == 4
        assert arr.row_bytes == 32
        assert np.array_equal(arr.to_global(), data)

    def test_3d_rejected(self, cluster):
        with pytest.raises(DistributionError):
            BlockArray.from_global(cluster, np.zeros((3, 3, 3)))

    def test_mixed_widths_rejected(self, cluster):
        with pytest.raises(DistributionError):
            BlockArray(
                cluster, [np.zeros((4, 2)), np.zeros((3, 3)), np.zeros((3, 2))]
            )

    def test_mixed_ndim_rejected(self, cluster):
        with pytest.raises(DistributionError):
            BlockArray(cluster, [np.zeros(4), np.zeros((3, 2)), np.zeros(3)])

    def test_empty_2d(self, cluster):
        arr = BlockArray.empty(cluster, 9, np.float64, width=3)
        assert arr.ndim == 2
        assert arr.row_width == 3

    def test_dtype_preserved(self, cluster):
        arr = BlockArray.from_global(cluster, np.arange(6, dtype=np.uint64))
        assert arr.dtype == np.uint64
