"""Tests for the simulated MPI collectives."""

import numpy as np
import pytest

from repro.runtime import Cluster, SimMPI, laptop_machine


@pytest.fixture
def cluster():
    return Cluster(4, laptop_machine(cores=4))


def pair_bytes(send):
    """``nbytes[src, dst]`` of a ``send[src][dst]`` matrix of arrays."""
    return np.array([[part.nbytes for part in row] for row in send], float)


class TestAlltoallv:
    def test_data_transposed(self, cluster, rng):
        mpi = SimMPI(cluster, ranks_per_locale=1)
        n = cluster.n_locales
        send = [
            [rng.standard_normal(rng.integers(0, 10)) for _ in range(n)]
            for _ in range(n)
        ]
        recv = mpi.alltoallv(send)
        for src in range(n):
            for dst in range(n):
                assert np.array_equal(recv[dst][src], send[src][dst])
        assert mpi.exchange_cost(pair_bytes(send)) > 0

    def test_more_ranks_cost_more_latency(self, cluster):
        n = cluster.n_locales
        nbytes = pair_bytes([[np.zeros(2) for _ in range(n)] for _ in range(n)])
        t_few = SimMPI(cluster, ranks_per_locale=1).exchange_cost(nbytes)
        t_many = SimMPI(cluster, ranks_per_locale=64).exchange_cost(nbytes)
        assert t_many > 10 * t_few

    def test_shape_validation(self, cluster):
        mpi = SimMPI(cluster)
        with pytest.raises(ValueError):
            mpi.alltoallv([[np.zeros(1)]])

    def test_exchange_cost_scales_with_bytes(self, cluster):
        mpi = SimMPI(cluster, ranks_per_locale=1)
        small = np.full((4, 4), 1e3)
        large = np.full((4, 4), 1e8)
        assert mpi.exchange_cost(large) > mpi.exchange_cost(small)


class TestAllreduce:
    def test_sums_across_locales(self, cluster):
        mpi = SimMPI(cluster)
        values = np.arange(8.0).reshape(4, 2)
        total, elapsed = mpi.allreduce(values)
        assert np.allclose(total, values.sum(axis=0))
        assert elapsed > 0

    def test_single_rank_is_free(self):
        cluster = Cluster(1, laptop_machine(cores=2))
        mpi = SimMPI(cluster, ranks_per_locale=1)
        total, elapsed = mpi.allreduce(np.array([[3.0]]))
        assert elapsed == 0.0
        assert total[0] == 3.0

    def test_latency_grows_logarithmically(self, cluster):
        v = np.zeros((4, 1))
        t_1 = SimMPI(cluster, ranks_per_locale=1).allreduce(v)[1]
        t_64 = SimMPI(cluster, ranks_per_locale=64).allreduce(v)[1]
        # log2(256)/log2(4) = 4
        assert t_64 / t_1 == pytest.approx(4.0, rel=0.05)


class TestBarrier:
    def test_single_rank_free(self):
        cluster = Cluster(1, laptop_machine())
        assert SimMPI(cluster, ranks_per_locale=1).barrier() == 0.0

    def test_grows_with_ranks(self, cluster):
        b1 = SimMPI(cluster, ranks_per_locale=1).barrier()
        b2 = SimMPI(cluster, ranks_per_locale=128).barrier()
        assert b2 > b1 > 0

    def test_rejects_bad_rank_count(self, cluster):
        with pytest.raises(ValueError):
            SimMPI(cluster, ranks_per_locale=0)

    def test_n_ranks(self, cluster):
        assert SimMPI(cluster, ranks_per_locale=16).n_ranks == 64


class TestCluster:
    def test_locale_count(self, cluster):
        assert cluster.n_locales == len(cluster) == 4

    def test_default_machine_is_snellius(self):
        c = Cluster(2)
        assert c.machine.cores_per_locale == 128

    def test_rejects_zero_locales(self):
        with pytest.raises(ValueError):
            Cluster(0)

    def test_locale_indices(self, cluster):
        assert [loc.index for loc in cluster.locales] == [0, 1, 2, 3]
