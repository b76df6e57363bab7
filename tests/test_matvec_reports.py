"""Tests pinning the simulated-cost accounting of each matvec variant."""

import numpy as np
import pytest

import repro
from repro.basis import SpinBasis
from repro.distributed import (
    DistributedOperator,
    DistributedVector,
    enumerate_states,
)
from repro.distributed.matvec_common import wire_bytes
from repro.runtime import Cluster, laptop_machine


@pytest.fixture(scope="module")
def setup():
    cluster = Cluster(3, laptop_machine(cores=4))
    dbasis, _ = enumerate_states(cluster, SpinBasis(10, hamming_weight=5))
    x = DistributedVector.full_random(dbasis, seed=0)
    return dbasis, x


def run(dbasis, x, method, **options):
    dop = DistributedOperator(
        repro.heisenberg_chain(10), dbasis, method=method, **options
    )
    dop.matvec(x)
    return dop.last_report


class TestNaiveAccounting:
    def test_one_message_per_element(self, setup):
        dbasis, x = setup
        report = run(dbasis, x, "naive", batch_size=32)
        assert report.messages == report.extras["elements"]
        assert report.bytes_sent == report.messages * wire_bytes(1)

    def test_ledger_phases(self, setup):
        dbasis, x = setup
        report = run(dbasis, x, "naive")
        assert {"diagonal", "generate", "remote-tasks", "nic"} <= set(
            report.ledger.phases
        )


class TestBatchedAccounting:
    def test_messages_bounded_by_chunk_destination_pairs(self, setup):
        dbasis, x = setup
        batch = 16
        report = run(dbasis, x, "batched", batch_size=batch)
        n = dbasis.n_locales
        max_chunks = sum(
            -(-int(c) // batch) for c in dbasis.counts
        )
        assert report.messages <= max_chunks * n

    def test_far_fewer_messages_than_naive(self, setup):
        dbasis, x = setup
        naive = run(dbasis, x, "naive", batch_size=32)
        batched = run(dbasis, x, "batched", batch_size=32)
        assert batched.messages * 10 < naive.messages
        # same payload volume travels either way
        assert batched.bytes_sent == naive.bytes_sent


class TestOrderingOfVariants:
    def test_simulated_times_ordered(self, setup):
        # naive must be far slower; batched and pc are close at this scale
        # (the pc advantage needs many-core nodes — see bench_ablations).
        dbasis, x = setup
        t = {
            m: run(dbasis, x, m, batch_size=32).elapsed
            for m in ("naive", "batched", "pc")
        }
        assert t["naive"] > 5 * t["batched"]
        assert t["naive"] > 5 * t["pc"]

    def test_elapsed_positive_and_finite(self, setup):
        dbasis, x = setup
        for method in ("naive", "batched", "pc"):
            report = run(dbasis, x, method)
            assert 0 < report.elapsed < 1e6
