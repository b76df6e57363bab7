"""Behavioral tests of the producer-consumer pipeline's timing semantics.

Correctness of the results is covered elsewhere; these tests check that
the *simulated execution* behaves like the system the paper describes:
backpressure through the RemoteBuffer flags, consumer-bound stalls, the
effect of the producer:consumer split, and work stealing.
"""

import dataclasses

import pytest

import repro
from repro.basis import SymmetricBasis
from repro.distributed import (
    DistributedOperator,
    DistributedVector,
    enumerate_states,
)
from repro.runtime import Cluster, laptop_machine
from repro.symmetry import chain_symmetries


def make_setup(machine):
    group = chain_symmetries(16, momentum=0, parity=None, inversion=None)
    cluster = Cluster(4, machine)
    template = SymmetricBasis(group, hamming_weight=8, build=False)
    dbasis, _ = enumerate_states(
        cluster, template, chunks_per_core=2, use_weight_shortcut=True
    )
    return dbasis


def run_pc(dbasis, **options):
    dop = DistributedOperator(
        repro.heisenberg_chain(16), dbasis, batch_size=16, **options
    )
    x = DistributedVector.full_random(dbasis, seed=0)
    dop.matvec(x)
    return dop.last_report


class TestBackpressure:
    def test_slow_consumers_stall_producers(self):
        # Make the consumer kernel artificially 100x slower than generation:
        # producers must block on full RemoteBuffers (stall_time > 0).
        machine = dataclasses.replace(
            laptop_machine(cores=8), t_search_accum=1e-4, t_generate=1e-8
        )
        report = run_pc(make_setup(machine), buffer_capacity=8)
        assert report.extras["stall_time"] > 0

    def test_fast_consumers_do_not_stall(self):
        machine = dataclasses.replace(
            laptop_machine(cores=8), t_search_accum=1e-10, t_generate=1e-5
        )
        report = run_pc(make_setup(machine))
        assert report.extras["stall_time"] == pytest.approx(0.0, abs=1e-12)

    def test_more_consumers_help_when_consumer_bound(self):
        machine = dataclasses.replace(
            laptop_machine(cores=8), t_search_accum=1e-5, t_generate=1e-8
        )
        dbasis = make_setup(machine)
        few = run_pc(dbasis, consumer_fraction=0.125)
        many = run_pc(dbasis, consumer_fraction=0.5)
        assert many.elapsed < few.elapsed

    def test_more_producers_help_when_generation_bound(self):
        machine = dataclasses.replace(
            laptop_machine(cores=8), t_search_accum=1e-9, t_generate=1e-5
        )
        dbasis = make_setup(machine)
        few_producers = run_pc(dbasis, consumer_fraction=0.5)
        many_producers = run_pc(dbasis, consumer_fraction=0.125)
        assert many_producers.elapsed < few_producers.elapsed


class TestWorkStealing:
    def test_stealing_helps_consumer_bound_pipeline(self):
        # With consumers as the bottleneck, finished producers joining the
        # consumer pool must shorten the simulated run.
        machine = dataclasses.replace(
            laptop_machine(cores=8), t_search_accum=3e-5, t_generate=1e-7
        )
        dbasis = make_setup(machine)
        plain = run_pc(dbasis, consumer_fraction=0.25)
        stealing = run_pc(dbasis, consumer_fraction=0.25, work_stealing=True)
        assert stealing.elapsed < plain.elapsed

    def test_stealing_never_much_worse(self):
        machine = laptop_machine(cores=8)
        dbasis = make_setup(machine)
        plain = run_pc(dbasis)
        stealing = run_pc(dbasis, work_stealing=True)
        assert stealing.elapsed <= plain.elapsed * 1.05


class TestLedgerAccounting:
    def test_phase_ledger_populated(self):
        machine = laptop_machine(cores=8)
        report = run_pc(make_setup(machine))
        assert report.ledger.total("generate") > 0
        assert report.ledger.total("search+accum") > 0

    def test_generate_busy_tracks_kernel_rate(self):
        # Doubling t_generate must double the generate busy time (the
        # partition/hash shares are zeroed so only generation is measured).
        base_machine = dataclasses.replace(
            laptop_machine(cores=8), t_partition=0.0, t_hash=0.0
        )
        slow_machine = dataclasses.replace(
            base_machine, t_generate=base_machine.t_generate * 2
        )
        base = run_pc(make_setup(base_machine))
        slow = run_pc(make_setup(slow_machine))
        assert slow.ledger.total("generate") == pytest.approx(
            2 * base.ledger.total("generate"), rel=1e-6
        )

    def test_message_sizes_respect_buffer_capacity(self):
        machine = laptop_machine(cores=8)
        dbasis = make_setup(machine)
        capped = run_pc(dbasis, buffer_capacity=4)
        from repro.distributed.matvec_common import wire_bytes

        assert capped.mean_message_bytes <= 4 * wire_bytes(1)

    def test_elapsed_at_least_critical_path(self):
        # elapsed can never undercut the busiest single consumer core.
        machine = laptop_machine(cores=8)
        report = run_pc(make_setup(machine))
        n_consumers = report.extras["consumers"]
        busiest = report.ledger.max_over_locales("search+accum")
        assert report.elapsed >= busiest / max(n_consumers, 1) - 1e-12
