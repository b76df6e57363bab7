"""Tests for the capacity planner."""

import pytest

from repro.perfmodel import plan_capacity
from repro.perfmodel.capacity import (
    MEMORY_HEADROOM,
    NODE_MEMORY_BYTES,
    bytes_per_locale,
    minimum_locales,
)
from repro.perfmodel.workloads import paper_workload


class TestMinimumNodeCounts:
    """The paper's runs pin the ground truth: 40- and 42-spin systems are
    'the two largest problem sizes we could run on a single node'; 44-spin
    runs start at 4 nodes; 46-spin runs start at 16 nodes."""

    @pytest.mark.parametrize(
        "n_sites,expected",
        [(40, 1), (42, 1), (44, 4), (46, 16)],
    )
    def test_matches_paper(self, n_sites, expected):
        assert minimum_locales(paper_workload(n_sites)) == expected

    def test_42_is_the_largest_single_node_size(self):
        assert minimum_locales(paper_workload(42)) == 1
        assert minimum_locales(paper_workload(44)) > 1

    def test_48_spins_needs_a_large_machine(self):
        assert minimum_locales(paper_workload(48)) >= 32


class TestPlan:
    def test_default_plan_fits(self):
        plan = plan_capacity(44)
        assert plan.fits
        assert plan.bytes_per_locale / NODE_MEMORY_BYTES <= MEMORY_HEADROOM + 1e-9

    def test_explicit_node_count(self):
        plan = plan_capacity(44, n_locales=64)
        assert plan.n_locales == 64
        assert plan.fits

    def test_infeasible_flagged(self):
        plan = plan_capacity(48, n_locales=1)
        assert not plan.fits
        assert plan.bytes_per_locale > NODE_MEMORY_BYTES

    def test_memory_scales_inversely_with_nodes(self):
        w = paper_workload(44)
        assert bytes_per_locale(w, 8) == pytest.approx(
            bytes_per_locale(w, 4) / 2, rel=0.01
        )

    def test_more_nodes_faster_matvec(self):
        slow = plan_capacity(44, n_locales=4)
        fast = plan_capacity(44, n_locales=64)
        assert fast.matvec_seconds < slow.matvec_seconds / 8
