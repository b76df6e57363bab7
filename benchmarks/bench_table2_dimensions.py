"""Table 2 — Hamiltonian matrix dimensions of closed spin-1/2 chains.

Regenerates the paper's Table 2 *exactly* using the Burnside character
count (the sector is U(1) at half filling with momentum 0, even reflection
parity, and even spin inversion), and cross-checks the counting machinery
against explicit enumeration at laptop scale.
"""

from __future__ import annotations

import repro
from repro.basis import SymmetricBasis
from repro.symmetry import chain_sector_dimension, chain_symmetries
from repro.symmetry.burnside import PAPER_TABLE2

from conftest import write_result


def test_table2_dimensions(benchmark):
    dims = benchmark(repro.paper_table2)
    assert dims == PAPER_TABLE2  # exact match, all five sizes
    lines = [f"{'System':<10} {'Matrix dimension':>18} {'paper':>16} {'match':>6}"]
    for n, dim in dims.items():
        lines.append(
            f"{n:>2} spins  {dim:>18,} {PAPER_TABLE2[n]:>16,} "
            f"{'yes' if dim == PAPER_TABLE2[n] else 'NO':>6}"
        )
    write_result(
        "table2_dimensions",
        "\n".join(lines),
        data={"dimensions": {str(n): dim for n, dim in dims.items()}},
    )


def test_table2_counting_vs_enumeration(benchmark):
    """The same counting formula must equal brute-force enumeration where
    enumeration is feasible."""

    def check():
        dims = {}
        for n in (12, 16, 20):
            group = chain_symmetries(n, momentum=0, parity=0, inversion=0)
            basis = SymmetricBasis(group, hamming_weight=n // 2)
            counted = chain_sector_dimension(
                n, hamming_weight=n // 2, momentum=0, parity=0, inversion=0
            )
            assert basis.dim == counted
            dims[n] = counted
        return dims

    dims = benchmark(check)
    assert dims[20] == 2_518  # C(20,10)/80 up to symmetric-orbit corrections


def test_capacity_plan_matches_paper_node_counts(benchmark):
    """The memory planner derived from Table 2's dimensions reproduces the
    node counts the paper actually used (42 spins on one node, 44 from 4
    nodes, 46 from 16 nodes)."""
    from repro.perfmodel import plan_capacity
    from repro.perfmodel.capacity import minimum_locales
    from repro.perfmodel.workloads import paper_workload

    def build():
        lines = [
            f"{'system':>8} {'dimension':>16} {'min nodes':>10} "
            f"{'mem/node':>10} {'matvec [s]':>11}"
        ]
        plans = {}
        for n in (40, 42, 44, 46, 48):
            plan = plan_capacity(n)
            plans[n] = plan
            lines.append(
                f"{n:>5} sp {plan.workload.dimension:>16,} "
                f"{plan.n_locales:>10} "
                f"{plan.bytes_per_locale / 2**30:>8.1f} G "
                f"{plan.matvec_seconds:>11.1f}"
            )
        return lines, plans

    lines, plans = benchmark(build)
    assert minimum_locales(paper_workload(42)) == 1  # largest 1-node size
    assert minimum_locales(paper_workload(44)) == 4  # Fig. 8b baseline
    assert minimum_locales(paper_workload(46)) == 16  # Fig. 8b baseline
    write_result(
        "table2_capacity_plan",
        "\n".join(
            lines
            + [
                "",
                "Minimum node counts match the paper's runs: 40/42 spins",
                "fit one node, 44-spin runs start at 4 nodes, 46-spin at 16.",
            ]
        ),
        data={
            "plans": [
                {
                    "n_sites": n,
                    "dimension": plan.workload.dimension,
                    "min_nodes": plan.n_locales,
                    "bytes_per_locale": plan.bytes_per_locale,
                    "matvec_seconds": plan.matvec_seconds,
                }
                for n, plan in plans.items()
            ]
        },
    )


def test_dimension_of_largest_system_is_fast(benchmark):
    """Counting the 48-spin dimension (1.7e11 states) must stay trivially
    cheap — the whole point of replacing enumeration by counting."""
    result = benchmark(
        lambda: chain_sector_dimension(
            48, hamming_weight=24, momentum=0, parity=0, inversion=0
        )
    )
    assert result == 167_959_144_032
