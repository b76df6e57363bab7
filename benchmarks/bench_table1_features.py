"""Table 1 — feature matrix of open-source exact diagonalization packages.

The paper's Table 1 compares packages along six axes and reports source
line counts.  The static rows are reproduced verbatim; our own row is
computed live from this repository (features asserted by exercising the
corresponding APIs, line count measured from ``src/``).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import repro
from conftest import write_result

#: (package, spins, generic H, matrix-free, lattice symmetries,
#:  distributed, SLOC) — static rows from the paper's Table 1.
PAPER_ROWS = [
    ("lattice-symmetries", True, True, True, True, True, 8500),
    ("SPINPACK", True, False, True, True, True, 26000),
    ("QuSpin", True, True, True, True, False, 26000),
    ("quantum_basis", True, False, False, True, False, 12500),
    ("Hydra", True, True, True, None, None, 18000),  # either, not both
    ("libcommute", True, True, True, False, False, 4500),
    ("HPhi", True, True, True, False, True, 29000),
    ("Pomerol", False, True, False, False, True, 5000),
    ("EDLib", False, False, False, False, True, 4000),
    ("EDIpack", False, False, False, False, True, 11000),
]


def count_sloc() -> int:
    """Non-blank, non-comment lines under ``src/`` (excluding tests, as the
    paper does)."""
    root = Path(__file__).parent.parent / "src"
    total = 0
    for path in root.rglob("*.py"):
        in_docstring = False
        for line in path.read_text().splitlines():
            stripped = line.strip()
            if not stripped:
                continue
            if in_docstring:
                if stripped.endswith('"""') or stripped.endswith("'''"):
                    in_docstring = False
                continue
            if stripped.startswith(('"""', "'''")):
                if not (len(stripped) > 3 and stripped.endswith(('"""', "'''"))):
                    in_docstring = True
                continue
            if stripped.startswith("#"):
                continue
            total += 1
    return total


def verify_our_features() -> dict[str, bool]:
    """Exercise each Table 1 feature of this package for real."""
    features = {}
    # Spins: spin-1/2 bases exist.
    features["spins"] = repro.SpinBasis(4).dim == 16
    # Generic Hamiltonians: arbitrary user expressions compile.
    custom = repro.sigma_x(0) * repro.sigma_x(2) + 0.3 * repro.number(1)
    features["generic"] = repro.compile_expression(custom, 3).n_sites == 3
    # Matrix-free: matvec without materializing the matrix.
    basis = repro.SpinBasis(8, hamming_weight=4)
    op = repro.Operator(repro.heisenberg_chain(8), basis)
    y = op.matvec(np.ones(basis.dim))
    features["matrix_free"] = y.shape == (basis.dim,)
    # Lattice symmetries: symmetry-adapted bases exist.
    group = repro.chain_symmetries(8, momentum=0, parity=0, inversion=0)
    features["symmetries"] = repro.SymmetricBasis(group, hamming_weight=4).dim > 0
    # Distributed-memory parallelism: simulated-cluster operator runs.
    cluster = repro.Cluster(2, repro.laptop_machine(cores=2))
    dbasis, _ = repro.enumerate_states(
        cluster, repro.SpinBasis(8, hamming_weight=4)
    )
    dop = repro.DistributedOperator(repro.heisenberg_chain(8), dbasis)
    dy = dop.matvec(repro.DistributedVector.full_random(dbasis, seed=0))
    features["distributed"] = dy.dim == dbasis.dim
    return features


def format_table(our_sloc: int, features: dict[str, bool]) -> str:
    def mark(value):
        if value is None:
            return "either"
        return "yes" if value else "no"

    header = (
        f"{'package':<22} {'spins':>6} {'generic':>8} {'mat-free':>9} "
        f"{'symms':>6} {'distrib':>8} {'SLOC':>7}"
    )
    lines = [header, "-" * len(header)]
    ours = (
        "repro (this work)",
        features["spins"],
        features["generic"],
        features["matrix_free"],
        features["symmetries"],
        features["distributed"],
        our_sloc,
    )
    for row in [ours] + PAPER_ROWS:
        name, *flags, sloc = row
        lines.append(
            f"{name:<22} "
            + " ".join(f"{mark(f):>{w}}" for f, w in zip(flags, (6, 8, 9, 6, 8)))
            + f" {sloc:>7}"
        )
    return "\n".join(lines)


def test_table1_feature_matrix(benchmark):
    features = benchmark(verify_our_features)
    assert all(v for v in features.values())
    sloc = count_sloc()
    table = format_table(sloc, features)
    write_result(
        "table1_features",
        table,
        data={"features": features, "sloc": sloc},
    )
