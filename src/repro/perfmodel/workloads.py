"""Workload descriptions for the paper-scale performance models.

A workload is a closed Heisenberg chain in the paper's symmetry sector
(U(1) at half filling, momentum 0, even reflection and spin-inversion
parity).  The sector dimension comes from the exact Burnside count
(:mod:`repro.symmetry.burnside` — Table 2), so the models run on exactly
the matrix sizes the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.symmetry.burnside import PAPER_TABLE2, chain_sector_dimension

__all__ = ["ChainWorkload", "paper_workload"]


@dataclass(frozen=True)
class ChainWorkload:
    """A Heisenberg-chain matvec workload in the paper's sector.

    ``offdiag_per_row`` is the average number of off-diagonal elements a
    row emits.  The Heisenberg chain has one exchange term per bond; a
    term emits an element iff the bond is anti-aligned, which at half
    filling happens for about half the ``n`` bonds — the default.  Pass it
    to price an operator that is not a paper chain.
    """

    n_sites: int
    dimension: int
    offdiag_per_row: float | None = None

    def __post_init__(self) -> None:
        if self.offdiag_per_row is None:
            object.__setattr__(self, "offdiag_per_row", self.n_sites / 2.0)

    @property
    def total_elements(self) -> float:
        """Total off-diagonal elements generated per matvec."""
        return self.dimension * self.offdiag_per_row

    @property
    def vector_bytes(self) -> float:
        return 8.0 * self.dimension


@lru_cache(maxsize=None)
def paper_workload(n_sites: int) -> ChainWorkload:
    """The paper's workload for a chain of ``n_sites`` spins.

    Dimensions for the Table 2 sizes are returned from the published
    values (they equal our Burnside counts — asserted in the tests); other
    even sizes are computed exactly.
    """
    if n_sites in PAPER_TABLE2:
        dim = PAPER_TABLE2[n_sites]
    else:
        dim = chain_sector_dimension(
            n_sites, hamming_weight=n_sites // 2, momentum=0, parity=0, inversion=0
        )
    return ChainWorkload(n_sites=n_sites, dimension=dim)
