"""Many-body bases: full, U(1)-restricted, and symmetry-adapted.

A *basis* maps between 64-bit basis states (bit patterns of up/down spins)
and dense vector indices.  In the presence of symmetries the two are no
longer trivially related (Fig. 1 of the paper): the basis stores one
*representative* per surviving group orbit, and ``index`` performs the
lookup the paper calls ``stateToIndex`` (a slot probe, then the paper's
binary search for what the probe does not settle).
"""

from repro.basis.ranking import SortedRanker
from repro.basis.spin_basis import Basis, SpinBasis
from repro.basis.symm_basis import SymmetricBasis

__all__ = [
    "Basis",
    "SpinBasis",
    "SymmetricBasis",
    "SortedRanker",
]
