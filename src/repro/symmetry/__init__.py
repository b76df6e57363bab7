"""Lattice symmetries: permutations, character groups, sector dimensions.

The paper block-diagonalizes the Hamiltonian using U(1) (fixed Hamming
weight), translation, reflection, and spin-inversion symmetries.  This
subpackage provides:

- :class:`~repro.symmetry.permutation.Permutation` — site permutations with
  vectorized action on batches of basis states (fast paths for rotations
  and reflections);
- :class:`~repro.symmetry.group.Symmetry` /
  :class:`~repro.symmetry.group.SymmetryGroup` — generators with characters
  and their closure into a full (abelian-character) symmetry group;
- factories for common lattices (:mod:`repro.symmetry.symmetries`);
- exact sector-dimension counting via Burnside's lemma
  (:mod:`repro.symmetry.burnside`), which reproduces the paper's Table 2.
"""

from repro.symmetry.permutation import Permutation
from repro.symmetry.group import Symmetry, SymmetryGroup
from repro.symmetry.kernels import GroupKernel
from repro.symmetry.symmetries import (
    translation,
    reflection,
    spin_inversion,
    chain_symmetries,
    rectangle_translation,
)
from repro.symmetry.burnside import (
    sector_dimension,
    chain_sector_dimension,
    paper_table2,
)

__all__ = [
    "Permutation",
    "Symmetry",
    "SymmetryGroup",
    "GroupKernel",
    "translation",
    "reflection",
    "spin_inversion",
    "chain_symmetries",
    "rectangle_translation",
    "sector_dimension",
    "chain_sector_dimension",
    "paper_table2",
]
