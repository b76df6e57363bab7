"""Symmetry-adapted basis: orbit representatives, characters, and norms.

This implements the machinery sketched in Sec. 2.1 and Fig. 1 of the paper:
after fixing a symmetry sector, one basis state is kept per surviving group
orbit (the *representative*, chosen as the orbit minimum), and the mapping
between representatives and dense indices (``stateToIndex``) is a
:class:`~repro.basis.ranking.SortedRanker`: a slot probe, then a binary
search.

Matrix-element convention (derived from the projector
:math:`P = |G|^{-1}\\sum_g \\chi(g)^* U_g`): if the matrix-free kernel
produces :math:`H|\\alpha\\rangle = \\sum_c c\\,|s_c\\rangle` for a
representative :math:`\\alpha`, then for each output state with
representative :math:`r_c = h_c \\cdot s_c`,

.. math:: \\langle \\tilde r_c | H | \\tilde\\alpha \\rangle
          \\;+\\!=\\; c\\; \\chi(h_c)^* \\sqrt{N_{r_c} / N_\\alpha},

where :math:`N_r` is the stabilizer character sum returned by
:meth:`~repro.symmetry.group.SymmetryGroup.state_info`.  The two factors are
split between :meth:`SymmetricBasis.project` (destination part,
:math:`\\chi^* \\sqrt{N_{r_c}}`) and :attr:`SymmetricBasis.source_scale`
(source part, :math:`1/\\sqrt{N_\\alpha}`).
"""

from __future__ import annotations

import numpy as np

from repro.basis.ranking import SortedRanker
from repro.basis.spin_basis import Basis
from repro.bits.ops import as_states, bit_mask, candidate_batches, popcount
from repro.errors import BasisError
from repro.symmetry.group import SymmetryGroup
from repro.symmetry.kernels import STAB_TOL as _STAB_TOL

__all__ = ["SymmetricBasis"]

class SymmetricBasis(Basis):
    """Basis of surviving orbit representatives of a symmetry group.

    Parameters
    ----------
    group:
        The symmetry group with characters (one sector).
    hamming_weight:
        Optional U(1) constraint.  Required if the group contains
        spin-inversion elements only when the weight is compatible
        (``n/2``); an incompatible combination yields an empty basis.
    build:
        Build the representative list eagerly (default).  With
        ``build=False`` the basis can still :meth:`check` candidates — the
        mode used by the distributed enumeration, which assembles the state
        list itself.
    """

    def __init__(
        self,
        group: SymmetryGroup,
        hamming_weight: int | None = None,
        build: bool = True,
    ) -> None:
        from repro.symmetry.burnside import check_weight_compatible

        check_weight_compatible(group, hamming_weight)
        self._group = group
        self.n_sites = group.n_sites
        self.hamming_weight = hamming_weight
        self._states: np.ndarray | None = None
        self._ranker: SortedRanker | None = None
        self._stab: np.ndarray | None = None
        self._inv_sqrt_stab: np.ndarray | None = None
        if build:
            self.build()

    # -- construction -----------------------------------------------------

    def build(self) -> "SymmetricBasis":
        """Enumerate representatives (serial reference implementation).

        The distributed version of this operation is
        :func:`repro.distributed.enumeration.enumerate_states`, validated
        against this one in the tests.
        """
        if self._states is not None:
            return self
        kept: list[np.ndarray] = []
        stabs: list[np.ndarray] = []
        for chunk in candidate_batches(self.n_sites, self.hamming_weight):
            positions, stab = self._group.representatives(chunk)
            kept.append(chunk[positions])
            stabs.append(stab)
        states = np.concatenate(kept) if kept else np.empty(0, dtype=np.uint64)
        stab = np.concatenate(stabs) if stabs else np.empty(0)
        self._set_representatives(states, stab)
        return self

    def _set_representatives(self, states: np.ndarray, stab: np.ndarray) -> None:
        """Install a pre-computed representative list (used by the
        distributed enumeration and by :meth:`build`)."""
        self._states = states
        self._ranker = SortedRanker(states)
        self._stab = stab
        with np.errstate(divide="ignore"):
            self._inv_sqrt_stab = np.where(
                stab > _STAB_TOL, 1.0 / np.sqrt(np.maximum(stab, _STAB_TOL)), 0.0
            )

    @classmethod
    def from_representatives(
        cls,
        group: SymmetryGroup,
        states: np.ndarray,
        hamming_weight: int | None = None,
    ) -> "SymmetricBasis":
        """Build a basis from an externally enumerated representative list:
        strictly increasing, each state its orbit's minimum and present in
        the sector (:class:`~repro.errors.BasisError` names the first that
        is not)."""
        basis = cls(group, hamming_weight=hamming_weight, build=False)
        states = as_states(states)
        if states.ndim != 1:
            raise BasisError("representatives must be a one-dimensional list")
        rep, _, stab = group.state_info(states)
        unordered = np.zeros(states.size, dtype=bool)
        unordered[1:] = states[1:] <= states[:-1]
        for fault, why in (
            (unordered, "is not above the state before it"),
            (rep != states, "is not the minimum of its orbit"),
            (stab <= _STAB_TOL, "is not in this sector"),
        ):
            if np.any(fault):
                at = int(np.argmax(fault))
                raise BasisError(
                    f"provided state {int(states[at])} (position {at}) {why}"
                )
        basis._set_representatives(states, stab)
        return basis

    def _require_built(self) -> None:
        if self._states is None:
            raise BasisError("basis has not been built yet; call build()")

    # -- Basis interface ------------------------------------------------------

    @property
    def group(self) -> SymmetryGroup:
        return self._group

    @property
    def dim(self) -> int:
        self._require_built()
        return self._states.size

    @property
    def states(self) -> np.ndarray:
        self._require_built()
        return self._states

    @property
    def stabilizer_sums(self) -> np.ndarray:
        """:math:`N_r` for each representative (in index order)."""
        self._require_built()
        return self._stab

    @property
    def norms(self) -> np.ndarray:
        """Norms :math:`\\sqrt{N_r/|G|}` of the symmetrized basis vectors."""
        self._require_built()
        return np.sqrt(self._stab / self._group.size)

    @property
    def is_real(self) -> bool:
        return self._group.is_real

    @property
    def source_scale(self) -> np.ndarray:
        self._require_built()
        return self._inv_sqrt_stab

    def index(self, queries) -> np.ndarray:
        self._require_built()
        return self._ranker.rank(queries)

    def check(self, candidates) -> np.ndarray:
        c = as_states(candidates)
        mask = c <= bit_mask(self.n_sites)
        if self.hamming_weight is not None:
            mask &= popcount(c) == np.uint64(self.hamming_weight)
        if not np.any(mask):
            return mask
        # Only run the group loop on states passing the cheap filters.
        out = np.zeros(c.shape, dtype=bool)
        out[mask] = self._group.is_representative(c[mask])
        return out

    def project(self, raw_states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        raw = as_states(raw_states)
        rep, phase, stab = self._group.state_info(raw)
        valid = stab > _STAB_TOL
        factors = phase * np.sqrt(np.maximum(stab, 0.0))
        if self.is_real:
            factors = factors.real
        return rep, factors, valid
