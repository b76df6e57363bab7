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
split between the destination part, :math:`\\chi^* \\sqrt{N_{r_c}}`, and
:attr:`SymmetricBasis.source_scale` (source part, :math:`1/\\sqrt{N_\\alpha}`,
derived from the stored sums on each access, as the distributed basis
derives its ``scales``).
The destination part comes from one of three places.
:meth:`SymmetricBasis.project` (``getManyRows``, the dense and sparse
export) sums :math:`N_{r_c}` over each raw state's stabilizer.
:meth:`SymmetricBasis.locate` (the serial product) finds the
representative and its row first and reads :math:`N_{r_c}` from
:attr:`SymmetricBasis.stabilizer_sums` at that row: the same factor, bit
for bit.  :meth:`SymmetricBasis.orbits` (the distributed producers)
returns :math:`\\chi^*` alone, and the locale that owns the row
multiplies in its stored :math:`\\sqrt{N_{r_c}}` after the input
amplitude (:attr:`repro.distributed.DistributedBasis.norms`).
"""

from __future__ import annotations

import numpy as np

from repro.basis.ranking import SortedRanker
from repro.basis.spin_basis import Basis
from repro.bits.ops import as_states, candidate_batches
from repro.errors import BasisError
from repro.symmetry.group import SymmetryGroup
from repro.symmetry.kernels import STAB_TOL as _STAB_TOL

__all__ = ["SymmetricBasis", "sector_sums", "source_scales"]


def sector_sums(template: Basis, states, sums=None) -> np.ndarray | None:
    """The rule for a basis built from given states; their stabilizer sums.

    ``states`` must be a one-dimensional, strictly increasing list of
    states that pass ``template``'s range and weight filters
    (:meth:`Basis.in_space`) and, if the template has a symmetry group,
    are each their orbit's minimum with stabilizer sum ``> STAB_TOL`` —
    one :meth:`~repro.symmetry.group.SymmetryGroup.state_info` pass, or
    none when the caller ran the predicate already and hands its ``sums``
    over.  Returns the sums (``None`` for a template without a group);
    :func:`source_scales` turns them into the norms.  Anything else raises
    one :class:`~repro.errors.BasisError` naming the first bad state and
    why.
    """
    states = as_states(states)
    if states.ndim != 1:
        raise BasisError("the given states must be a one-dimensional list")
    unordered = np.zeros(states.size, dtype=bool)
    unordered[1:] = states[1:] <= states[:-1]
    faults = {
        "is not above the state before it": unordered,
        f"is outside n_sites={template.n_sites}, "
        f"hamming_weight={template.hamming_weight}": ~template.in_space(states),
    }
    group = getattr(template, "group", None)
    if group is not None:
        if sums is None:
            rep, _, sums = group.kernel.state_info(states)
            faults["is not the minimum of its orbit"] = rep != states
        faults["is not in this sector"] = sums <= _STAB_TOL
    bad = np.array(list(faults.values()))
    if bad.any():
        at = int(np.argmax(bad.any(axis=0)))
        why = list(faults)[int(np.argmax(bad[:, at]))]
        raise BasisError(f"given state {int(states[at])} (position {at}) {why}")
    return None if group is None else sums


def source_scales(sums: np.ndarray) -> np.ndarray:
    """The source norms ``1/sqrt(N_r)`` of the stabilizer sums
    :func:`sector_sums` returned."""
    return 1.0 / np.sqrt(sums)


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
        ``build=False`` the basis describes the sector without listing it
        (its group, weight and projection) — the mode used by the
        distributed enumeration, which assembles the state list itself.
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
        kernel = self._group.kernel
        kept = [np.empty(0, dtype=np.uint64)]
        for chunk in candidate_batches(self.n_sites, self.hamming_weight):
            if int(chunk[0]) >= kernel.ceiling:
                break  # candidates ascend, and no minimum lies at or above it
            kept.append(kernel.minima(chunk))
        minima = np.concatenate(kept)
        # One sums pass over the sector's minima drops those outside it.
        keep, stab = kernel.in_sector(minima)
        self._set_representatives(minima[keep], stab)
        return self

    def _set_representatives(self, states, stab=None) -> None:
        """Install a representative list that passes :func:`sector_sums`
        (``stab``: its sums, from a caller that ran the predicate)."""
        states = as_states(states)
        self._stab = sector_sums(self, states, stab)
        self._states = states
        self._ranker = SortedRanker(states)

    @classmethod
    def from_representatives(
        cls,
        group: SymmetryGroup,
        states: np.ndarray,
        hamming_weight: int | None = None,
    ) -> "SymmetricBasis":
        """Build a basis from an externally enumerated representative list,
        which :func:`sector_sums` checks (any subset of the sector's
        representatives, in increasing order, is one)."""
        basis = cls(group, hamming_weight=hamming_weight, build=False)
        basis._set_representatives(states)
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
        """:func:`source_scales` of :attr:`stabilizer_sums`, derived on each
        access (one pass over the basis; a product reads it once)."""
        self._require_built()
        return source_scales(self._stab)

    def index(self, queries) -> np.ndarray:
        self._require_built()
        return self._ranker.rank(queries)

    def project(self, raw_states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rep, phase, stab = self._group.state_info(raw_states)
        return rep, phase * np.sqrt(np.maximum(stab, 0.0)), stab > _STAB_TOL

    def orbits(self, raw_states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(representatives, phases, valid)`` cut to the ``valid`` raw
        states, from :meth:`~repro.symmetry.kernels.GroupKernel.orbit_info`
        (no stabilizer sums): :meth:`project` without :math:`\\sqrt{N_r}`,
        for a caller that reads the norm at the destination's row.  Needs
        no built basis."""
        rep, phase, valid = self._group.kernel.orbit_info(raw_states)
        if not np.all(valid):
            rep, phase = rep[valid], phase[valid]
        return rep, phase, valid

    def locate(self, raw_states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`Basis.locate` with each destination's :math:`N_r` read
        from :attr:`stabilizer_sums` at its row (:meth:`orbits`, then the
        ranker), where :meth:`project` sums it over the raw state's
        stabilizer: the same numbers, bit for bit, for fewer kernel
        passes."""
        self._require_built()
        rep, phase, valid = self.orbits(raw_states)
        rows = self._ranker.rank(rep)
        return rows, phase * np.sqrt(self._stab[rows]), valid
