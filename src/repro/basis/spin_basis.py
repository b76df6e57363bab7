"""Plain spin-1/2 bases: the full Hilbert space and fixed-magnetization
(U(1)) sectors."""

from __future__ import annotations

import abc
import math
from functools import cached_property

import numpy as np

from repro.bits.ops import as_states, bit_mask, popcount, states_with_weight
from repro.basis.ranking import SortedRanker
from repro.errors import BasisError

__all__ = ["Basis", "SpinBasis"]

#: Refuse to materialize more than this many states at once.
_MAX_MATERIALIZED = 1 << 26


class Basis(abc.ABC):
    """Common interface of all bases.

    A basis defines the mapping between 64-bit *basis states* and dense
    vector *indices* (see Fig. 1 of the paper), plus the projection of raw
    Hamiltonian output states back onto basis members, which is where
    symmetry characters and norms enter.
    """

    #: number of lattice sites
    n_sites: int
    #: Hamming-weight constraint, or None for the full space
    hamming_weight: int | None

    @property
    @abc.abstractmethod
    def dim(self) -> int:
        """Number of basis elements."""

    @property
    @abc.abstractmethod
    def states(self) -> np.ndarray:
        """All basis states in index order (ascending ``uint64``)."""

    @abc.abstractmethod
    def index(self, queries) -> np.ndarray:
        """Map basis states to indices (the paper's ``stateToIndex``)."""

    def in_space(self, candidates) -> np.ndarray:
        """Which candidates lie within the ``n_sites`` and, with a weight
        constraint, have that Hamming weight: the whole membership test of
        a plain basis.  A symmetric one adds the group's, the set-up
        filter :meth:`~repro.symmetry.kernels.GroupKernel.minima` and one
        :meth:`~repro.symmetry.kernels.GroupKernel.in_sector` pass over
        its survivors (the paper's Sec. 5.2 predicate)."""
        c = as_states(candidates)
        mask = c <= bit_mask(self.n_sites)
        if self.hamming_weight is not None:
            mask &= popcount(c) == np.uint64(self.hamming_weight)
        return mask

    @abc.abstractmethod
    def project(self, raw_states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project raw states onto basis members.

        Returns ``(members, factors, valid)``: for each raw state ``s``, the
        basis state its symmetrized vector is proportional to, the
        proportionality factor (character phase times the destination norm
        contribution), and whether the projection is non-zero.  For plain
        bases the projection is the identity with factor 1.
        """

    def surviving(self, raw_states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`project` with ``members`` and ``factors`` cut to the
        ``valid`` raw states (``getManyRows``' projection)."""
        members, factors, valid = self.project(raw_states)
        if np.all(valid):
            return members, factors, valid
        return members[valid], factors[valid], valid

    def orbits(self, raw_states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`surviving` without the destination norm in ``factors``:
        the distributed producers' projection, whose consumer multiplies
        the norm in at the row it ranks.  A plain basis has no norm, so
        this is :meth:`surviving`."""
        return self.surviving(raw_states)

    def locate(self, raw_states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`surviving` with the members' indices (:meth:`index`) in
        their place: the serial product's projection, which a basis that
        stores its norms may read instead of recomputing them."""
        members, factors, valid = self.surviving(raw_states)
        return self.index(members), factors, valid

    @property
    def source_scale(self) -> np.ndarray | None:
        """Optional per-index multiplier applied to matrix-element columns
        (``1/sqrt(N_r)`` for symmetry-adapted bases, ``None`` otherwise)."""
        return None

    @property
    def is_real(self) -> bool:
        """Whether matrix elements in this basis are real."""
        return True

    @property
    def scalar_dtype(self) -> np.dtype:
        return np.dtype(np.float64 if self.is_real else np.complex128)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n_sites={self.n_sites}, "
            f"hamming_weight={self.hamming_weight}, dim={self.dim})"
        )


class SpinBasis(Basis):
    """The full ``2**n`` Hilbert space, or a fixed-magnetization sector.

    With ``hamming_weight=None`` the index of a state is the state itself;
    a sector ranks in its sorted states like every other basis (a
    :class:`~repro.basis.ranking.SortedRanker`, built on the first
    :meth:`index`).  ``dim`` is ``C(n_sites, hamming_weight)`` without
    materializing anything; a sector too large to materialize refuses
    :meth:`index` as it refuses ``states``, with a
    :class:`~repro.errors.BasisError`.
    """

    def __init__(self, n_sites: int, hamming_weight: int | None = None) -> None:
        if not 1 <= n_sites <= 63:
            raise ValueError(f"n_sites must be in [1, 63], got {n_sites}")
        if hamming_weight is not None and not 0 <= hamming_weight <= n_sites:
            raise ValueError("hamming_weight must be in [0, n_sites]")
        self.n_sites = n_sites
        self.hamming_weight = hamming_weight

    @property
    def dim(self) -> int:
        if self.hamming_weight is None:
            return 1 << self.n_sites
        return math.comb(self.n_sites, self.hamming_weight)

    @cached_property
    def states(self) -> np.ndarray:
        if self.dim > _MAX_MATERIALIZED:
            raise BasisError(
                f"refusing to materialize {self.dim} states; "
                "use the distributed enumeration instead"
            )
        return states_with_weight(self.n_sites, self.hamming_weight)

    @cached_property
    def _ranker(self) -> SortedRanker:
        return SortedRanker(self.states)

    def index(self, queries) -> np.ndarray:
        q = as_states(queries)
        if q.size and int(q.max()) > bit_mask(self.n_sites):
            raise BasisError("state outside the Hilbert space")
        if self.hamming_weight is None:
            return q.astype(np.int64)
        return self._ranker.rank(q)

    def project(self, raw_states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        raw = as_states(raw_states)
        factors = np.ones(raw.shape, dtype=np.float64)
        return raw, factors, self.in_space(raw)
