"""Hash-distributed bases.

Each locale holds the (sorted) slice of basis states that
``localeIdxOf`` assigns to it, together with the one per-state number the
matrix-vector product needs from the symmetry: each representative's norm
:math:`\\sqrt{N_r}`, stored with the basis as in Wietek & Läuchli
(arXiv:1804.05028).  The ``stateToIndex`` of the paper becomes a lookup in
the local slice (:class:`~repro.basis.ranking.SortedRanker`: a slot probe,
then a binary search for what it does not settle), and the consumer that
ranks a destination reads its norm at that row.
"""

from __future__ import annotations

import numpy as np

from repro.basis.ranking import SortedRanker
from repro.basis.spin_basis import Basis
from repro.basis.symm_basis import sector_sums
from repro.distributed.hashing import locale_of
from repro.errors import DistributionError
from repro.runtime.cluster import Cluster

__all__ = ["DistributedBasis"]


class DistributedBasis:
    """A basis whose states are hash-distributed over a cluster.

    With a symmetry group it keeps one float64 per state,
    :attr:`norms` (:math:`\\sqrt{N_r}`), which the consumer that owns a
    row multiplies into every element it accumulates there; the
    producers' source factors :attr:`scales` are derived from it.

    Parameters
    ----------
    cluster:
        The simulated cluster.
    template:
        The underlying :class:`~repro.basis.Basis` describing the physics
        (symmetry group, U(1) sector).  It does not need to be built — all
        global state lives in ``parts``.
    parts:
        Per-locale sorted arrays of basis states, as produced by
        :func:`~repro.distributed.enumeration.enumerate_states`.  Each part
        is checked against ``template`` by
        :func:`~repro.basis.symm_basis.sector_sums`, one
        :class:`~repro.errors.BasisError` for the first state that does not
        belong to the sector; a wrong part count, a state on a locale its
        hash does not name and stabilizer arrays of the wrong shapes raise
        :class:`~repro.errors.DistributionError`.
    stabilizers:
        Per-locale stabilizer sums of ``parts``' states, for a caller that
        ran the membership predicate and has them (the enumeration's
        filter); ``None`` computes them here, one ``state_info`` pass per
        part, for a template with a symmetry group.
    """

    def __init__(
        self,
        cluster: Cluster,
        template: Basis,
        parts: list[np.ndarray],
        stabilizers: list[np.ndarray] | None = None,
    ) -> None:
        if len(parts) != cluster.n_locales:
            raise DistributionError(
                f"expected {cluster.n_locales} parts, got {len(parts)}"
            )
        if stabilizers is not None and (
            [np.shape(s) for s in stabilizers] != [np.shape(p) for p in parts]
        ):
            raise DistributionError(
                "stabilizers must hold one sum per state of every part"
            )
        for locale, part in enumerate(parts):
            owners = locale_of(part, cluster.n_locales)
            if part.size and not np.all(owners == locale):
                raise DistributionError(
                    f"part {locale} contains states hashed to other locales"
                )
        given = zip(parts, stabilizers or [None] * len(parts))
        sums = [sector_sums(template, part, stab) for part, stab in given]
        self.cluster = cluster
        self.template = template
        self.parts = parts
        self.rankers = [SortedRanker(p) for p in parts]
        self.counts = np.array([p.size for p in parts], dtype=np.int64)
        self._norms = None if sums[0] is None else list(map(np.sqrt, sums))

    # -- inspection -----------------------------------------------------------

    @property
    def n_sites(self) -> int:
        return self.template.n_sites

    @property
    def dim(self) -> int:
        return int(self.counts.sum())

    @property
    def n_locales(self) -> int:
        return self.cluster.n_locales

    @property
    def norms(self) -> list[np.ndarray] | None:
        """Per-locale :math:`\\sqrt{N_r}` of ``parts``' states, the one
        float64 per state the basis keeps (``None`` without a symmetry
        group): the destination factor the consumer multiplies in at the
        row it ranks."""
        return self._norms

    @property
    def scales(self) -> list[np.ndarray] | None:
        """Per-locale source factors :math:`1/\\sqrt{N_r}`, derived from
        :attr:`norms` on each access (bit-equal to
        :func:`~repro.basis.symm_basis.source_scales` of the sums)."""
        return None if self._norms is None else [1.0 / n for n in self._norms]

    @property
    def is_real(self) -> bool:
        return self.template.is_real

    @property
    def scalar_dtype(self) -> np.dtype:
        return self.template.scalar_dtype

    @property
    def load_imbalance(self) -> float:
        """Max over mean of the per-locale state counts (1.0 is perfect —
        the hashed distribution typically sits within a fraction of a
        percent of it, the point of Sec. 5.1)."""
        mean = self.counts.mean()
        return float(self.counts.max() / mean) if mean > 0 else 1.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistributedBasis(dim={self.dim}, locales={self.n_locales}, "
            f"imbalance={self.load_imbalance:.4f})"
        )

    # -- lookups ------------------------------------------------------------

    def locale_of(self, states) -> np.ndarray:
        return locale_of(states, self.n_locales)

    def index_local(self, locale: int, states) -> np.ndarray:
        """Local indices of ``states`` in locale ``locale``'s slice — the
        distributed ``stateToIndex`` (the local part's
        :class:`~repro.basis.ranking.SortedRanker`)."""
        return self.rankers[locale].rank(states)

    def global_states(self) -> np.ndarray:
        """All basis states, globally sorted (gathers; small scale only)."""
        merged = (
            np.concatenate(self.parts)
            if self.parts
            else np.empty(0, dtype=np.uint64)
        )
        return np.sort(merged)
