"""State-to-index ranking strategies.

``stateToIndex`` — mapping a basis state to its position in the basis — is
the operation the paper singles out as the key difference between
symmetry-adapted matrix-free products and ordinary CSR/stencil code.  Two
strategies are provided:

- :class:`SortedRanker` — a sorted array of states behind a table of
  hashed slots: one probe settles five queries in six, a binary search the
  rest and every absent state (the serial basis and each locale's slice of
  the distributed one run it);
- :class:`CombinatorialRanker` — closed-form combinadic ranking for pure
  U(1) bases (fixed Hamming weight, no lattice symmetries), useful as a
  faster alternative and as an independent cross-check.
"""

from __future__ import annotations

import numpy as np

from repro.bits.ops import as_states
from repro.errors import BasisError

__all__ = [
    "SortedRanker",
    "CombinatorialRanker",
    "binomial_table",
]


def binomial_table(n: int) -> np.ndarray:
    """The binomial coefficients as an ``(n+1, n+1)`` ``int64`` table.

    ``table[m, k] == C(m, k)``; entries with ``k > m`` are zero.  ``n`` must
    be at most 63 so that every entry fits into a signed 64-bit integer
    (``C(63, 31)`` is the largest needed here, well under ``2**63``).
    """
    if not 0 <= n <= 63:
        raise ValueError(f"n must be in [0, 63], got {n}")
    table = np.zeros((n + 1, n + 1), dtype=np.int64)
    table[:, 0] = 1
    for m in range(1, n + 1):
        table[m, 1:] = table[m - 1, 1:] + table[m - 1, :-1]
    return table


#: 2**64 / golden ratio: the multiplier of the slot hash (Fibonacci
#: hashing — the product's top bits mix every bit of the state).
_SLOT_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


class SortedRanker:
    """Ranking in a sorted array of basis states: one probe of a slot
    table, and a binary search for the queries the probe does not settle.

    The table has ``2**(bit_length(size - 1) + 1)`` slots — two to four per
    state — and slot ``(state * 0x9E3779B97F4A7C15) >> (64 - bits)`` holds
    the position of the lowest state hashing there (``int32`` positions
    while they fit: 8-16 B per state).  A query whose slot holds another
    state, or none, goes through ``np.searchsorted``; so does every absent
    state, which is how it is told from a collision.
    """

    def __init__(self, states: np.ndarray) -> None:
        states = as_states(states)
        if states.ndim != 1:
            raise ValueError("states must be one-dimensional")
        if states.size > 1 and not np.all(states[1:] > states[:-1]):
            raise ValueError("states must be strictly increasing")
        self._states = states
        bits = max(states.size - 1, 0).bit_length() + 1
        self._shift = np.uint64(64 - bits)
        positions = np.arange(
            states.size, dtype=np.int32 if states.size < 2**31 else np.int64
        )
        # An empty slot reads position 0: a miss like any other collision,
        # unless the query is the first state.  Descending, so that of the
        # states sharing a slot the lowest is written last and stays.
        self._slots = np.zeros(1 << bits, dtype=positions.dtype)
        self._slots[self._slot_of(states)[::-1]] = positions[::-1]

    def _slot_of(self, flat: np.ndarray) -> np.ndarray:
        """Slot numbers of a 1-D batch (``int64`` view: ``take`` wants
        signed indices and a slot number reads the same through both)."""
        return ((flat * _SLOT_MULTIPLIER) >> self._shift).view(np.int64)

    @property
    def states(self) -> np.ndarray:
        return self._states

    @property
    def size(self) -> int:
        return self._states.size

    def rank(self, queries) -> np.ndarray:
        """Indices of ``queries`` in the basis (``int64``).

        Raises :class:`~repro.errors.BasisError` if any query is absent —
        including every query against an empty basis (previously an
        ``IndexError`` from indexing the empty state array with ``-1``).
        """
        idx, found = self.try_rank(queries)
        if not found.all():
            missing = as_states(queries)[~found]
            detail = "the basis is empty"
            if self._states.size:
                detail = f"first missing: {int(missing.flat[0])}"
            raise BasisError(
                f"{missing.size} state(s) not found in the basis ({detail})"
            )
        return idx

    def try_rank(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """Like :meth:`rank` but returns ``(indices, found_mask)``; indices
        of missing states are undefined."""
        q = as_states(queries)
        states = self._states
        if states.size == 0:
            return np.zeros(q.shape, dtype=np.int64), np.zeros(q.shape, dtype=bool)
        # Flat, also for a 0-d query: NumPy warns when a *scalar* uint64
        # product overflows, which the slot hash does by design.
        flat = q.ravel()
        idx = self._slots.take(self._slot_of(flat)).astype(np.int64)
        found = states.take(idx) == flat
        missed = np.flatnonzero(~found)
        if missed.size:
            rest = flat[missed]
            at = np.minimum(np.searchsorted(states, rest), states.size - 1)
            idx[missed] = at
            found[missed] = states.take(at) == rest
        return idx.reshape(q.shape), found.reshape(q.shape)


class CombinatorialRanker:
    """Closed-form combinadic ranking of fixed-Hamming-weight states.

    The weight-``w`` states of ``n`` bits, sorted numerically, are the
    colexicographically ordered ``w``-combinations of bit positions, so the
    rank of a state with set bits :math:`p_1 < p_2 < \\dots < p_w` is
    :math:`\\sum_{j=1}^{w} \\binom{p_j}{j}`.
    """

    def __init__(self, n_sites: int, hamming_weight: int) -> None:
        if not 0 <= hamming_weight <= n_sites:
            raise ValueError("hamming_weight must be in [0, n_sites]")
        if n_sites > 63:
            raise ValueError("CombinatorialRanker supports at most 63 sites")
        self._n = n_sites
        self._w = hamming_weight
        self._table = binomial_table(n_sites)

    @property
    def size(self) -> int:
        return int(self._table[self._n, self._w]) if self._w <= self._n else 0

    def rank(self, queries) -> np.ndarray:
        q = as_states(queries).astype(np.int64)
        rank = np.zeros(q.shape, dtype=np.int64)
        nth_bit = np.zeros(q.shape, dtype=np.int64)
        for pos in range(self._n):
            bit = (q >> pos) & 1
            nth_bit += bit
            rank += bit * self._table[pos, np.minimum(nth_bit, self._n)]
        if np.any(nth_bit != self._w):
            raise BasisError(
                "query state has wrong Hamming weight for this U(1) sector"
            )
        return rank

    def unrank(self, indices) -> np.ndarray:
        """Inverse of :meth:`rank`: the state at each basis index."""
        idx = np.asarray(indices, dtype=np.int64).copy()
        if idx.size and (idx.min() < 0 or idx.max() >= self.size):
            raise BasisError("basis index out of range")
        out = np.zeros(idx.shape, dtype=np.uint64)
        remaining = np.full(idx.shape, self._w, dtype=np.int64)
        for pos in range(self._n - 1, -1, -1):
            contrib = self._table[pos, np.minimum(remaining, self._n)]
            take = (remaining > 0) & (idx >= contrib)
            out |= np.where(take, np.uint64(1) << np.uint64(pos), np.uint64(0))
            idx -= np.where(take, contrib, 0)
            remaining -= take.astype(np.int64)
        return out
