"""State-to-index ranking strategies.

``stateToIndex`` — mapping a basis state to its position in the basis — is
the operation the paper singles out as the key difference between
symmetry-adapted matrix-free products and ordinary CSR/stencil code.
:class:`SortedRanker` is the one strategy: a sorted array of states behind
a table of hashed slots, where one probe settles five queries in six and a
binary search the rest and every absent state.  Every basis with a
constraint ranks through it — a U(1) sector, a symmetry-adapted basis and
each locale's slice of a distributed one; only the full space keeps the
identity index.
"""

from __future__ import annotations

import numpy as np

from repro.bits.ops import as_states
from repro.errors import BasisError

__all__ = ["SortedRanker"]


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
