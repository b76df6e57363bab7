"""Site permutations with vectorized action on basis states."""

from __future__ import annotations

from functools import cached_property
from math import lcm

import numpy as np

from repro.bits.ops import BITS_DTYPE
from repro.bits.permutations import compile_permutation

__all__ = ["Permutation"]


class Permutation:
    """A permutation of ``n_sites`` lattice sites.

    ``perm[i]`` is the site that site ``i`` is mapped to.  Acting on a basis
    state moves bit ``i`` to bit ``perm[i]``.  Instances are immutable and
    hashable so they can key group-closure dictionaries.

    Whether it is a pure rotation or a rotated reversal is detected eagerly
    at construction (:attr:`rotation_amount`,
    :attr:`reversed_rotation_amount`).  The action on states is compiled
    once into a mask/shift network or byte-gather table (:attr:`network`,
    see :mod:`repro.bits.permutations`), which calling the permutation
    applies; per-call work never re-derives it.
    """

    __slots__ = (
        "_perm",
        "_rotation_amount",
        "_reversed_rotation_amount",
        "__dict__",
    )

    def __init__(self, perm) -> None:
        arr = np.asarray(perm, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("a permutation must be a 1-D sequence of sites")
        n = arr.size
        if n == 0 or n > 64:
            raise ValueError(f"number of sites must be in [1, 64], got {n}")
        if not np.array_equal(np.sort(arr), np.arange(n)):
            raise ValueError(f"not a permutation of range({n}): {arr.tolist()}")
        arr.setflags(write=False)
        self._perm = arr
        # Eager detection: both checks are O(n); ``is_identity`` (the group
        # kernel's pure-flip test) reads the first.
        k = int(arr[0])
        self._rotation_amount = (
            k if np.array_equal(arr, (np.arange(n) + k) % n) else None
        )
        # Rotation-of-reversal detection: perm == rotate_k ∘ reversal, i.e.
        # perm[i] == (n - 1 - i + k) % n (k = 0: the reversal itself).  Every
        # element of a dihedral chain group is either a rotation or one of
        # these.
        kr = (int(arr[0]) + 1) % n
        self._reversed_rotation_amount = (
            kr if np.array_equal(arr, (n - 1 - np.arange(n) + kr) % n) else None
        )

    # -- basic protocol ----------------------------------------------------

    @property
    def sites(self) -> np.ndarray:
        """The underlying mapping as a read-only ``int64`` array."""
        return self._perm

    @property
    def n_sites(self) -> int:
        return self._perm.size

    def __len__(self) -> int:
        return self._perm.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return np.array_equal(self._perm, other._perm)

    def __hash__(self) -> int:
        return hash(self._perm.tobytes())

    def __repr__(self) -> str:
        return f"Permutation({self._perm.tolist()})"

    # -- group operations ----------------------------------------------------

    @classmethod
    def identity(cls, n_sites: int) -> "Permutation":
        return cls(np.arange(n_sites))

    def __matmul__(self, other: "Permutation") -> "Permutation":
        """Composition ``self @ other``: apply ``other`` first, then ``self``.

        ``(self @ other)(x) == self(other(x))`` for any basis state ``x``.
        """
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.n_sites != other.n_sites:
            raise ValueError("cannot compose permutations of different sizes")
        # bit i -> other[i] -> self[other[i]]
        return Permutation(self._perm[other._perm])

    @property
    def is_identity(self) -> bool:
        return self._rotation_amount == 0

    @cached_property
    def cycle_lengths(self) -> tuple[int, ...]:
        """Lengths of the disjoint cycles, in decreasing order."""
        n = self.n_sites
        seen = np.zeros(n, dtype=bool)
        lengths: list[int] = []
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = int(self._perm[j])
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths, reverse=True))

    @cached_property
    def order(self) -> int:
        """Smallest ``m >= 1`` with ``perm^m == identity``."""
        return lcm(*self.cycle_lengths)

    # -- action on basis states -----------------------------------------------

    @property
    def rotation_amount(self) -> int | None:
        """``k`` if this permutation is ``i -> (i+k) % n``; else ``None``."""
        return self._rotation_amount

    @property
    def reversed_rotation_amount(self) -> int | None:
        """``k`` if this permutation equals ``rotate_k ∘ reversal`` — i.e.
        ``perm(x) == rotate_left(reverse_bits(x, n), k, n)`` — else ``None``."""
        return self._reversed_rotation_amount

    @cached_property
    def network(self):
        """The precompiled applier (mask/shift network or byte table).

        Built once per permutation and shared by every group element that
        holds this permutation (see ``SymmetryGroup``'s interning), so hot
        loops never re-derive the decomposition.
        """
        return compile_permutation(self._perm)

    def __call__(self, states) -> np.ndarray:
        """Apply the permutation to a batch of basis states through
        :attr:`network`."""
        return self.network.apply(np.asarray(states, dtype=BITS_DTYPE))
