"""Symmetry generators, characters, and group closure.

A symmetry element is a pair ``(permutation, flip)`` where ``flip`` marks
composition with global spin inversion (which commutes with every site
permutation, so elements compose component-wise).  Each element carries the
character :math:`\\chi(g)` of the requested one-dimensional irreducible
representation; a basis restricted to that representation block-diagonalizes
any Hamiltonian commuting with the group (Sec. 2.1 of the paper).

The convention for the symmetry-adapted basis vector built from a
representative ``r`` (the smallest state of its orbit) is

.. math::  |\\tilde r\\rangle = \\frac{1}{\\sqrt{|G| N_r}}
           \\sum_{g \\in G} \\chi(g)^* \\, |g \\cdot r\\rangle,
           \\qquad N_r = \\sum_{g \\in \\mathrm{Stab}(r)} \\chi(g)^*,

which vanishes unless :math:`\\chi` is trivial on the stabilizer of ``r``
(then :math:`N_r = |\\mathrm{Stab}(r)|`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

import numpy as np

from repro.bits.ops import as_states, bit_mask, flip_all
from repro.errors import BasisError, InvalidSectorError
from repro.symmetry.kernels import GroupKernel
from repro.symmetry.permutation import Permutation

__all__ = ["Symmetry", "SymmetryGroup"]

#: Two characters closer than this are considered equal during closure.
CHARACTER_TOL = 1e-9


@dataclass(frozen=True)
class Symmetry:
    """A symmetry generator: a site permutation, an optional spin flip, and
    the symmetry sector.

    The generator's character is ``exp(-2j * pi * sector / order)`` where
    ``order`` is the order of the ``(permutation, flip)`` element, so
    ``sector`` is the usual momentum / parity quantum number (``0`` for the
    trivial representation, ``order // 2`` for the sign representation of an
    order-2 element, etc.).
    """

    permutation: Permutation
    sector: int = 0
    flip: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.permutation, Permutation):
            object.__setattr__(self, "permutation", Permutation(self.permutation))

    @property
    def n_sites(self) -> int:
        return self.permutation.n_sites

    @property
    def order(self) -> int:
        """Order of the group element (permutation order, doubled for an
        odd-order permutation combined with a flip)."""
        base = self.permutation.order
        return lcm(base, 2) if self.flip else base

    @property
    def character(self) -> complex:
        return complex(np.exp(-2j * np.pi * (self.sector % self.order) / self.order))


class SymmetryGroup:
    """The closure of a set of :class:`Symmetry` generators.

    Raises :class:`~repro.errors.InvalidSectorError` when the closure assigns
    inconsistent characters to the same element (the requested sector does
    not exist for this group).
    """

    def __init__(
        self,
        permutations: list[Permutation],
        flips: np.ndarray,
        characters: np.ndarray,
        n_sites: int,
    ) -> None:
        # Intern equal permutations so elements differing only by the flip
        # bit share one Permutation instance — and therefore one compiled
        # mask/shift network and one set of fast-path flags.
        interned: dict[Permutation, Permutation] = {}
        self._permutations = [interned.setdefault(p, p) for p in permutations]
        self._flips = np.asarray(flips, dtype=bool)
        self._characters = np.asarray(characters, dtype=np.complex128)
        self._n_sites = n_sites
        self._kernel: GroupKernel | None = None

    # -- construction -------------------------------------------------------

    @classmethod
    def trivial(cls, n_sites: int) -> "SymmetryGroup":
        """The group containing only the identity (no symmetries)."""
        return cls(
            [Permutation.identity(n_sites)],
            np.array([False]),
            np.array([1.0 + 0.0j]),
            n_sites,
        )

    @classmethod
    def from_generators(cls, generators: list[Symmetry]) -> "SymmetryGroup":
        if not generators:
            raise ValueError("need at least one generator; use trivial() instead")
        n = generators[0].n_sites
        if any(g.n_sites != n for g in generators):
            raise ValueError("all generators must act on the same number of sites")

        # Elements are keyed ``(site bytes, flip)``: a product is looked up
        # by its sites, and only a new element becomes a ``Permutation``.
        identity = Permutation.identity(n)
        elements: dict[tuple, tuple[Permutation, bool, complex]] = {
            (identity.sites.tobytes(), False): (identity, False, 1.0 + 0.0j)
        }
        gens = [(g.permutation.sites, g.flip, g.character) for g in generators]
        frontier = list(elements.values())
        while frontier:
            new_frontier = []
            for perm, flip, char in frontier:
                for gp, gf, gc in gens:
                    # apply generator after the current element:
                    # (gp, gf) o (perm, flip), i.e. ``gp @ perm``
                    sites, nflip, nchar = gp[perm.sites], gf ^ flip, gc * char
                    existing = elements.get((sites.tobytes(), nflip))
                    if existing is None:
                        element = (Permutation(sites), nflip, nchar)
                        elements[sites.tobytes(), nflip] = element
                        new_frontier.append(element)
                    elif abs(existing[2] - nchar) > CHARACTER_TOL:
                        raise InvalidSectorError(
                            "inconsistent characters for the same group element: "
                            f"{existing[2]:.6f} vs {nchar:.6f}; the requested "
                            "sector does not exist for this symmetry group"
                        )
            frontier = new_frontier

        perms = [v[0] for v in elements.values()]
        flips = np.array([v[1] for v in elements.values()])
        chars = np.array([v[2] for v in elements.values()])
        return cls(perms, flips, chars, n)

    # -- basic protocol -------------------------------------------------------

    @property
    def n_sites(self) -> int:
        return self._n_sites

    @property
    def size(self) -> int:
        return len(self._permutations)

    def __len__(self) -> int:
        return self.size

    @property
    def permutations(self) -> list[Permutation]:
        return list(self._permutations)

    @property
    def flips(self) -> np.ndarray:
        return self._flips

    @property
    def characters(self) -> np.ndarray:
        return self._characters

    @cached_property
    def is_real(self) -> bool:
        """True when every character is real (the sector supports a real
        Hamiltonian matrix and real vectors)."""
        return bool(np.all(np.abs(self._characters.imag) < CHARACTER_TOL))

    def __repr__(self) -> str:
        return f"SymmetryGroup(size={self.size}, n_sites={self.n_sites})"

    def apply_element(self, index: int, states) -> np.ndarray:
        """Apply group element ``index`` to a batch of basis states."""
        perm = self._permutations[index]
        if self._flips[index]:
            # Flip-composed elements of identity-permutation pairs skip the
            # (interned) permutation entirely — flip commutes with it.
            if perm.is_identity:
                return flip_all(as_states(states), self._n_sites)
            return flip_all(perm(states), self._n_sites)
        return perm(states)

    # -- the state_info kernel -------------------------------------------------

    @property
    def kernel(self) -> GroupKernel:
        """The fused batch kernel for this group (built once, lazily)."""
        if self._kernel is None:
            self._kernel = GroupKernel(
                self._permutations,
                self._flips,
                self._characters,
                self._n_sites,
            )
        return self._kernel

    def state_info(self, states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Representative, transformation character, and stabilizer sum.

        For each input state ``s`` returns:

        - ``rep``: the orbit representative ``min_g g(s)``;
        - ``phase``: ``conj(chi(h))`` for (one of) the ``h`` with
          ``h(s) == rep``; this is the factor relating the symmetrized
          vectors built from ``s`` and from ``rep``;
        - ``stab``: :math:`N_s = \\sum_{g(s) = s} \\chi(g)^*`, which is real
          and equals ``|Stab(s)|`` when the state survives in this sector and
          (numerically) zero otherwise.  ``N_s`` is invariant along the orbit,
          so ``stab`` also equals :math:`N_{rep}`.

        The projection of ``s`` onto the sector, ``P|s>`` with
        ``P = |G|^-1 sum_g chi(g)^* U_g``, has norm ``sqrt(stab / |G|)``
        (:attr:`repro.basis.SymmetricBasis.norms`); matrix elements only
        need the ratio ``sqrt(stab[rep'] / stab[rep])`` (see
        :class:`repro.basis.SymmetricBasis`), so ``stab`` is returned raw.

        A state with bits beyond ``n_sites`` raises
        :class:`~repro.errors.BasisError` naming the first one.

        This dispatches to the fused :class:`~repro.symmetry.kernels.GroupKernel`
        (precompiled permutations, reused scratch, real-characters fast
        path).  When every character is real, ``phase`` comes back as
        ``float64`` instead of ``complex128``.  The straightforward
        per-element implementation (``tests/reference_kernels.py``) is
        property-tested against it.
        """
        s, top = as_states(states), bit_mask(self._n_sites)
        if s.size and s.max() > top:
            beyond = s.flat[np.argmax(s.ravel() > top)]
            raise BasisError(f"state {beyond} has bits beyond n_sites={self.n_sites}")
        return self.kernel.state_info(s)
