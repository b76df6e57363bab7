"""Exact symmetry-sector dimensions via Burnside / character counting.

The dimension of the sector selected by a one-dimensional character
:math:`\\chi` is the trace of the projector
:math:`P = |G|^{-1} \\sum_g \\chi(g)^* U_g`:

.. math::  \\dim = \\frac{1}{|G|} \\sum_{g \\in G} \\chi(g)^* F(g),

where :math:`F(g)` is the number of basis states fixed by ``g`` (restricted
to the requested Hamming weight for U(1) symmetry).  ``F(g)`` follows from
the cycle structure of the permutation:

- pure permutation: a fixed state is constant on each cycle, so the number
  of weight-``w`` fixed states is the coefficient of ``z^w`` in
  :math:`\\prod_j (1 + z^{l_j})` over cycle lengths ``l_j``;
- permutation combined with spin inversion: going around a cycle of length
  ``l`` flips the spin ``l`` times, so all cycles must be even; each even
  cycle admits exactly two fixed assignments, both of weight ``l/2``.

Everything is computed with exact integer arithmetic when every character is
:math:`\\pm 1` (which covers the paper's Table 2), and in floating point with
an integrality check otherwise.  This lets us reproduce Table 2 exactly —
dimensions up to :math:`1.7\\times 10^{11}` for 48 spins — without ever
enumerating the :math:`2^{48}` basis states.
"""

from __future__ import annotations

from math import comb

import numpy as np

from repro.errors import InvalidSectorError
from repro.symmetry.group import SymmetryGroup
from repro.symmetry.symmetries import chain_symmetries

__all__ = [
    "fixed_states_count",
    "sector_dimension",
    "chain_sector_dimension",
    "paper_table2",
    "check_weight_compatible",
    "PAPER_TABLE2",
]


def check_weight_compatible(group: SymmetryGroup, hamming_weight: int | None) -> None:
    """Reject U(1) constraints the group does not preserve.

    Spin inversion maps Hamming weight ``w`` to ``n - w``; combining it with
    a fixed weight is only a symmetry at half filling.
    """
    if hamming_weight is None:
        return
    if any(group.flips) and 2 * hamming_weight != group.n_sites:
        raise InvalidSectorError(
            "spin inversion is only compatible with half filling: "
            f"got hamming_weight={hamming_weight} on {group.n_sites} sites"
        )

#: Sector dimensions reported in Table 2 of the paper (closed chains, half
#: filling, k=0, even reflection parity, even spin inversion).
PAPER_TABLE2: dict[int, int] = {
    40: 861_725_794,
    42: 3_204_236_779,
    44: 11_955_836_258,
    46: 44_748_176_653,
    48: 167_959_144_032,
}


def _weight_polynomial(cycle_lengths: tuple[int, ...], max_weight: int) -> list[int]:
    """Coefficients of ``prod_j (1 + z^{l_j})`` up to degree ``max_weight``."""
    poly = [0] * (max_weight + 1)
    poly[0] = 1
    for length in cycle_lengths:
        for degree in range(max_weight, length - 1, -1):
            poly[degree] += poly[degree - length]
    return poly


def fixed_states_count(
    cycle_lengths: tuple[int, ...],
    flip: bool,
    hamming_weight: int | None,
) -> int:
    """Number of basis states fixed by an element with the given cycles."""
    n_cycles = len(cycle_lengths)
    if flip:
        if any(length % 2 for length in cycle_lengths):
            return 0
        if hamming_weight is not None:
            # Every fixed state has exactly half the spins up.
            if 2 * hamming_weight != sum(cycle_lengths):
                return 0
        return 2**n_cycles
    if hamming_weight is None:
        return 2**n_cycles
    if hamming_weight > sum(cycle_lengths):
        return 0
    return _weight_polynomial(cycle_lengths, hamming_weight)[hamming_weight]


def sector_dimension(
    group: SymmetryGroup, hamming_weight: int | None = None
) -> int:
    """Exact dimension of the symmetry sector selected by ``group``.

    ``hamming_weight`` restricts to the U(1) sector with that many up spins.
    Spin-inversion elements only preserve the U(1) constraint at half
    filling, so any other weight raises
    :class:`~repro.errors.InvalidSectorError`.
    """
    check_weight_compatible(group, hamming_weight)
    characters = group.characters
    real_pm_one = bool(
        np.all(np.abs(characters.imag) < 1e-12)
        and np.all(np.abs(np.abs(characters.real) - 1.0) < 1e-12)
    )
    counts = [
        fixed_states_count(perm.cycle_lengths, bool(flip), hamming_weight)
        for perm, flip in zip(group.permutations, group.flips)
    ]
    if real_pm_one:
        total = sum(
            (1 if chi.real > 0 else -1) * count
            for chi, count in zip(characters, counts)
        )
        if total % group.size != 0:
            raise ArithmeticError(
                "character sum not divisible by group order; "
                "inconsistent sector specification"
            )
        return total // group.size
    total_c = sum(np.conj(chi) * count for chi, count in zip(characters, counts))
    value = total_c.real / group.size
    rounded = int(round(value))
    if abs(value - rounded) > 1e-6 * max(1.0, abs(value)) or abs(
        total_c.imag
    ) > 1e-6 * max(1.0, abs(total_c.real)):
        raise ArithmeticError(
            f"non-integral sector dimension {total_c / group.size}; "
            "floating-point characters lost too much precision"
        )
    return rounded


def chain_sector_dimension(
    n_sites: int,
    hamming_weight: int | None = None,
    momentum: int | None = 0,
    parity: int | None = 0,
    inversion: int | None = 0,
) -> int:
    """Sector dimension of a closed chain (see :func:`chain_symmetries`)."""
    group = chain_symmetries(
        n_sites, momentum=momentum, parity=parity, inversion=inversion
    )
    return sector_dimension(group, hamming_weight)


def paper_table2(sizes: tuple[int, ...] = (40, 42, 44, 46, 48)) -> dict[int, int]:
    """Recompute the matrix dimensions of the paper's Table 2 exactly."""
    return {
        n: chain_sector_dimension(
            n, hamming_weight=n // 2, momentum=0, parity=0, inversion=0
        )
        for n in sizes
    }
