"""The reference ``state_info``: one allocating pass per group element.

The correctness oracle of the fused kernel
(:meth:`repro.symmetry.SymmetryGroup.state_info`) in the tests, and the
honest baseline of its speedup in ``benchmarks/bench_kernels.py``:
permutations other than a pure rotation or reversal are applied through
the uncached :func:`~repro.bits.permutations.apply_permutation_to_states`
path that re-derives the mask decomposition on every call, exactly as the
code did before the compiled-network kernels existed.  Beside it,
:func:`full_orbit`, the brute-force orbit the group tests hold the
representatives and stabilizers against.
"""

from __future__ import annotations

import numpy as np

from repro.bits.ops import as_states, flip_all, reverse_bits, rotate_left
from repro.bits.permutations import apply_permutation_to_states


def apply_element_reference(group, index: int, s: np.ndarray) -> np.ndarray:
    """Group element ``index`` applied the pre-compilation way: rotation and
    reversal fast paths, the uncached mask path for the rest."""
    perm, n = group.permutations[index], group.n_sites
    k = perm.rotation_amount
    if k is not None:
        y = rotate_left(s, k, n)
    elif perm.reversed_rotation_amount == 0:  # the reversal i -> n-1-i
        y = reverse_bits(s, n)
    else:
        y = apply_permutation_to_states(perm.sites, s)
    if group.flips[index]:
        y = flip_all(y, n)
    return y


def state_info_reference(group, states):
    """``(rep, phase, stab)`` as ``group.state_info`` defines them."""
    s = as_states(states)
    rep = s.copy()
    phase = np.ones(s.shape, dtype=np.complex128)
    stab = np.zeros(s.shape, dtype=np.complex128)
    for i in range(group.size):
        y = apply_element_reference(group, i, s)
        chi_conj = np.conj(group.characters[i])
        smaller = y < rep
        if np.any(smaller):
            rep[smaller] = y[smaller]
            phase[smaller] = chi_conj
        fixed = y == s
        if np.any(fixed):
            stab[fixed] += chi_conj
    return rep, phase, stab.real


def full_orbit(group, state: int) -> np.ndarray:
    """All distinct states in the orbit of a single state (sorted), one
    group element at a time."""
    s = np.asarray(state, dtype=np.uint64)
    return np.unique([group.apply_element(i, s) for i in range(group.size)])
