"""The fused, allocation-free ``state_info`` group-action kernel.

``state_info`` — representative / character / stabilizer sum for a batch of
states — is one of the two kernels the paper's matvec spends its time in
(Sec. 2.1, 5.3), and the one every layer above calls: basis construction,
the symmetry projection inside ``getManyRows`` (the dense and sparse
export), the distributed enumeration's membership filter.  The straightforward implementation (kept
as the tests' oracle, ``tests/reference_kernels.py``) loops
over all |G| elements re-deriving each permutation's mask decomposition and
allocating fresh temporaries; this module replaces it with a
batch-compiled loop that

- applies each *distinct permutation* exactly once and derives its
  spin-flipped companion elements with a single in-place XOR (lattice
  groups with spin inversion halve their permutation work this way);
- factors every permutation as ``p = rotate_k ∘ q`` with ``k = p(0)`` and
  ``q(0) = 0``, groups the permutations by their *base* ``q`` at kernel
  build time, runs each non-identity base once per call through its
  precompiled mask/shift network or byte-gather table, and derives every
  member of the base by a rotation of that batch — a dihedral chain has
  one such base (the reflection that fixes site 0), an ``nx × ny`` torus
  ``nx - 1`` (the x-shifts);
- keeps the running representative *and* the element that first reached
  it in one packed word, ``key = state << idx_bits | tag`` (the tag is the
  element's index in the character table, ascending in visit order), so an
  element is folded in with one ``np.minimum`` — no compare, no masked
  copies — and the phase is one table ``take`` of the tags at the end: the
  loop never touches a float/complex phase array, and a real-characters
  sector never materializes complex phases at all;
- rotates in key space: where ``2 n_sites + idx_bits <= 64`` (every
  lattice up to 28 sites) out of the base's doubled word ``d = (b | b <<
  n) << idx_bits`` as ``(d >> (n - k)) & field``, two passes; wider
  lattices with two shifts, an or and an and; a lattice whose states leave
  no room for a tag (``n_sites + idx_bits > 64``, 57 sites and up) keeps
  the compare-and-copy loop, the one remaining branch, chosen at kernel
  build.  Per permutation with a flip companion that is 8 passes over
  words and 2 ``count_nonzero`` over bools;
- leaves the stabilizer sums out where the caller stores its
  representatives' norms (:meth:`GroupKernel.orbit_info`, the projection
  of every product, serial and distributed): the same loop then tests a
  fixed point only on
  elements whose character is not 1, 6 passes per permutation with a flip
  in a sector whose characters are all 1;
- reuses one set of scratch buffers per thread across calls — the
  steady-state loop performs zero allocations beyond the result arrays,
  and concurrent callers (the ``threads`` backend's producers share one
  kernel) never see each other's work arrays.

Results match the reference element-for-element: representatives exactly,
stabilizer sums up to float summation order, and phases on every state
that survives the sector (see ``tests/test_state_info_fast.py``); states
must lie within the lattice's ``n_sites`` bits.
"""

from __future__ import annotations

import threading
from collections import Counter

import numpy as np

from repro.bits.ops import as_states, bit_mask
from repro.bits.permutations import compile_permutation
from repro.symmetry.permutation import Permutation
from repro.telemetry.context import current as current_telemetry

__all__ = ["GroupKernel", "STAB_TOL"]

#: Characters with |imag| below this are treated as real (matches
#: ``repro.symmetry.group.CHARACTER_TOL``).
_REAL_TOL = 1e-9

#: Stabilizer sums below this are treated as zero (state absent from the
#: sector); a surviving state's sum is ``|Stab(s)| >= 1``.
STAB_TOL = 1e-6

#: :meth:`GroupKernel.representatives` drops the dead states from its batch
#: once they are at least ``1/_CUT_SHARE`` of it, down to ``_CUT_MIN_BATCH``.
_CUT_SHARE = 4
_CUT_MIN_BATCH = 256


class GroupKernel:
    """Batch-compiled group action for one symmetry group.

    Built lazily by :class:`~repro.symmetry.group.SymmetryGroup` (one per
    group) from its element list; the constructor groups elements by
    permutation so flip-companions reuse each permuted batch, and the
    permutations by base so each base is permuted once and its members are
    rotations of that batch.
    """

    def __init__(
        self,
        permutations: list[Permutation],
        flips: np.ndarray,
        characters: np.ndarray,
        n_sites: int,
    ) -> None:
        self.n_sites = n_sites
        self.size = len(permutations)
        self.is_real = bool(
            np.all(np.abs(np.imag(characters)) < _REAL_TOL)
        )
        self._flip_mask = bit_mask(n_sites)
        # The packed loop works on ``key = state << idx_bits | tag``: the
        # tag is the element's ``phase_chars`` index (at most |G|), the
        # field the state's bits in key space.  A lattice too wide for its
        # keys (``packed`` false) keeps the compare-and-copy loop.
        idx_bits = self.size.bit_length()
        self._packed = n_sites + idx_bits <= 64
        self._doubled = 2 * n_sites + idx_bits <= 64
        self._idx_bits = np.uint64(idx_bits)
        self._tag_mask = np.uint64((1 << idx_bits) - 1)
        self._field = self._flip_mask << self._idx_bits  # where packed
        self._n_sites = np.uint64(n_sites)
        self._has_flips = bool(np.any(flips))
        # Factor each permutation as ``rotate_k ∘ base`` (``k = p(0)``,
        # ``base(0) = 0``) and group the elements by base, then by ``k``
        # (which coalesces equal permutations, flip companions included).
        # Insertion order is preserved so the element visit order stays
        # deterministic.
        cosets: dict[bytes, dict[int, list[tuple[bool, complex]]]] = {}
        for perm, flip, char in zip(permutations, flips, characters):
            k = int(perm.sites[0])
            base = (perm.sites - k) % n_sites
            cosets.setdefault(base.tobytes(), {}).setdefault(k, []).append(
                (bool(flip), np.conj(complex(char)))
            )

        # Variant index 0 is reserved for "never improved" — the identity
        # element's unit character — so the phase lookup table has one
        # leading slot.
        phase_chars: list[complex] = [1.0 + 0.0j]
        # (applier or None for the identity base, members); a member is
        # (rotation shift pair or None, its flip variants); a variant is
        # (flip, conjugate character, mark, unit) with ``mark`` what one
        # XOR puts on a rotated key: the tag, and for a flip the whole field
        # too (the bare tag where keys are not packed); ``unit`` whether
        # the character is 1.
        self._bases: list[tuple[object, list]] = []
        # What one call does (telemetry: ``kernel.state_info_strategy
        # {strategy=...}`` adds ``strategy_counts`` per call): ``network``
        # compiled base applications, ``rotation`` permutations derived by
        # rotating a base batch, ``identity`` the input read as it is.
        strategies: list[str] = []
        identity = np.arange(n_sites).tobytes()
        for base, rotations in cosets.items():
            applier = None
            if base != identity:
                applier = compile_permutation(
                    np.frombuffer(base, dtype=np.int64)
                )
                strategies.append("network")
            members = []
            for k, variants in rotations.items():
                if k:
                    strategies.append("rotation")
                elif applier is None:
                    strategies.append("identity")
                tagged = []
                for flip, chi_conj in variants:
                    phase_chars.append(chi_conj)
                    chi = chi_conj.real if self.is_real else chi_conj
                    mark = np.uint64(len(phase_chars) - 1)
                    if flip and self._packed:
                        mark |= self._field
                    unit = abs(chi_conj - 1) < _REAL_TOL
                    tagged.append((flip, chi, mark, unit))
                shifts = (np.uint64(k), np.uint64(n_sites - k)) if k else None
                members.append((shifts, tagged))
            self._bases.append((applier, members))
        self.strategy_counts: dict[str, int] = dict(Counter(strategies))
        table = np.asarray(phase_chars, dtype=np.complex128)
        self._phase_table = table.real.copy() if self.is_real else table
        # One kernel serves every thread of the ``threads`` backend, so the
        # work arrays are per thread.
        self._local = threading.local()

    # -- scratch management -------------------------------------------------

    def _buffers(self, m: int, *names: str) -> list[np.ndarray]:
        """This thread's work arrays of those names, cut to ``m`` states:
        ``less`` and ``fixed`` are ``bool``, every other one ``uint64``.
        Each is allocated when first asked for (``state_info`` and
        ``representatives`` share the three permutation buffers and differ
        in the rest) and regrown when a batch exceeds it: a matvec's
        batches differ in length, the longest sizes the arrays once and
        every call then works in the same, cache-resident, memory."""
        arrays = vars(self._local)
        views = []
        for name in names:
            array = arrays.get(name)
            if array is None or array.size < m:
                dtype = bool if name in ("less", "fixed") else np.uint64
                array = arrays[name] = np.empty(m, dtype)
            views.append(array[:m])
        return views

    # -- the kernels --------------------------------------------------------

    def _rotated(self, base, shifts, y, net, mask) -> np.ndarray:
        """One member's batch: ``base`` rotated left by the member's
        amount within the bits of ``mask`` (the lattice's, or the field
        for keys), into ``y``; ``base`` itself at zero.  ``net`` is
        scratch, free again on return (the flipped companion goes there)."""
        if shifts is None:
            return base
        kk, nk = shifts
        np.left_shift(base, kk, out=y)
        np.right_shift(base, nk, out=net)
        np.bitwise_or(y, net, out=y)
        np.bitwise_and(y, mask, out=y)
        return y

    def _observe(self, n_states: int) -> None:
        metrics = current_telemetry().metrics
        if not metrics.enabled:
            return
        metrics.counter("kernel.state_info_states").inc(n_states)
        for strategy, count in self.strategy_counts.items():
            metrics.counter(
                "kernel.state_info_strategy", strategy=strategy
            ).inc(count)

    def state_info(self, states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fused representative / phase / stabilizer-sum computation.

        Semantics are those of
        :meth:`repro.symmetry.group.SymmetryGroup.state_info`; ``phase``
        comes back ``float64`` instead of ``complex128`` when every
        character is real.
        """
        return self._run(states, units=True)

    def orbit_info(self, states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`state_info` without the stabilizer sums: ``(rep, phase,
        valid)``, ``valid`` where ``stab > STAB_TOL`` would be.

        A one-dimensional character sums over a stabilizer to its order,
        or to zero exactly when one of its elements has a character other
        than 1.  So the elements whose character is 1, bar the identity,
        are not tested for a fixed point: ``stab`` then ends at 1 on a
        state that survives and at ``1 - |Stab ∩ ker χ| <= 0`` on one that
        vanishes.  On a sector whose characters are all 1 that leaves 6
        passes per permutation with a flip instead of 10.
        """
        rep, phase, stab = self._run(states, units=False)
        return rep, phase, stab > STAB_TOL

    def _run(self, states, units: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rep, phase, stab)`` of a batch, in its shape; ``units`` says
        whether the elements whose character is 1 count towards ``stab``."""
        states = as_states(states)
        s = states.ravel()
        stab = np.zeros(s.size, dtype=np.float64 if self.is_real else np.complex128)
        loop = self._packed_loop if self._packed else self._compare_and_copy
        rep, phase_idx = loop(s, stab, units)
        phase = self._phase_table.take(phase_idx)
        self._observe(s.size)
        shape = states.shape
        return rep.reshape(shape), phase.reshape(shape), stab.real.reshape(shape)

    def _packed_loop(self, s, stab, units) -> tuple[np.ndarray, np.ndarray]:
        """``(rep, phase_idx)`` of the flat batch ``s`` and its stabilizer
        sums added to ``stab`` (without ``units``, the characters of the
        elements other than 1 and the identity's), on packed keys.

        The running minimum and the first element that reached it are one
        word, ``state << idx_bits | tag``: tags ascend in visit order and
        the input itself carries tag 0, so ``np.minimum`` breaks a tie the
        way a strict ``<`` against the running representative does.  A
        rotated key has zero tag bits, which makes either variant one XOR
        with its mark and lets the fixed-point test compare it with the
        shifted input (or its flipped copy) as it is.  Per variant: xor,
        minimum, equal and a counted guard; per permutation two passes of
        rotation, ``(d >> (n - k)) & field``, out of the base's doubled
        word ``d = (b | b << n) << idx_bits`` where that fits 64 bits, four
        in key space where it does not.
        """
        m, n, bits, field = s.size, self._n_sites, self._idx_bits, self._field
        doubled = self._doubled
        y, net, base_out, shifted, fixed = self._buffers(
            m, "y", "net", "base", "shifted", "fixed"
        )
        np.left_shift(s, bits, out=shifted)
        if self._has_flips:
            (flipped,) = self._buffers(m, "flipped")
            np.bitwise_xor(shifted, field, out=flipped)
        best = shifted.copy()

        for applier, members in self._bases:
            # The base in key space; doubled, ``base | base << n``.
            if applier is None:
                base = shifted
            else:
                b = applier.apply(s, out=base_out, scratch=y, scratch2=net)
                base = np.left_shift(b, bits, out=y if doubled else base_out)
            if doubled:
                np.left_shift(base, n, out=base_out)
                base = np.bitwise_or(base_out, base, out=base_out)
            for shifts, variants in members:
                if applier is None and shifts is None:
                    z0 = shifted
                elif doubled:
                    np.right_shift(base, shifts[1] if shifts else n, out=y)
                    z0 = np.bitwise_and(y, field, out=y)
                else:
                    z0 = self._rotated(base, shifts, y, net, field)
                for flip, chi_conj, mark, unit in variants:
                    if z0 is shifted and not flip:
                        # g(s) == s for every state: pure stabilizer credit.
                        np.add(stab, chi_conj, out=stab)
                        continue
                    np.bitwise_xor(z0, mark, out=net)
                    np.minimum(best, net, out=best)
                    if unit and not units:
                        continue
                    np.equal(z0, flipped if flip else shifted, out=fixed)
                    # Non-trivial stabilizer elements are rare (most states
                    # sit in full-size orbits), so a counted guard plus a
                    # masked add on the few hits beats a full-width
                    # multiply-accumulate.
                    if np.count_nonzero(fixed):
                        stab[fixed] += chi_conj

        # A tag reads the same through either 64-bit type: no cast pass.
        phase_idx = np.bitwise_and(best, self._tag_mask, out=y).view(np.int64)
        return np.right_shift(best, bits, out=best), phase_idx

    def _compare_and_copy(self, s, stab, units) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_packed_loop` for lattices whose states leave no room for
        a tag (``n_sites + idx_bits > 64``): representative and element
        index in two arrays, updated under a mask where an element
        improves."""
        rep, mask = s.copy(), self._flip_mask
        phase_idx = np.zeros(s.size, dtype=np.uint16)
        y, net, base_out, less, fixed = self._buffers(
            s.size, "y", "net", "base", "less", "fixed"
        )
        for applier, members in self._bases:
            base = s
            if applier is not None:
                base = applier.apply(s, out=base_out, scratch=y, scratch2=net)
            for shifts, variants in members:
                z0 = self._rotated(base, shifts, y, net, mask)
                for flip, chi_conj, tag, unit in variants:
                    if z0 is s and not flip:
                        np.add(stab, chi_conj, out=stab)
                        continue
                    z = np.bitwise_xor(z0, mask, out=net) if flip else z0
                    np.less(z, rep, out=less)
                    if np.count_nonzero(less):
                        np.copyto(rep, z, where=less)
                        np.copyto(phase_idx, tag, where=less)
                    if unit and not units:
                        continue
                    np.equal(z, s, out=fixed)
                    if np.count_nonzero(fixed):
                        stab[fixed] += chi_conj
        return rep, phase_idx

    def representatives(self, states) -> tuple[np.ndarray, np.ndarray]:
        """The surviving orbit representatives of a batch.

        Returns ``(positions, stab)``: the ascending indices into the
        flattened batch of the states that are their orbit's minimum and
        have ``stab > STAB_TOL``, and :meth:`state_info`'s ``stab`` for
        exactly those states.  A state is dropped as soon as one element
        maps it below itself, so the batch shrinks roughly like ``1/k``
        over the first ``k`` elements; the survivors meet every element in
        :meth:`state_info`'s order, which makes their stabilizer sums
        bit-identical to it.
        """
        s = as_states(states).ravel()
        alive, m = s, s.size
        names = ("y", "net", "base", "less", "fixed")
        y, net, base_out, dead, fixed = self._buffers(m, *names)
        positions = None  # of ``alive`` in ``s``; None until the first cut
        stab = np.zeros(m, dtype=np.float64 if self.is_real else np.complex128)
        # A state with bits beyond the lattice is nobody's representative.
        np.greater(s, self._flip_mask, out=dead)

        for applier, members in self._bases:
            # ``None`` stands for ``alive`` itself, which cuts replace.
            base = (
                None
                if applier is None
                else applier.apply(alive, out=base_out, scratch=y, scratch2=net)
            )
            for shifts, variants in members:
                z0 = self._rotated(
                    alive if base is None else base, shifts, y, net,
                    self._flip_mask,
                )
                for flip, chi_conj, *_ in variants:
                    if z0 is alive and not flip:
                        np.add(stab, chi_conj, out=stab)
                        continue
                    z = (
                        np.bitwise_xor(z0, self._flip_mask, out=net)
                        if flip
                        else z0
                    )
                    np.less(z, alive, out=fixed)
                    np.logical_or(dead, fixed, out=dead)
                    np.equal(z, alive, out=fixed)
                    if np.count_nonzero(fixed):
                        stab[fixed] += chi_conj
                # Cutting costs about as much as one more element on the
                # whole batch: worth it once a fair share has died, never on
                # a batch so small that the NumPy calls themselves are the
                # cost.
                if m >= _CUT_MIN_BATCH and _CUT_SHARE * np.count_nonzero(dead) >= m:
                    keep = ~dead
                    alive, stab = alive[keep], stab[keep]
                    if base is not None:
                        base = base[keep]
                    positions = (
                        np.flatnonzero(keep) if positions is None else positions[keep]
                    )
                    m = alive.size
                    y, net, base_out, dead, fixed = self._buffers(m, *names)
                    dead.fill(False)

        stab = stab.real
        keep = ~dead & (stab > STAB_TOL)
        positions = np.flatnonzero(keep) if positions is None else positions[keep]
        self._observe(s.size)
        return positions, stab[keep]
