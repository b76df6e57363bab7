"""The fused, allocation-free ``state_info`` group-action kernel.

``state_info`` — representative / character / stabilizer sum for a batch of
states — is one of the two kernels the paper's matvec spends its time in
(Sec. 2.1, 5.3), and the one every layer above calls: basis construction,
the symmetry projection inside ``getManyRows`` (the dense and sparse
export), the stabilizer sums of the distributed enumeration.  The
straightforward implementation (kept as the tests' oracle,
``tests/reference_kernels.py``) loops
over all |G| elements re-deriving each permutation's mask decomposition and
allocating fresh temporaries; this module replaces it with a
batch-compiled loop that

- applies each *distinct permutation* exactly once and derives its
  spin-flipped companion elements from the same word (lattice groups with
  spin inversion halve their permutation work this way);
- factors every permutation as ``p = rotate_k ∘ q`` with ``k = p(0)`` and
  ``q(0) = 0``, groups the permutations by their *base* ``q`` at kernel
  build time, runs each non-identity base once per call through its
  precompiled mask/shift network or byte-gather table, and derives every
  member of the base by a rotation of that batch — a dihedral chain has
  one such base (the reflection that fixes site 0), an ``nx × ny`` torus
  ``nx - 1`` (the x-shifts);
- works on top-aligned words: a base's state at the top of the word,
  doubled below itself where ``2 n_sites <= 64`` (``b << (64 - n) | b <<
  (64 - 2n)``, one multiply), so that the member rotated by ``k`` is
  ``word << k``, one pass.  What the shift brings in below the top ``n``
  bits is less significant than every site, so it never changes which
  state is smallest.  Wider lattices rotate with two shifts and an or;
- folds every element in untagged where every character other than the
  identity's has the bytes of ``1+0j`` (a phase that reads the same as the
  input's own): a non-flip into a running ``np.minimum``, a flip into a
  running ``np.maximum`` (the flipped minimum is the complement of that
  maximum), one pass each.  In any other sector every element is cut to
  its state (``& top``, then ``^ top`` if it flips) with its index in the
  character table in the low bits, ascending in visit order, so one
  ``np.minimum`` keeps the first element that reached the minimum, the
  input itself wins a tie as a strict ``<`` would, and the phase is one
  table ``take`` of the tags at the end.  A lattice whose states leave no
  room for a tag (``n_sites + idx_bits > 64``, 57 sites and up) keeps that
  index in a second array under a ``less`` mask instead;
- leaves the stabilizer sums out where the caller stores its
  representatives' norms (:meth:`GroupKernel.orbit_info`, the projection
  of every product, serial and distributed): the same loop then tests a
  fixed point only on elements whose character is not 1, which leaves 3
  passes (shift, minimum, maximum) per permutation with a flip in a sector
  whose characters are all 1, against 6 and 2 ``count_nonzero`` with the
  sums;
- walks a batch in strips of ``_STRIP`` states and reuses one set of
  scratch buffers per thread across calls, so the work arrays stay in
  cache, the steady-state loop allocates nothing beyond the result arrays,
  and concurrent callers (the ``threads`` backend's producers share one
  kernel) never see each other's work arrays.

The set-up filter (:meth:`GroupKernel.minima`, the Sec. 5.2 membership
test of basis construction and of the distributed enumeration) only
decides whether a candidate is its orbit's minimum, on the same top-aligned
words: one comparison and one ``logical_or`` per element, no cut, no tag
and no fixed-point test, and a candidate leaves the batch at the first
element that maps it below itself.  Its callers take the stabilizer sums
of the survivors in one :meth:`GroupKernel.in_sector` pass per
sector, which visits the elements in ``state_info``'s order.

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

#: :meth:`GroupKernel.minima` drops the dead states from its batch once
#: they are at least ``1/_CUT_SHARE`` of it, down to ``_CUT_MIN_BATCH``.
_CUT_SHARE = 4
_CUT_MIN_BATCH = 256

#: :meth:`GroupKernel.state_info` and :meth:`GroupKernel.orbit_info` walk a
#: batch in strips of this many states, so that their work arrays stay in
#: cache.
_STRIP = 1 << 15


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
        self.is_real = bool(np.all(np.abs(np.imag(characters)) < _REAL_TOL))
        self._flip_mask = bit_mask(n_sites)
        # The orbit loop works on top-aligned words: a state's bits at the
        # top (``top``), doubled below themselves where that fits, so that a
        # rotation is one left shift.  A tagged element's word is its state
        # with its ``phase_chars`` index in the low bits; a lattice too wide
        # for that (``packed`` false) keeps the index in a second array.
        idx_bits = self.size.bit_length()
        self._packed = n_sites + idx_bits <= 64
        self._doubled = 2 * n_sites <= 64
        self._lift = np.uint64(64 - n_sites)
        self._top = np.uint64(int(self._flip_mask) << (64 - n_sites))
        self._spread = np.uint64(
            (1 << (64 - n_sites)) + (1 << (64 - 2 * n_sites) if self._doubled else 0)
        )
        self._tag_mask = np.uint64((1 << idx_bits) - 1)
        # Factor each permutation as ``rotate_k ∘ base`` (``k = p(0)``,
        # ``base(0) = 0``) and group the elements by base, then by ``k``
        # (which coalesces equal permutations, flip companions included).
        # Insertion order is preserved so the element visit order stays
        # deterministic.
        cosets: dict[bytes, dict[int, list[tuple[bool, complex]]]] = {}
        for perm, flip, char in zip(permutations, flips, characters):
            k = int(perm.sites[0])
            base = (perm.sites - k) % n_sites
            variant = (bool(flip), np.conj(complex(char)))
            cosets.setdefault(base.tobytes(), {}).setdefault(k, []).append(variant)

        # Variant index 0 is reserved for "never improved" — the identity
        # element's unit character — so the phase lookup table has one
        # leading slot.
        phase_chars: list[complex] = [1.0 + 0.0j]
        # (applier or None for the identity base, members); a member is
        # (rotation shift pair or None, its flip variants); a variant is
        # (flip, conjugate character, tag, mark, unit) with ``mark`` what
        # one XOR puts on a cut word: the tag (none where it has no room),
        # and for a flip ``top`` too; ``unit`` whether the character is 1.
        self._bases: list[tuple[object, list]] = []
        # What one call does (telemetry: ``kernel.state_info_strategy
        # {strategy=...}`` adds ``strategy_counts`` per call): ``network``
        # compiled base applications, ``rotation`` permutations derived by
        # rotating a base batch, ``identity`` the input read as it is.
        strategies: list[str] = []
        # Whether the loop tags every element: unless each one other than
        # the identity has a phase with the bytes of the identity's
        # ``1+0j`` (a ``1-0j`` has not), which then needs no tag.
        self._tagged = False
        # No state at or above ``ceiling`` is its orbit's minimum: where the
        # group holds the pure spin flip, a state with its top bit set lies
        # above its flipped copy.
        pure_flip = any(f and p.is_identity for p, f in zip(permutations, flips))
        self.ceiling = 1 << (n_sites - pure_flip)
        identity = np.arange(n_sites).tobytes()
        for base, rotations in cosets.items():
            applier = None
            if base != identity:
                applier = compile_permutation(np.frombuffer(base, dtype=np.int64))
                strategies.append("network")
            members = []
            for k, variants in rotations.items():
                if k:
                    strategies.append("rotation")
                elif applier is None:
                    strategies.append("identity")
                marked = []
                for flip, chi_conj in variants:
                    phase_chars.append(chi_conj)
                    chi = chi_conj.real if self.is_real else chi_conj
                    tag = np.uint64(len(phase_chars) - 1)
                    mark = (tag if self._packed else 0) | (self._top if flip else 0)
                    unit = abs(chi_conj - 1) < _REAL_TOL
                    marked.append((flip, chi, tag, mark, unit))
                    plain = bool(chi == 1 and not np.signbit(np.imag(chi)))
                    self._tagged |= not plain and (applier is not None or k > 0 or flip)
                shifts = (np.uint64(k), np.uint64(n_sites - k)) if k else None
                members.append((shifts, marked))
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
        ``less``, ``fixed`` and ``dead`` are ``bool``, every other one
        ``uint64``.  Each is allocated when first asked for (``state_info``
        and ``minima`` share the permutation buffers and differ in the
        rest) and regrown when a batch exceeds it: ``minima`` takes its
        batch whole, the orbit loop a strip of at most ``_STRIP`` states,
        and every call then works in the same, cache-resident, memory."""
        arrays = vars(self._local)
        views = []
        for name in names:
            array = arrays.get(name)
            if array is None or array.size < m:
                dtype = bool if name in ("less", "fixed", "dead") else np.uint64
                array = arrays[name] = np.empty(m, dtype)
            views.append(array[:m])
        return views

    # -- the kernels --------------------------------------------------------

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
        states = as_states(states)
        self._observe(states.size)
        return self._run(states, units=True)

    def orbit_info(self, states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`state_info` without the stabilizer sums: ``(rep, phase,
        valid)``, ``valid`` where ``stab > STAB_TOL`` would be.

        A one-dimensional character sums over a stabilizer to its order,
        or to zero exactly when one of its elements has a character other
        than 1.  So the elements whose character is 1, bar the identity,
        are not tested for a fixed point: ``stab`` then ends at 1 on a
        state that survives and at ``1 - |Stab ∩ ker χ| <= 0`` on one that
        vanishes.  On a sector whose characters are all 1 that leaves 3
        passes per permutation with a flip, a shift, a ``minimum`` and a
        ``maximum``, instead of 6 and two ``count_nonzero``.
        """
        states = as_states(states)
        self._observe(states.size)
        rep, phase, stab = self._run(states, units=False)
        return rep, phase, stab > STAB_TOL

    def _run(self, states, units: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rep, phase, stab)`` of a batch, in its shape; ``units`` says
        whether the elements whose character is 1 count towards ``stab``.
        The orbit loop takes the batch a strip at a time."""
        states = as_states(states)
        s = states.ravel()
        stab = np.zeros(s.size, dtype=np.float64 if self.is_real else np.complex128)
        rep = np.empty(s.size, dtype=np.uint64)
        phase = np.empty(s.size, dtype=self._phase_table.dtype)
        for start in range(0, s.size, _STRIP):
            strip = slice(start, start + _STRIP)
            (idx,) = self._buffers(min(_STRIP, s.size - start), "idx")
            self._packed_loop(s[strip], stab[strip], units, rep[strip], idx)
            # A tag reads the same through either 64-bit type: no cast pass.
            self._phase_table.take(idx.view(np.int64), out=phase[strip])
        shape = states.shape
        return rep.reshape(shape), phase.reshape(shape), stab.real.reshape(shape)

    def _packed_loop(self, s, stab, units, rep, phase_idx) -> None:
        """Write the representatives of the strip ``s`` to ``rep`` and the
        ``phase_chars`` indices of their phases to ``phase_idx``, and add
        the stabilizer sums to ``stab`` (without ``units``, the characters
        of the elements other than 1 and the identity's).

        Each member is one word per state, its state at the top.  Untagged,
        a non-flip folds into ``lo`` (``minimum``, from the input) and a
        flip into ``hi`` (``maximum``, complemented at the end).  Tagged,
        every element is cut to its state with its tag in the low bits and
        folds into ``keys`` (``minimum``: tags ascend in visit order, and
        the input, ``lo``, wins a tie, so the phase is the one a strict
        ``<`` against the running representative keeps).  Where the tag has
        no room, ``keys`` holds the cut state and ``tidx`` the index, both
        copied under a ``less`` mask.  The fixed-point test compares the
        cut word with the input's (or its flipped copy) at the top.  Per
        permutation: one shift where the word is doubled, two shifts and an
        or where it is not, plus the cut where the loop tags or tests.  Per
        variant: one ``minimum`` or ``maximum``, an XOR before it where
        tagged, and an ``equal`` with a counted guard where tested.
        """
        m, lift, top, tagged = s.size, self._lift, self._top, self._tagged
        names = ("base", "y", "net", "lo", "hi", "keys", "fixed")
        base_out, y, net, lo, hi, keys, fixed = self._buffers(m, *names)
        np.multiply(s, self._spread, out=lo)
        if not tagged:
            hi.fill(0)
        else:
            keys.fill(~np.uint64(0))
        if tagged and not self._packed:
            tidx, less = self._buffers(m, "tidx", "less")
            tidx.fill(0)
        s_top = None

        for applier, members in self._bases:
            b = s
            if applier is not None:
                b = applier.apply(s, out=base_out, scratch=y, scratch2=net)
            base = np.multiply(b, self._spread, out=base_out)
            for shifts, variants in members:
                z = base if shifts is None else np.left_shift(base, shifts[0], out=y)
                if shifts is not None and not self._doubled:
                    np.bitwise_or(z, np.right_shift(base, shifts[1], out=net), out=z)
                cut = None
                for flip, chi, tag, mark, unit in variants:
                    if applier is None and shifts is None and not flip:
                        # g(s) == s for every state: pure stabilizer credit.
                        np.add(stab, chi, out=stab)
                        continue
                    tested = units or not unit
                    if cut is None and (tested or tagged):
                        cut = np.bitwise_and(z, top, out=y)
                    if not tagged and flip:
                        np.maximum(hi, z, out=hi)
                    elif not tagged:
                        np.minimum(lo, z, out=lo)
                    elif self._packed:
                        np.minimum(keys, np.bitwise_xor(cut, mark, out=net), out=keys)
                    else:
                        np.less(np.bitwise_xor(cut, mark, out=net), keys, out=less)
                        if np.count_nonzero(less):
                            np.copyto(keys, net, where=less)
                            np.copyto(tidx, tag, where=less)
                    if not tested:
                        continue
                    if s_top is None:
                        s_top, f_top = self._buffers(m, "s_top", "f_top")
                        np.left_shift(s, lift, out=s_top)
                        np.bitwise_xor(s_top, top, out=f_top)
                    np.equal(cut, f_top if flip else s_top, out=fixed)
                    # Non-trivial stabilizer elements are rare (most states
                    # sit in full-size orbits), so a counted guard plus a
                    # masked add on the few hits beats a full-width
                    # multiply-accumulate.
                    if np.count_nonzero(fixed):
                        stab[fixed] += chi

        if not tagged:
            np.minimum(lo, np.invert(hi, out=hi), out=lo)
            np.right_shift(lo, lift, out=rep)
            phase_idx.fill(0)
            return
        state = np.bitwise_and(keys, top, out=net) if self._packed else keys
        tags = np.bitwise_and(keys, self._tag_mask, out=keys) if self._packed else tidx
        np.bitwise_and(lo, top, out=lo)
        np.multiply(tags, np.less(state, lo, out=fixed), out=phase_idx)
        np.right_shift(np.minimum(lo, state, out=lo), lift, out=rep)

    def minima(self, states) -> np.ndarray:
        """The states of the batch, flattened and in its order, that are
        their orbit's minimum; a state with bits beyond the lattice is
        nobody's.

        This is the set-up filter: it only decides minimality, and a
        caller takes the stabilizer sums of what survives in one
        :meth:`in_sector` pass.  Each candidate keeps its state at
        the top of a word (``a_top``, zeros below) and that word's
        complement (``a_not``, ones below); a member is the top-aligned
        word of :meth:`_packed_loop` and carries junk below the top
        ``n_sites`` bits, which never decides an order test against these.
        So a non-flip kills ``s`` with ``z < a_top`` and a flip with ``z >
        a_not``: one comparison and one ``logical_or`` per variant (the
        pure flip's is ``s >= ceiling``, taken with the lattice's bound
        before the loop).  The batch shrinks roughly like ``1/k`` over
        the first ``k`` elements; a compaction gathers the survivors and
        a non-identity base, and rebuilds ``a_top``, ``a_not`` and the
        identity's word from the survivors.
        """
        s = as_states(states).ravel()
        alive, m, spread = s, s.size, self._spread
        names = ("y", "net", "base", "a_top", "a_not", "dead", "less")
        y, net, word, a_top, a_not, dead, less = self._buffers(m, *names)
        # Beyond the lattice, or at the ceiling: the pure flip's own test.
        np.greater(s, np.uint64(self.ceiling - 1), out=dead)
        np.left_shift(alive, self._lift, out=a_top)
        np.invert(a_top, out=a_not)

        for applier, members in self._bases:
            b = alive
            if applier is not None:
                b = applier.apply(alive, out=word, scratch=y, scratch2=net)
            base = np.multiply(b, spread, out=word)
            for shifts, variants in members:
                if not m:  # every candidate has died
                    break
                z = base if shifts is None else np.left_shift(base, shifts[0], out=y)
                if shifts is not None and not self._doubled:
                    np.bitwise_or(z, np.right_shift(base, shifts[1], out=net), out=z)
                for flip, *_ in variants:
                    if applier is None and shifts is None:
                        continue  # the identity, or the pure flip
                    if flip:
                        np.greater(z, a_not, out=less)
                    else:
                        np.less(z, a_top, out=less)
                    np.logical_or(dead, less, out=dead)
                # Cutting costs a few passes over the survivors: worth it
                # once a fair share has died, never on a batch so small
                # that the NumPy calls themselves are the cost.
                if m >= _CUT_MIN_BATCH and _CUT_SHARE * np.count_nonzero(dead) >= m:
                    keep = np.logical_not(dead, out=less)
                    alive = alive[keep]
                    if applier is not None:
                        base = base[keep]
                    m = alive.size
                    y, net, word, a_top, a_not, dead, less = self._buffers(m, *names)
                    dead.fill(False)
                    np.left_shift(alive, self._lift, out=a_top)
                    np.invert(a_top, out=a_not)
                    if applier is None:
                        base = np.multiply(alive, spread, out=word)

        self._observe(s.size)
        return alive[np.logical_not(dead, out=less)]

    def in_sector(self, minima) -> tuple[np.ndarray, np.ndarray]:
        """``(keep, stab)``: which of these orbit minima lie in the
        sector, ``stab > STAB_TOL``, and their stabilizer sums.  This is
        the one pass a caller of :meth:`minima` takes over its survivors;
        it visits the elements in :meth:`state_info`'s order, so the sums
        are bit for bit the ones ``state_info`` returns, and it is counted
        in no telemetry."""
        stab = self._run(minima, units=True)[2]
        keep = stab > STAB_TOL
        return keep, stab[keep]
