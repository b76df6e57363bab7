"""The fused, allocation-free ``state_info`` group-action kernel.

``state_info`` — representative / character / stabilizer sum for a batch of
states — is one of the two kernels the paper's matvec spends its time in
(Sec. 2.1, 5.3), and the one every layer above calls: basis construction,
the symmetry projection inside ``getManyRows``, the distributed
enumeration's membership filter.  The straightforward implementation (kept
as :meth:`~repro.symmetry.group.SymmetryGroup.state_info_reference`) loops
over all |G| elements re-deriving each permutation's mask decomposition and
allocating fresh temporaries; this module replaces it with a
batch-compiled loop that

- applies each *distinct permutation* exactly once and derives its
  spin-flipped companion elements with a single in-place XOR (lattice
  groups with spin inversion halve their permutation work this way);
- classifies each permutation once at kernel build time into a strategy:
  identity (reuse the input), rotation (four in-place shift/or/and ops),
  rotation-of-reversal (one shared reversed batch, then a rotation — this
  covers *every* element of a dihedral chain group, eliminating generic
  gathers entirely), or a precompiled mask/shift network / byte-gather
  table for irregular permutations;
- tracks the phase as a ``uint16`` element index (one cheap masked scalar
  write per improving element) and materializes the character array once
  at the end — the loop never touches a wide float/complex phase array,
  and a real-characters sector never materializes complex phases at all;
- reuses one set of scratch buffers across calls — the steady-state loop
  performs zero allocations beyond the result arrays.

Results match the reference element-for-element: representatives exactly,
stabilizer sums up to float summation order, and phases exactly on every
state that survives the sector (see ``tests/test_state_info_fast.py``).
"""

from __future__ import annotations

from time import perf_counter

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


class _Scratch:
    """Reusable work arrays for one batch shape."""

    __slots__ = ("shape", "y", "yf", "net", "rev", "less", "fixed")

    def __init__(self, shape) -> None:
        self.shape = shape
        self.y = np.empty(shape, dtype=np.uint64)
        self.yf = np.empty(shape, dtype=np.uint64)
        self.net = np.empty(shape, dtype=np.uint64)
        self.rev = np.empty(shape, dtype=np.uint64)
        self.less = np.empty(shape, dtype=bool)
        self.fixed = np.empty(shape, dtype=bool)


class GroupKernel:
    """Batch-compiled group action for one symmetry group.

    Built lazily by :class:`~repro.symmetry.group.SymmetryGroup` (one per
    group) from its element list; the constructor groups elements by
    permutation so flip-companions reuse each permuted batch, and assigns
    each distinct permutation its cheapest application strategy.
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
        # Group the elements by permutation (Permutation hashes by its site
        # mapping, so equal-but-distinct instances coalesce here even if the
        # group did not intern them).  Insertion order is preserved so the
        # element visit order stays deterministic.
        grouped: dict[Permutation, list[tuple[bool, complex]]] = {}
        for perm, flip, char in zip(permutations, flips, characters):
            chi_conj = np.conj(complex(char))
            grouped.setdefault(perm, []).append((bool(flip), chi_conj))

        # Variant index 0 is reserved for "never improved" — the identity
        # element's unit character — so the phase lookup table has one
        # leading slot.
        phase_chars: list[complex] = [1.0 + 0.0j]
        needs_reversal = False
        jobs: list[tuple[str, object, list[tuple[bool, object, np.uint16]]]] = []
        for perm, variants in grouped.items():
            if perm.is_identity:
                tag, payload = "id", None
            elif perm.rotation_amount is not None:
                tag, payload = "rot", (
                    np.uint64(perm.rotation_amount),
                    np.uint64(n_sites - perm.rotation_amount),
                )
            elif perm.reversed_rotation_amount is not None:
                k = perm.reversed_rotation_amount
                tag = "revrot"
                payload = (
                    (np.uint64(k), np.uint64(n_sites - k)) if k else None
                )
                needs_reversal = True
            else:
                tag, payload = "net", perm
            tagged = []
            for flip, chi_conj in variants:
                phase_chars.append(chi_conj)
                chi = chi_conj.real if self.is_real else chi_conj
                tagged.append((flip, chi, np.uint16(len(phase_chars) - 1)))
            jobs.append((tag, payload, tagged))
        self._jobs = jobs
        self.n_distinct_permutations = len(jobs)
        #: distinct permutations per application strategy (telemetry:
        #: ``kernel.state_info_strategy{strategy=...}`` counts one per
        #: strategy per call, so ``repro-inspect`` can show which dispatch
        #: paths actually run)
        _names = {
            "id": "identity",
            "rot": "rotation",
            "revrot": "reversed-rotation",
            "net": "network",
        }
        self.strategy_counts: dict[str, int] = {}
        for tag, _, _ in jobs:
            label = _names[tag]
            self.strategy_counts[label] = self.strategy_counts.get(label, 0) + 1
        table = np.asarray(phase_chars, dtype=np.complex128)
        self._phase_table = table.real.copy() if self.is_real else table
        # The shared reversed batch is produced by the reversal permutation's
        # own compiled applier (a byte-gather table), once per call.
        self._reversal = (
            compile_permutation(np.arange(n_sites - 1, -1, -1))
            if needs_reversal
            else None
        )
        self._scratch: _Scratch | None = None

    # -- scratch management -------------------------------------------------

    def _buffers(self, shape) -> _Scratch:
        scratch = self._scratch
        if scratch is None or scratch.shape != shape:
            scratch = _Scratch(shape)
            self._scratch = scratch
        return scratch

    # -- the kernels --------------------------------------------------------

    def _permuted(self, tag, payload, s, rev, y, net) -> np.ndarray:
        """``p(s)`` for one job's permutation ``p``.

        ``rev`` is the reversed batch (read by the ``revrot`` strategy
        only); ``y`` and ``net`` are scratch of ``s``'s shape.  The result
        aliases ``s``, ``rev`` or ``y``.
        """
        if tag == "id":
            return s
        if tag == "net":
            return payload.apply_into(s, y, net)
        src = s if tag == "rot" else rev
        if payload is None:  # pure reversal
            return src
        kk, nk = payload
        np.left_shift(src, kk, out=y)
        np.right_shift(src, nk, out=net)
        np.bitwise_or(y, net, out=y)
        np.bitwise_and(y, self._flip_mask, out=y)
        return y

    def _observe(self, metrics, t0: float, n_states: int) -> None:
        metrics.histogram("kernel.state_info_seconds").observe(
            perf_counter() - t0
        )
        metrics.counter("kernel.state_info_states").inc(n_states)
        for strategy, count in self.strategy_counts.items():
            metrics.counter(
                "kernel.state_info_strategy", strategy=strategy
            ).inc(count)

    def state_info(
        self, states
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fused representative / phase / stabilizer-sum computation.

        Semantics are those of
        :meth:`repro.symmetry.group.SymmetryGroup.state_info`; ``phase``
        comes back ``float64`` instead of ``complex128`` when every
        character is real.
        """
        s = as_states(states)
        metrics = current_telemetry().metrics
        t0 = perf_counter() if metrics.enabled else 0.0

        dtype = np.float64 if self.is_real else np.complex128
        rep = s.copy()
        phase_idx = np.zeros(s.shape, dtype=np.uint16)
        stab = np.zeros(s.shape, dtype=dtype)
        sc = self._buffers(s.shape)
        if self._reversal is not None:
            self._reversal.apply(s, out=sc.rev, scratch=sc.net)

        for tag, payload, variants in self._jobs:
            z0 = self._permuted(tag, payload, s, sc.rev, sc.y, sc.net)
            for flip, chi_conj, vidx in variants:
                if tag == "id" and not flip:
                    # g(s) == s for every state: pure stabilizer credit.
                    np.add(stab, chi_conj, out=stab)
                    continue
                if flip:
                    np.bitwise_xor(z0, self._flip_mask, out=sc.yf)
                    z = sc.yf
                else:
                    z = z0
                np.less(z, rep, out=sc.less)
                if np.count_nonzero(sc.less):
                    np.copyto(rep, z, where=sc.less)
                    np.copyto(phase_idx, vidx, where=sc.less)
                np.equal(z, s, out=sc.fixed)
                # Non-trivial stabilizer elements are rare (most states sit
                # in full-size orbits), so a counted guard plus a masked add
                # on the few hits beats a full-width multiply-accumulate.
                if np.count_nonzero(sc.fixed):
                    stab[sc.fixed] += chi_conj

        phase = self._phase_table.take(phase_idx)
        if not self.is_real:
            stab = stab.real
        if metrics.enabled:
            self._observe(metrics, t0, s.size)
        return rep, phase, stab

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
        metrics = current_telemetry().metrics
        t0 = perf_counter() if metrics.enabled else 0.0

        sc = self._buffers(s.shape)
        alive, m = s, s.size
        positions = None  # of ``alive`` in ``s``; None until the first cut
        stab = np.zeros(m, dtype=np.float64 if self.is_real else np.complex128)
        rev = None  # reversed ``alive``, made when the first job needs it
        # A state with bits beyond the lattice is nobody's representative.
        dead = np.greater(s, self._flip_mask, out=sc.less)

        for tag, payload, variants in self._jobs:
            if tag == "revrot" and rev is None:
                rev = self._reversal.apply(alive, out=sc.rev[:m], scratch=sc.net[:m])
            z0 = self._permuted(tag, payload, alive, rev, sc.y[:m], sc.net[:m])
            for flip, chi_conj, _ in variants:
                if tag == "id" and not flip:
                    np.add(stab, chi_conj, out=stab)
                    continue
                z = (
                    np.bitwise_xor(z0, self._flip_mask, out=sc.yf[:m])
                    if flip
                    else z0
                )
                fixed = sc.fixed[:m]
                np.less(z, alive, out=fixed)
                np.logical_or(dead, fixed, out=dead)
                np.equal(z, alive, out=fixed)
                if np.count_nonzero(fixed):
                    stab[fixed] += chi_conj
            # Cutting costs about as much as one more element on the whole
            # batch: worth it once a fair share has died, never on a batch
            # so small that the NumPy calls themselves are the cost.
            if m >= _CUT_MIN_BATCH and _CUT_SHARE * np.count_nonzero(dead) >= m:
                keep = ~dead
                alive, stab = alive[keep], stab[keep]
                if rev is not None:
                    rev = rev[keep]
                positions = (
                    np.flatnonzero(keep) if positions is None else positions[keep]
                )
                m = alive.size
                dead = sc.less[:m]
                dead.fill(False)

        stab = stab.real
        keep = ~dead & (stab > STAB_TOL)
        positions = np.flatnonzero(keep) if positions is None else positions[keep]
        if metrics.enabled:
            self._observe(metrics, t0, s.size)
        return positions, stab[keep]
