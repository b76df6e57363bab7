"""Applying site permutations to batches of basis states.

A symmetry of the lattice is a permutation ``p`` of the ``n`` sites; acting
on a basis state it moves the spin at site ``i`` to site ``p[i]``.  On the
bit representation this means bit ``i`` of the input becomes bit ``p[i]`` of
the output.

Two precompiled execution strategies are provided, mirroring the paper's
batch-compiled kernels (Sec. 5.3) and the lookup-table schemes of the
sublattice-coding literature:

- :class:`MaskShiftNetwork` — all sites moving by the same signed offset
  ``p[i] - i`` are grouped into one ``(mask, shift)`` pair, so applying the
  permutation costs one shift+and+or per *distinct offset*.  Structured
  symmetries (translations and their compositions) have very few offsets.
- :class:`ByteGatherTable` — one 256-entry scatter table per input byte;
  applying the permutation is one table gather and one or per *byte*,
  independent of how irregular the permutation is.  This is the win for
  generic elements (reflection∘translation composites, 2-D symmetries)
  whose offset decomposition degenerates to ~``n`` masks.

Both are built once per permutation (see
:class:`repro.symmetry.permutation.Permutation`, which caches them at
construction time), hold no work arrays of their own — one instance may be
applied from several threads at once — and apply into caller-provided
scratch, so the hot ``state_info`` loop never allocates or re-derives the
decomposition.
"""

from __future__ import annotations

import numpy as np

from repro.bits.ops import BITS_DTYPE, as_states

__all__ = [
    "permutation_masks",
    "apply_permutation_to_states",
    "MaskShiftNetwork",
    "ByteGatherTable",
    "compile_permutation",
]

_ONE = np.uint64(1)
_BYTE = np.uint64(0xFF)
_INTP_IS_64 = np.dtype(np.intp).itemsize == 8

#: Above this many distinct offsets the byte-gather table is cheaper than
#: the mask/shift network (gathers cost ~4 vector ops per byte; masks ~3
#: per offset, and a 24-site generic element easily has ~24 offsets).
NETWORK_MASK_LIMIT = 6


def permutation_masks(perm: np.ndarray) -> list[tuple[np.uint64, int]]:
    """Decompose a site permutation into (source-mask, shift) pairs.

    Groups all sites that move by the same (signed) offset ``p[i] - i`` into
    a single mask so that applying the permutation costs one shift+and+or
    per distinct offset instead of one per site.  For structured symmetries
    (translations, reflections of regular lattices) the number of distinct
    offsets is tiny.
    """
    perm = np.asarray(perm, dtype=np.int64)
    n = perm.size
    offsets: dict[int, int] = {}
    for i in range(n):
        delta = int(perm[i]) - i
        offsets[delta] = offsets.get(delta, 0) | (1 << i)
    return [(np.uint64(mask), delta) for delta, mask in sorted(offsets.items())]


class MaskShiftNetwork:
    """A permutation precompiled into ``(mask, shift)`` stages.

    ``apply`` runs one ``and``/``shift``/``or`` triple per stage, entirely
    in-place when ``out`` and ``scratch`` buffers are supplied.
    """

    __slots__ = ("n_stages", "_stages")

    def __init__(self, perm: np.ndarray) -> None:
        # Stage operands are pre-converted to uint64 so apply() never casts.
        self._stages = [
            (mask, np.uint64(abs(delta)), delta >= 0)
            for mask, delta in permutation_masks(perm)
        ]
        self.n_stages = len(self._stages)

    def apply(
        self,
        x: np.ndarray,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
        scratch2: np.ndarray | None = None,
    ) -> np.ndarray:
        """Permute the bits of each state in ``x``.

        ``out``, ``scratch`` and ``scratch2`` must be distinct ``uint64``
        arrays of the same shape as ``x`` (freshly allocated when omitted);
        ``out`` is returned.  ``x`` is never modified.  The network works
        in ``scratch`` alone; ``scratch2`` is the second work array of
        :meth:`ByteGatherTable.apply`, accepted so that both appliers are
        called alike.
        """
        if out is None:
            out = np.zeros(x.shape, dtype=BITS_DTYPE)
        else:
            out.fill(0)
        if scratch is None:
            scratch = np.empty(x.shape, dtype=BITS_DTYPE)
        for mask, shift, left in self._stages:
            np.bitwise_and(x, mask, out=scratch)
            if left:
                np.left_shift(scratch, shift, out=scratch)
            else:
                np.right_shift(scratch, shift, out=scratch)
            np.bitwise_or(out, scratch, out=out)
        return out


class ByteGatherTable:
    """A permutation precompiled into per-byte scatter lookup tables.

    ``tables[b][v]`` holds the 64-bit word produced by scattering the bits
    of byte value ``v`` at input positions ``8b .. 8b+7`` to their
    destinations; applying the permutation is one gather and one ``or`` per
    *occupied* input byte.  16 KiB per permutation worst case, and the
    per-element cost is independent of how irregular the permutation is —
    the same trade the sublattice-coding / trie ranking schemes make.
    """

    __slots__ = ("n_bytes", "_tables")

    def __init__(self, perm: np.ndarray) -> None:
        perm = np.asarray(perm, dtype=np.int64)
        n = perm.size
        values = np.arange(256, dtype=np.uint64)
        tables: list[tuple[np.uint64, np.ndarray]] = []
        for byte in range((n + 7) // 8):
            table = np.zeros(256, dtype=np.uint64)
            for i in range(8):
                site = 8 * byte + i
                if site >= n:
                    break
                bit = (values >> np.uint64(i)) & _ONE
                table |= bit << np.uint64(int(perm[site]))
            tables.append((np.uint64(8 * byte), table))
        self._tables = tables
        self.n_bytes = len(tables)

    def apply(
        self,
        x: np.ndarray,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
        scratch2: np.ndarray | None = None,
    ) -> np.ndarray:
        """Permute the bits of each state in ``x`` (see
        :meth:`MaskShiftNetwork.apply` for the buffer contract)."""
        if out is None:
            out = np.empty(x.shape, dtype=BITS_DTYPE)
        if scratch is None:
            scratch = np.empty(x.shape, dtype=BITS_DTYPE)
        if scratch2 is None:
            scratch2 = np.empty(x.shape, dtype=BITS_DTYPE)
        gathered = out
        for shift, table in self._tables:
            np.right_shift(x, shift, out=scratch)
            np.bitwise_and(scratch, _BYTE, out=scratch)
            # ``np.take`` wants platform-int indices; a byte value reads
            # the same through either 64-bit type, so no cast pass.
            idx = scratch.view(np.intp) if _INTP_IS_64 else scratch.astype(np.intp)
            np.take(table, idx, out=gathered, mode="clip")
            if gathered is scratch2:
                np.bitwise_or(out, scratch2, out=out)
            gathered = scratch2
        if not self._tables:  # zero-site permutations cannot occur, but stay safe
            out.fill(0)
        return out


def compile_permutation(perm: np.ndarray):
    """The cheaper of the two precompiled appliers for this permutation.

    Few-offset permutations (translations and friends) get the mask/shift
    network; irregular ones the byte-gather table.
    """
    network = MaskShiftNetwork(perm)
    if network.n_stages <= NETWORK_MASK_LIMIT:
        return network
    return ByteGatherTable(perm)


def apply_permutation_to_states(perm: np.ndarray, states) -> np.ndarray:
    """Apply site permutation ``perm`` to each basis state in ``states``.

    Bit ``i`` of the input appears at bit ``perm[i]`` of the output.  The
    permutation must be a valid permutation of ``range(len(perm))`` with
    ``len(perm) <= 64``.

    This is the uncached reference path: it re-derives the mask/shift
    decomposition on every call.  Hot loops should go through
    :class:`repro.symmetry.permutation.Permutation`, which compiles the
    permutation once and reuses scratch buffers.
    """
    x = as_states(states)
    masks = permutation_masks(perm)
    out = np.zeros_like(x, dtype=BITS_DTYPE)
    for mask, delta in masks:
        sel = x & mask
        if delta >= 0:
            out |= sel << np.uint64(delta)
        else:
            out |= sel >> np.uint64(-delta)
    return out
