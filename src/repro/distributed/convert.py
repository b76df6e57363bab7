"""Order-preserving conversions between block and hashed distributions.

These implement the algorithms of the paper's Figs. 2 and 3 step by step:

block -> hashed (Fig. 2):
  (a) split the block-distributed domain into chunks (one per core);
  (b) per chunk, histogram the destination-locale ``masks``;
  (c) turn the per-(chunk, destination) counts into write offsets with a
      column-wise exclusive cumulative sum over chunks in global order —
      this is what makes the conversion order-preserving and lets every
      chunk write independently, with no synchronization;
  (d) locally partition each chunk by destination (stable counting sort);
  (e) copy each partition to its destination with one remote put.

hashed -> block (Fig. 3) runs the same plan in reverse: histogram, offsets,
independent remote *gets*, then a local merge that re-interleaves the
fetched runs according to ``masks``.

Both functions move real data (the round trip is exact, as the paper's
Sec. 6.1 verifies) and account simulated time through a
:class:`~repro.runtime.clock.BSPTimer`, which also traces each phase on the
``convert.block_to_hashed`` / ``convert.hashed_to_block`` tracks, its
traffic in the span args (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import numpy as np

from repro.distributed.block import BlockArray
from repro.errors import DistributionError
from repro.runtime.clock import BSPTimer, SimReport

__all__ = [
    "block_to_hashed",
    "hashed_to_block",
    "put_chunks",
    "stable_partition",
    "counting_sort_order",
]


def counting_sort_order(
    keys: np.ndarray, n_keys: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stable counting-sort permutation of integer ``keys`` in ``[0, n_keys)``.

    Returns ``(order, starts)``: applying ``order`` to any payload array
    groups it by key (relative order preserved within each key), and key
    ``k`` owns the output slice ``[starts[k] : starts[k + 1])``.

    This is the paper's linear-time partition by destination locale: one
    histogram pass (``bincount``), a cumulative sum over the ``n_keys``
    counters, and a single counting-scatter pass.  The scatter is done by
    narrowing the keys to the smallest unsigned dtype that holds
    ``n_keys`` and delegating to NumPy's stable radix sort — on uint8
    keys that is exactly one C-speed counting pass, where
    ``np.argsort(..., kind="stable")`` on the original int64 keys walks
    all eight bytes.  Measured 5-9x faster at realistic locale counts
    (see ``benchmarks/bench_kernels.py``); the permutation is identical
    to the stable argsort by construction.
    """
    keys = np.asarray(keys)
    counts = np.bincount(keys, minlength=n_keys).astype(np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)])
    if np.count_nonzero(counts) == 1:
        # Single destination: the identity permutation, no scatter needed.
        return np.arange(keys.size, dtype=np.int64), starts
    if n_keys <= 1 << 8:
        narrow = keys.astype(np.uint8, copy=False)
    elif n_keys <= 1 << 16:
        narrow = keys.astype(np.uint16, copy=False)
    else:  # pragma: no cover - more locales than any simulated cluster
        narrow = keys
    order = np.argsort(narrow, kind="stable")
    return order, starts


def stable_partition(
    values: np.ndarray, keys: np.ndarray, n_keys: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stable partition of ``values`` by integer ``keys``.

    Returns ``(partitioned, counts)`` where ``partitioned`` contains the
    values grouped by key (relative order preserved within each key) and
    ``counts[k]`` is the number of values with key ``k``.  This is the
    linear-time counting/radix sort of the paper's ``getManyRows``
    pipeline (see :func:`counting_sort_order`).
    """
    order, starts = counting_sort_order(keys, n_keys)
    counts = np.diff(starts)
    return values[order], counts


def _chunk_splits(length: int, n_chunks: int) -> np.ndarray:
    """Boundaries splitting ``length`` elements into ``n_chunks`` chunks."""
    n_chunks = max(min(n_chunks, length), 1)
    base, extra = divmod(length, n_chunks)
    sizes = np.full(n_chunks, base, dtype=np.int64)
    sizes[:extra] += 1
    return np.concatenate([[0], np.cumsum(sizes)])


def _check_masks(masks: BlockArray, n_locales: int) -> None:
    for block in masks.blocks:
        if block.size and (int(block.min()) < 0 or int(block.max()) >= n_locales):
            raise DistributionError("mask values must be valid locale indices")


def _alloc_rows(count: int, like: np.ndarray) -> np.ndarray:
    """An empty array of ``count`` rows shaped/typed like ``like``."""
    shape = (count,) if like.ndim == 1 else (count, like.shape[1])
    return np.empty(shape, dtype=like.dtype)


def _transfer_plan(
    masks: BlockArray, timer: BSPTimer
) -> tuple[list[int], list[tuple[int, int]], np.ndarray, np.ndarray]:
    """Steps (a)-(c), shared by both directions (Fig. 3 is Fig. 2 reversed).

    Each locale's block is cut into one chunk per core.  Returns
    ``(chunk_owner, chunk_slices, counts, offsets)``: per chunk, in global
    order, its locale and local ``(start, stop)``; ``counts[c, l]``
    elements of chunk ``c`` live on (go to / come from) locale ``l``, at
    ``offsets[c, l]`` in that locale's hashed part.
    """
    n = masks.cluster.n_locales
    machine = masks.cluster.machine
    chunks = machine.cores_per_locale
    # (a)+(b) per-chunk histograms of the destination masks.
    chunk_owner: list[int] = []
    chunk_slices: list[tuple[int, int]] = []  # local (start, stop) per chunk
    counts_rows: list[np.ndarray] = []
    for locale in range(n):
        local_masks = masks.blocks[locale]
        splits = _chunk_splits(local_masks.size, chunks)
        for c in range(splits.size - 1):
            lo, hi = int(splits[c]), int(splits[c + 1])
            counts_rows.append(
                np.bincount(local_masks[lo:hi], minlength=n).astype(np.int64)
            )
            chunk_owner.append(locale)
            chunk_slices.append((lo, hi))
        timer.add_compute(
            locale,
            machine.compute_time(machine.t_partition, local_masks.size),
        )
    counts = (
        np.stack(counts_rows)
        if counts_rows
        else np.zeros((0, n), dtype=np.int64)
    )
    timer.end_phase("histogram")

    # (c) column-wise exclusive cumulative sum over chunks in global order.
    offsets = np.zeros_like(counts)
    if counts.shape[0]:
        offsets[1:] = np.cumsum(counts, axis=0)[:-1]
    # The offsets exchange is tiny; charge one small message per locale pair.
    for src in range(n):
        for dst in range(n):
            if src != dst:
                timer.add_message(src, dst, 8 * chunks)
    timer.end_phase("offsets")
    return chunk_owner, chunk_slices, counts, offsets


def block_to_hashed(
    array: BlockArray, masks: BlockArray
) -> tuple[list[np.ndarray], SimReport]:
    """Convert a block-distributed array to the hashed distribution.

    ``masks[i]`` names the destination locale of element ``i``.  Returns the
    per-locale parts (elements in global order within each locale — the
    order-preservation property the basis relies on) and the simulation
    report.
    """
    cluster = array.cluster
    n = cluster.n_locales
    if masks.cluster is not cluster or masks.global_length != array.global_length:
        raise DistributionError("array and masks must share cluster and length")
    _check_masks(masks, n)
    timer = BSPTimer(cluster.machine, n, name="convert.block_to_hashed")

    chunk_owner, chunk_slices, counts, offsets = _transfer_plan(masks, timer)
    totals = counts.sum(axis=0) if counts.size else np.zeros(n, dtype=np.int64)
    parts = [
        _alloc_rows(int(totals[dest]), array.blocks[0]) for dest in range(n)
    ]
    put_chunks(
        timer, parts, offsets,
        ((locale, array.blocks[locale][lo:hi], masks.blocks[locale][lo:hi])
         for locale, (lo, hi) in zip(chunk_owner, chunk_slices)),
        array.row_bytes,
    )
    timer.end_phase("put")
    return parts, timer.report


def put_chunks(timer: BSPTimer, parts, offsets, chunks, row_bytes) -> list[int]:
    """Steps (d)+(e): partition each chunk locally by destination, then one
    remote put per (chunk, destination) into ``parts`` at ``offsets``.

    ``chunks`` yields ``(owner, values, keys)`` in global chunk order (row
    ``c`` of ``offsets`` is chunk ``c``); ``keys`` are the destination
    locales of ``values``.  Returns the payload bytes of every put.
    """
    machine, n = timer.machine, len(parts)
    put_bytes = []
    for row, (owner, values, keys) in enumerate(chunks):
        if len(values) == 0:
            continue
        partitioned, chunk_counts = stable_partition(values, keys, n)
        timer.add_compute(
            owner, machine.compute_time(machine.t_partition, values.size)
        )
        start = 0
        for dest in range(n):
            count = int(chunk_counts[dest])
            if count == 0:
                continue
            off = int(offsets[row, dest])
            parts[dest][off : off + count] = partitioned[start : start + count]
            timer.add_message(owner, dest, count * row_bytes)
            put_bytes.append(count * row_bytes)
            start += count
    return put_bytes


def hashed_to_block(
    parts: list[np.ndarray], masks: BlockArray
) -> tuple[BlockArray, SimReport]:
    """Convert hashed-distribution parts back to a block-distributed array.

    ``masks`` is the same destination-locale array used to build ``parts``;
    the result satisfies ``hashed_to_block(block_to_hashed(a, m), m) == a``
    exactly (tested — the paper verifies the same round trip in Sec. 6.1).
    """
    cluster = masks.cluster
    n = cluster.n_locales
    if len(parts) != n:
        raise DistributionError(f"expected {n} parts, got {len(parts)}")
    total_from_parts = sum(p.shape[0] for p in parts)
    if total_from_parts != masks.global_length:
        raise DistributionError(
            "parts and masks disagree on the number of elements"
        )
    machine = cluster.machine
    timer = BSPTimer(machine, n, name="convert.hashed_to_block")
    prototype = parts[0] if parts else np.empty(0)

    chunk_owner, chunk_slices, counts, offsets = _transfer_plan(masks, timer)

    # (c)+(d) independent remote gets, then the local order-restoring merge.
    blocks = [
        _alloc_rows(masks.blocks[locale].size, prototype) for locale in range(n)
    ]
    itemsize = prototype.dtype.itemsize * (
        1 if prototype.ndim == 1 else prototype.shape[1]
    )
    for chunk_index, locale in enumerate(chunk_owner):
        lo, hi = chunk_slices[chunk_index]
        keys = masks.blocks[locale][lo:hi]
        out = blocks[locale][lo:hi]
        for src in range(n):
            count = int(counts[chunk_index, src])
            if count == 0:
                continue
            off = int(offsets[chunk_index, src])
            fetched = parts[src][off : off + count]
            timer.add_message(src, locale, count * itemsize)
            out[keys == src] = fetched
        timer.add_compute(
            locale, machine.compute_time(machine.t_partition, keys.size)
        )
    timer.end_phase("get+merge")
    return BlockArray(cluster, blocks), timer.report
