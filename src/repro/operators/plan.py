"""Reusable matrix-vector product plans.

A Krylov solve calls ``matvec`` dozens to hundreds of times with the *same*
operator and basis; only the input vector changes.  Everything
``getManyRows`` produces for a chunk of source states — the coupled
destination states, the matrix-element amplitudes, the symmetry projection,
and the ``stateToIndex`` binary searches — is therefore iteration-invariant.
:class:`MatvecPlan` caches those triples the first time a chunk is
processed and replays them on every subsequent matvec, reducing the hot
loop to a gather, a multiply, and a scatter-add (one CSR product, once the
serial operator holds every chunk: ``Operator._consolidate``).  Replays
equal the recording pass bit for bit on real arithmetic and to 1e-14
relative on complex, and are width- and dtype-agnostic: a chunk recorded
under a real single-vector matvec replays against a complex input or a
``(dim, k)`` block unchanged (NumPy promotion sets the output dtype), so
one plan serves an entire mixed single/block Krylov workload.

The cache is memory-bounded: entries are accounted in bytes and evicted in
least-recently-used order once the budget (by default
:func:`repro.perfmodel.capacity.plan_cache_budget`) is exceeded, so large
bases degrade gracefully to partial caching instead of exhausting memory.
Hits, misses, and evictions are reported through the ambient
:mod:`repro.telemetry` registry as ``plan.hits`` / ``plan.misses`` /
``plan.evictions`` counters and the ``plan.bytes`` gauge.

Keys are caller-chosen tuples: the serial operator uses ``(start,)`` for a
batch and ``("matrix",)`` for the matrix that replaces them, and the
distributed matvec variants use ``(locale, start)`` for a produced
chunk and ``(locale, "diag")`` for a locale's diagonal matrix elements, so
one plan can serve a whole distributed operator.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable

import numpy as np

from repro.telemetry.context import current as current_telemetry

__all__ = ["MatvecPlan"]


def _entry_nbytes(entry: object) -> int:
    """Total bytes of the NumPy arrays reachable from a cache entry.

    Entries are a bare array, tuples/lists of arrays, or objects exposing
    arrays as attributes (``ProducedChunk``, a CSR matrix); the rest is free.
    """
    if isinstance(entry, np.ndarray):
        return int(entry.nbytes)
    if isinstance(entry, (tuple, list)):
        candidates = entry
    else:
        candidates = [
            getattr(entry, name, None) for name in getattr(entry, "__slots__", ())
        ] + list(getattr(entry, "__dict__", {}).values())
    return int(sum(v.nbytes for v in candidates if isinstance(v, np.ndarray)))


class MatvecPlan:
    """A byte-budgeted LRU cache of iteration-invariant matvec data.

    Parameters
    ----------
    capacity_bytes:
        Maximum total size of cached entries.  ``None`` uses
        :func:`repro.perfmodel.capacity.plan_cache_budget`.  An entry larger
        than the whole budget is never cached (counted as a miss each time).
    """

    def __init__(self, capacity_bytes: int | None = None) -> None:
        if capacity_bytes is None:
            from repro.perfmodel.capacity import plan_cache_budget

            capacity_bytes = plan_cache_budget()
        self.capacity_bytes = int(capacity_bytes)
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._nbytes_by_key: dict[Hashable, int] = {}
        self._bytes = 0
        # One plan serves every chunk task of a matvec, and on the
        # ``threads`` execution backend those tasks run concurrently; the
        # LRU reordering and the eviction bookkeeping are multi-step and
        # need a lock (uncontended on the sim backend).
        self._lock = threading.RLock()

    # -- inspection ----------------------------------------------------------

    @property
    def n_entries(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Current total size of the cached entries in bytes."""
        return self._bytes

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MatvecPlan(entries={self.n_entries}, "
            f"bytes={self._bytes}/{self.capacity_bytes})"
        )

    # -- cache protocol ------------------------------------------------------

    def get(self, key: Hashable):
        """The cached entry for ``key``, or ``None`` (recorded as hit/miss)."""
        metrics = current_telemetry().metrics
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                metrics.counter("plan.misses").inc()
                return None
            self._entries.move_to_end(key)
            metrics.counter("plan.hits").inc()
            return entry

    def put(self, key: Hashable, entry: object) -> None:
        """Insert ``entry`` under ``key``, evicting LRU entries to fit."""
        metrics = current_telemetry().metrics
        nbytes = _entry_nbytes(entry)
        if nbytes > self.capacity_bytes:
            # Would evict everything and still not fit; skip caching.
            metrics.counter("plan.rejected").inc()
            return
        with self._lock:
            old = self._nbytes_by_key.pop(key, None)
            if old is not None:
                del self._entries[key]
                self._bytes -= old
            while self._bytes + nbytes > self.capacity_bytes and self._entries:
                old_key, _ = self._entries.popitem(last=False)
                evicted = self._nbytes_by_key.pop(old_key)
                self._bytes -= evicted
                metrics.counter("plan.evictions").inc()
            self._entries[key] = entry
            self._nbytes_by_key[key] = nbytes
            self._bytes += nbytes
            metrics.gauge("plan.bytes").set(float(self._bytes))

    def peek(self, key: Hashable):
        """The entry for ``key`` or ``None``: no hit, no miss, no LRU touch."""
        return self._entries.get(key)

    def pop(self, key: Hashable):
        """Remove and return the entry for ``key`` (``None`` if absent)."""
        with self._lock:
            self._bytes -= self._nbytes_by_key.pop(key, 0)
            current_telemetry().metrics.gauge("plan.bytes").set(float(self._bytes))
            return self._entries.pop(key, None)

    def invalidate(self) -> None:
        """Drop every cached entry (e.g. after the operator changed)."""
        with self._lock:
            self._entries.clear()
            self._nbytes_by_key.clear()
            self._bytes = 0
        current_telemetry().metrics.gauge("plan.bytes").set(0.0)
