"""Reusable matrix-vector product plans.

A Krylov solve calls ``matvec`` dozens to hundreds of times with the *same*
operator and basis; only the input vector changes.  Everything
``getManyRows`` produces for a chunk of source states — the coupled
destination states, the matrix-element amplitudes, the symmetry projection,
and the ``stateToIndex`` binary searches — is therefore iteration-invariant.
:class:`MatvecPlan` caches them.  The serial operator's first product
writes one record, the diagonal and then the leading batches whose CSR
matrix fits the budget, and its second folds that record once
(:func:`_csr`) into the plan's one entry, so each later product is one
``matrix @ x`` and ``getManyRows`` for the batches past it.  The
distributed operator caches each chunk as it is processed, replays each
chunk it holds as a gather, a multiply and a scatter-add, and once it
holds every chunk folds them with the builder
:func:`csr_in_recorded_order` into one CSR product per destination locale
(on ``sim`` beside the record of a simulated product whose report and
telemetry every replay repeats).
Serial replays equal the recording pass bit for bit on real arithmetic and
to 1e-14 relative on complex (distributed ones to 1e-14 relative: their
matrices carry each row's norm, which a product multiplies in after
``x``), and are width- and dtype-agnostic: a chunk recorded
under a real single-vector matvec replays against a complex input or a
``(dim, k)`` block unchanged (NumPy promotion sets the output dtype), so
one plan serves an entire mixed single/block Krylov workload.

The cache is memory-bounded: entries are accounted in bytes and admitted
while they fit the budget, :data:`PLAN_MEMORY_SHARE` of the host's
available memory (:func:`available_memory`) read once when the plan is
made; an entry that does not fit is turned away and the ones already held
stay.  Every matvec visits its chunks in the same order, so evicting the
least recently used entry would throw out exactly the one needed next and
a plan smaller than its operator would never hit; admission keeps the
first K chunks that fit, which the distributed operator replays on every
matvec (the serial record likewise stops at the first batch whose matrix
would not fit, so its K are a leading run), so large bases degrade
gracefully to partial caching instead of exhausting memory.  Hits, misses and turned-away entries are
reported through the ambient :mod:`repro.telemetry` registry as
``plan.hits`` / ``plan.misses`` / ``plan.rejected`` counters and the
``plan.bytes`` gauge.

Keys are caller-chosen tuples: the serial operator holds one entry from
its second product on, ``("matrix",)``: the matrix folded from its record
and ``covered``, the first source it does not cover (``(None, 0)`` when
not one batch fit), which each product looks up once; the distributed
matvec variants use ``(locale, start)`` for a produced chunk and
``(locale, "diag")`` for a locale's diagonal matrix elements, and the
distributed operator keeps what its
warm products replay: ``(locale, "matrix")``, the matrix of everything
that lands on ``locale`` (``DistributedOperator._consolidate``, on both
backends), and on ``sim`` ``("replay", width)``, the report and telemetry
log of a simulated product (``DistributedOperator._simulated``), so one
plan serves a whole distributed operator.  The keys do not say whose
they are, so a plan serves one operator, the one that made it
(``plan=True``).
"""

from __future__ import annotations

import threading
from typing import Hashable

import numpy as np
import scipy.sparse as sp

from repro.telemetry.context import current as current_telemetry

__all__ = ["MatvecPlan", "available_memory", "csr_footprint", "csr_in_recorded_order"]

#: Share of the host's available memory one plan may hold.  The serial
#: record is checked against it by the size of the matrix it will fold
#: into (12 B per element and 4 B per row), not by its own 16 B per
#: element, so for the one product it lives it may exceed the share by up
#: to a third; the fold then holds it and the matrix together for a
#: moment, up to 7/3 of the share, and the Krylov block grows in the
#: rest.  A chain-32 sector (dim 4.7 M) then holds its ~1.3 GB record,
#: and after it its 962 MiB matrix, on a host with 5 GB or more available
#: once the basis is built; a k = 1 solve then holds three vectors
#: (113 MB), where 62 rows of a k > 1 Krylov block would take 2.3 GB of
#: the rest.
PLAN_MEMORY_SHARE = 1 / 4


def available_memory() -> int:
    """Bytes the host can still hand out without swapping: Linux's
    ``MemAvailable`` (``/proc/meminfo``), or 0 on a host that does not
    report it, where every plan's budget is 0 and holds nothing (each
    product then recomputes, as ``plan=False`` does, rather than claim
    memory nobody measured).

    ``MemAvailable`` rather than ``os.sysconf("SC_AVPHYS_PAGES")``: that
    counts free pages only, so page cache the kernel would drop on demand
    (on a host that has read a few GB of files, most of its memory) reads
    as taken.
    """
    try:
        with open("/proc/meminfo") as meminfo:
            for line in meminfo:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def _entry_nbytes(entry: object) -> int:
    """Total bytes of the NumPy arrays reachable from a cache entry.

    Entries are a bare array, tuples/lists of entries (the serial
    ``(matrix, covered)``, a replay record), or objects holding entries
    as attributes (``ProducedChunk``, a CSR matrix); the rest is free.
    """
    if isinstance(entry, np.ndarray):
        return int(entry.nbytes)
    if isinstance(entry, (tuple, list)):
        return sum(map(_entry_nbytes, entry))
    return sum(
        _entry_nbytes(v) for v in getattr(entry, "__dict__", {}).values()
        if isinstance(v, (np.ndarray, tuple, list)) or sp.issparse(v)
    )


def csr_footprint(shape: tuple[int, int], nnz: int, dtype) -> tuple[np.dtype, int]:
    """Index dtype (32-bit where ``shape`` and ``nnz`` allow) and byte size
    of a CSR matrix holding ``nnz`` elements of ``dtype``."""
    index = np.dtype(np.int32 if max(nnz, shape[1]) < 2**31 else np.int64)
    data = nnz * (np.dtype(dtype).itemsize + index.itemsize)
    return index, data + (shape[0] + 1) * index.itemsize


#: Triples of fewer elements than this (about 12 MB of 64-bit triples),
#: or than the matrix's rows, are joined whole into one run of
#: :func:`csr_in_recorded_order`: no placing scatter.
RUN_ELEMENTS = 2**19


def _runs(items, bound, size=len):
    """Consecutive ``items`` grouped until a group's ``size`` reaches
    ``bound`` (the last group may fall short)."""
    group, total = [], 0
    for item in items:
        group.append(item)
        total += size(item)
        if total >= bound:
            yield group
            group, total = [], 0
    if group:
        yield group


def _csr(shape, dtype, run):
    """The CSR matrix of a ``run`` of ``(rows, columns, data)`` triples,
    each row's elements in the run's order; the run is emptied, so its
    triples live no longer than their joined copy."""
    rows, columns, values = run[0] if len(run) == 1 else map(np.concatenate, zip(*run))
    run.clear()
    coo = sp.coo_matrix((np.asarray(values, dtype), (rows, columns)), shape=shape)
    # Stops ``tocsr`` after its stable counting pass by row, before it
    # would sort each row and sum the duplicates.
    coo.has_canonical_format = True
    matrix = coo.tocsr()
    assert matrix.nnz == len(rows), "tocsr summed duplicates"
    return matrix


def csr_in_recorded_order(shape, dtype, row_arrays, triples):
    """A CSR matrix whose rows hold their elements in the order given.

    Row ``r`` holds the ``(rows, columns, data)`` ``triples``' elements for
    ``r``, triple after triple and in each triple's own order, columns
    unsorted and duplicates kept.  SciPy's ``csr_matvec`` adds a row's
    entries in stored order starting from zero, so ``matrix @ x`` performs
    the additions of one ``np.add.at(y, rows, data * x[columns])`` per
    triple, in turn (a diagonal is one more triple, placed where its
    addition happened).

    ``row_arrays`` yields each triple's ``rows`` (read through once, to
    size the rows) and ``triples`` the same triples again (read through
    once, to place them): both may be generators, so a caller can hand
    chunks over — or drop them — one at a time and the chunks and the
    matrix are never whole in memory together.  The rows are sized, and
    the triples placed, in runs of consecutive ones joined until a run
    holds at least ``shape[0]`` elements (:func:`_runs`): a run, not each
    small triple, pays SciPy's fixed cost and the pass over every row, and
    one run is all that is ever copied at a time.  Fewer than
    ``max(shape[0],`` :data:`RUN_ELEMENTS` ``)`` elements in all are
    placed as one run, whose CSR is the matrix.
    """
    n_rows = shape[0]
    lengths = sum(
        (np.bincount(np.concatenate(run), minlength=n_rows)
         for run in _runs(row_arrays, n_rows)),
        np.zeros(n_rows, dtype=np.int64),
    )
    if 0 < lengths.sum() < max(n_rows, RUN_ELEMENTS):
        return _csr(shape, dtype, list(triples))
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    nnz = int(indptr[-1])
    index, _ = csr_footprint(shape, nnz, dtype)
    indices, data = np.empty(nnz, dtype=index), np.empty(nnz, dtype=dtype)
    cursor = indptr[:-1].copy()
    for run in _runs(triples, n_rows, lambda triple: len(triple[0])):
        part = _csr(shape, dtype, run)
        counts = np.diff(part.indptr)
        to = np.repeat(cursor - part.indptr[:-1], counts)
        to += np.arange(part.nnz)
        indices[to], data[to] = part.indices, part.data
        cursor += counts
    return sp.csr_matrix((data, indices, indptr.astype(index)), shape=shape)


class MatvecPlan:
    """A byte-budgeted cache of iteration-invariant matvec data.

    Its budget, :attr:`capacity_bytes`, is :data:`PLAN_MEMORY_SHARE` of
    :func:`available_memory` when the plan is made, never read again.  An
    entry that does not fit beside the ones held is not cached (a miss
    each time).  A plan handed to a bare matvec variant function serves
    whatever calls it is handed to.
    """

    def __init__(self) -> None:
        self.capacity_bytes = int(available_memory() * PLAN_MEMORY_SHARE)
        self._entries: dict[Hashable, object] = {}
        self._nbytes_by_key: dict[Hashable, int] = {}
        self._bytes = 0
        # One plan serves every chunk task of a matvec, and on the
        # ``threads`` execution backend those tasks run concurrently; the
        # admission bookkeeping and the hit/miss counts are read-modify-write
        # and need a lock (uncontended on the sim backend).
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
            else:
                metrics.counter("plan.hits").inc()
        return entry

    def put(self, key: Hashable, entry: object) -> None:
        """Hold ``entry`` under ``key`` (in place of what ``key`` held) if it
        fits beside the other entries; else turn it away."""
        metrics = current_telemetry().metrics
        nbytes = _entry_nbytes(entry)
        with self._lock:
            if key in self._entries:
                self.pop(key)
            if self._bytes + nbytes > self.capacity_bytes:
                metrics.counter("plan.rejected").inc()
                return
            self._entries[key] = entry
            self._nbytes_by_key[key] = nbytes
            self._bytes += nbytes
            metrics.gauge("plan.bytes").set(float(self._bytes))

    def peek(self, key: Hashable):
        """The entry for ``key`` or ``None``: no hit, no miss."""
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
