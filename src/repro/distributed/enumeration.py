"""Distributed enumeration of basis states (Sec. 5.2 / Fig. 4).

The iteration space ``0 .. 2**n - 1`` is split into many chunks which are
dealt to locales *cyclically* — the surviving representatives are highly
non-uniform across the raw range, so a block deal would be badly imbalanced
(ablated in ``benchmarks/bench_ablations.py``).  Each chunk is filtered by
weight and, with a symmetry group, by the set-up filter
(:meth:`~repro.symmetry.kernels.GroupKernel.minima`, then one
:meth:`~repro.symmetry.kernels.GroupKernel.in_sector` pass over all the
survivors); destination locales are computed with the mixing hash, and
the kept states are pushed to their owners with the same histogram /
offsets / remote-put plan as the block-to-hashed conversion (Fig. 2
(b)-(e)), which preserves global order — so every locale's slice comes
out sorted and binary-searchable.
"""

from __future__ import annotations

import numpy as np

from repro.basis.spin_basis import Basis
from repro.bits.ops import candidate_batches, popcount
from repro.distributed.convert import put_chunks
from repro.distributed.dist_basis import DistributedBasis
from repro.distributed.hashing import locale_of
from repro.runtime.clock import BSPTimer, SimReport
from repro.runtime.cluster import Cluster
from repro.schema import require_positive
from repro.telemetry.context import current as current_telemetry

__all__ = ["enumerate_states"]


def enumerate_states(
    cluster: Cluster,
    template: Basis,
    chunks_per_core: int = 25,
    use_weight_shortcut: bool = False,
) -> tuple[DistributedBasis, SimReport]:
    """Build the hash-distributed basis on the cluster.

    Parameters
    ----------
    cluster, template:
        Where and what to enumerate.  The template is not modified.
    chunks_per_core:
        The paper tunes the chunk count so every core handles ~25 chunks.
    use_weight_shortcut:
        Iterate only over states of the correct Hamming weight instead of
        the raw ``2**n`` range.  Faithful to the paper when False (default);
        True makes large laptop-scale runs cheaper.  It changes wall time
        only: the parts and the simulated costs, which always follow the
        faithful raw-range iteration, are the same either way.

    Returns the :class:`DistributedBasis` and the timing report (whose
    ``extras['mean_put_bytes']`` is the average remote-put payload — the
    quantity behind the paper's Fig. 7 saturation analysis).
    """
    require_positive(chunks_per_core=chunks_per_core)
    machine = cluster.machine
    n_locales = cluster.n_locales
    n_sites = template.n_sites
    timer = BSPTimer(machine, n_locales, name="enumeration")
    metrics = current_telemetry().metrics

    total = 1 << n_sites
    n_chunks = max(n_locales * machine.cores_per_locale * chunks_per_core, 1)
    raw_chunk = -(-total // min(n_chunks, total))  # ceil division
    n_chunks = -(-total // raw_chunk)  # the non-empty ones
    bounds = np.minimum(
        np.arange(n_chunks + 1, dtype=np.uint64) * np.uint64(raw_chunk),
        np.uint64(total),
    )

    # --- filter phase: cyclic deal of chunks to locales -------------------
    # The membership test runs once over the whole range, a cache-sized
    # batch at a time; the simulated chunks only slice its result, so each
    # is still charged the full representative check of the paper.  The
    # weight stream or the popcount filter is a plain template's whole test
    # (every candidate lies below 2**n_sites).  A symmetric template's
    # filter keeps the orbit minima; one stabilizer sums pass over all of
    # them then drops the states outside the sector and keeps the sums the
    # basis needs for its scales.
    weight = template.hamming_weight
    group = getattr(template, "group", None)
    weight_passing = np.zeros(n_chunks, dtype=np.int64)
    kept_batches = []
    for batch in candidate_batches(n_sites, weight if use_weight_shortcut else None):
        if weight is not None and not use_weight_shortcut:
            batch = batch[popcount(batch) == np.uint64(weight)]
        weight_passing += np.diff(np.searchsorted(batch, bounds))
        kept_batches.append(batch if group is None else group.kernel.minima(batch))
    kept = np.concatenate(kept_batches)
    if group is not None:
        keep, stab = group.kernel.in_sector(kept)
        kept = kept[keep]
    dests = locale_of(kept, n_locales)
    kept_bounds = np.searchsorted(kept, bounds).tolist()
    spans = [slice(*pair) for pair in zip(kept_bounds[:-1], kept_bounds[1:])]

    counts_rows: list[np.ndarray] = []
    for row, span in enumerate(spans):
        counts_rows.append(np.bincount(dests[span], minlength=n_locales))
        timer.add_compute(
            row % n_locales,  # cyclic distribution
            machine.compute_time(
                machine.t_weight_check, int(bounds[row + 1] - bounds[row])
            )
            + machine.compute_time(machine.t_rep_check, int(weight_passing[row]))
            + machine.compute_time(machine.t_hash, span.stop - span.start),
        )
    timer.end_phase("filter")

    # --- offsets: column-wise cumulative sum in global chunk order --------
    counts = np.stack(counts_rows)
    offsets = np.zeros_like(counts)
    offsets[1:] = np.cumsum(counts, axis=0)[:-1]
    totals = counts.sum(axis=0)
    timer.end_phase("offsets")

    # --- distribute: partition each chunk, one remote put per destination -
    parts = [
        np.empty(int(totals[dest]), dtype=np.uint64) for dest in range(n_locales)
    ]
    put_bytes = put_chunks(
        timer, parts, offsets,
        ((row % n_locales, kept[span], dests[span])
         for row, span in enumerate(spans)),
        8,
    )
    timer.end_phase("distribute")

    # The puts preserve global order, so a part's sums are ``kept``'s, masked.
    stabilizers = None
    if group is not None:
        stabilizers = [stab[dests == dest] for dest in range(n_locales)]
    basis = DistributedBasis(cluster, template, parts, stabilizers=stabilizers)

    # --- norms: each locale computes its states' stabilizer data ----------
    if group is not None:
        for locale in range(n_locales):
            timer.add_compute(
                locale,
                machine.compute_time(
                    machine.t_rep_check, int(basis.counts[locale]) * len(group)
                ),
            )
        timer.end_phase("norms")

    report = timer.report
    if put_bytes:
        report.extras["mean_put_bytes"] = float(np.mean(put_bytes))
    report.extras["load_imbalance"] = basis.load_imbalance
    if metrics.enabled:
        report.metrics = metrics.snapshot()
    return basis, report
