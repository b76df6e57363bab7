"""The model side of the tuner: ranking static producer:consumer splits.

:func:`rank_splits` prices every static split of :data:`FRACTION_GRID`
with :class:`~repro.perfmodel.models.MatvecScalingModel`.  It has two
readers: the coarse stage of the measured search (the best few go on to
be measured, :func:`repro.autotune.search.coarse_split_candidates`) and
:func:`recommend_split`, which reads the pipeline stage times under the
default split, flags the split as stall-dominated when the stages are
materially unbalanced (one side's cores idle waiting on the other — the
paper's Sec. 6.3 observation about the 104/24 split), and proposes the
best alternative whose modelled time is strictly lower (usually work
stealing, the paper's Sec. 7 proposal).
"""

from __future__ import annotations

from repro.distributed.matvec_pc import (
    DEFAULT_CONSUMER_FRACTION,
    split_cores,
)
from repro.perfmodel.models import MatvecScalingModel

__all__ = ["FRACTION_GRID", "rank_splits", "recommend_split"]

#: consumer-core fractions of the Sec. 6.3 ablation grid (8/16/24/32/48/64
#: of 128 cores), as fractions so the grid scales down to small simulated
#: nodes.
FRACTION_GRID = (1 / 16, 1 / 8, 24 / 128, 1 / 4, 3 / 8, 1 / 2)

#: A static split counts as stall-dominated when the faster compute
#: stage idles more than this fraction of the slower stage's time.
STALL_SHARE_THRESHOLD = 0.05


def rank_splits(
    machine, workload, n_locales: int
) -> list[tuple[float, float]]:
    """``(modelled pipeline seconds, consumer_fraction)``, fastest first, of
    the static splits of :data:`FRACTION_GRID` other than the default.

    Fractions are rounded to whole cores of ``machine`` and two that give
    the same (producers, consumers) — or the default's — count once.
    """
    cores = machine.cores_per_locale
    seen = {split_cores(cores, DEFAULT_CONSUMER_FRACTION)}
    ranked = []
    for raw in FRACTION_GRID:
        consumers = max(int(round(cores * raw)), 1)
        if consumers >= cores:
            continue
        fraction = consumers / cores
        split = split_cores(cores, fraction)
        if split in seen:
            continue
        seen.add(split)
        model = MatvecScalingModel(
            machine, workload, consumer_fraction=fraction
        )
        ranked.append((model.pipeline_time(n_locales), fraction))
    return sorted(ranked)


def recommend_split(machine, workload, n_locales: int) -> dict:
    """Judge the default static producer:consumer split and propose a
    better one.

    Returns a dict with the default split's stage accounting
    (``default``), whether it is stall-dominated (one compute stage's
    cores idle > :data:`STALL_SHARE_THRESHOLD` of the other's time), and
    a ``proposal`` whose modelled pipeline time is *strictly* lower than
    the default's — work stealing or a rebalanced static split —
    or ``None`` when the default cannot be improved.
    """
    base = MatvecScalingModel(machine, workload)
    base_seconds = base.pipeline_time(n_locales)
    producers, consumers = split_cores(
        machine.cores_per_locale, DEFAULT_CONSUMER_FRACTION
    )
    stages = {
        "producers": producers,
        "consumers": consumers,
        **base.stage_times(n_locales),
    }
    slow = max(
        stages["producer_stage_seconds"], stages["consumer_stage_seconds"]
    )
    fast = min(
        stages["producer_stage_seconds"], stages["consumer_stage_seconds"]
    )
    stall_share = 1.0 - fast / slow if slow > 0.0 else 0.0
    idle_pool = (
        "consumers"
        if stages["consumer_stage_seconds"]
        < stages["producer_stage_seconds"]
        else "producers"
    )

    # Work stealing first: min() keeps it on a tie with a static split.
    candidates = [
        (
            base.pipeline_time(n_locales, work_stealing=True),
            {
                "consumer_fraction": DEFAULT_CONSUMER_FRACTION,
                "work_stealing": True,
            },
        )
    ] + [
        (seconds, {"consumer_fraction": fraction, "work_stealing": False})
        for seconds, fraction in rank_splits(machine, workload, n_locales)
    ]
    best_seconds, best_knobs = min(candidates, key=lambda c: c[0])

    proposal = None
    if best_seconds < base_seconds:
        proposal = {
            **best_knobs,
            "pipeline_seconds": best_seconds,
            "improvement": 1.0 - best_seconds / base_seconds,
        }
    return {
        "n_locales": n_locales,
        "default": {
            "consumer_fraction": DEFAULT_CONSUMER_FRACTION,
            **stages,
            "pipeline_seconds": base_seconds,
            "stall_share": stall_share,
            "idle_pool": idle_pool,
        },
        "stall_dominated": stall_share > STALL_SHARE_THRESHOLD,
        "proposal": proposal,
    }
