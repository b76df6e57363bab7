"""The two-stage knob search.

Stage 1 (*coarse*, analytic): rank the producer:consumer split grid with
:func:`~repro.autotune.recommend.rank_splits` and keep only the few
configurations whose modelled pipeline time is competitive.  This is
cheap (microseconds per point) and prunes the part of the knob space the
model understands well — the stage-balance trade-off of Sec. 6.3.

Stage 2 (*measured*, greedy): replay the real workload with each
surviving configuration and trust only measurements.  The batch-size
axis is *not* pruned by the model: the model sees ``batch_size`` only
through the message-size/bandwidth curve, but at reproduction scale the
dominant batch effect is chunk granularity (more chunks = more
producer-level parallelism), which only the discrete-event replay
captures.  On the ``sim`` backend one run per candidate suffices
(simulated seconds are deterministic); on ``threads`` each candidate is
timed best-of-``samples`` after a warmup, the standard wall-clock
hygiene of the parallel benches.

Every candidate runs with telemetry quarantined
(``telemetry.use(None)``) and without a plan, so the search never
pollutes ambient traces or metrics — a cache hit must leave no search
footprint.
"""

from __future__ import annotations

from repro import telemetry
from repro.autotune.recommend import rank_splits
from repro.distributed.matvec_pc import default_buffer_capacity
from repro.distributed.operator import (
    IMPLS,
    KNOB_DEFAULTS,
    is_pipeline,
    knob_keys,
)
from repro.distributed.vector import DistributedVector

__all__ = [
    "default_knobs",
    "coarse_split_candidates",
    "batch_candidates",
    "measure_knobs",
    "method_kwargs",
]

#: getManyRows batch sizes the measured stage tries (powers of two from
#: small-message to the paper's default).
BATCH_GRID = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)

#: How many static splits survive the coarse pass (work stealing always
#: does, for comparison).
COARSE_KEEP = 2


def default_knobs(method: str = "pc") -> dict:
    """The knob assignment an untuned operator runs with."""
    return {key: KNOB_DEFAULTS[key] for key in knob_keys(method)}


def coarse_split_candidates(cluster, workload) -> list[dict]:
    """Stage 1: the split settings worth measuring on ``cluster``.

    Work stealing always; the static splits only where the backend reads
    them — a wall-clock pipeline runs one producer and one consumer
    thread per locale whatever ``consumer_fraction`` says, so measuring
    two fractions there would time one schedule twice and store noise.
    On the simulator the best :data:`COARSE_KEEP` of
    :func:`~repro.autotune.recommend.rank_splits` survive.
    """
    candidates = [{"work_stealing": True}]
    if not cluster.wall_clock:
        ranked = rank_splits(cluster.machine, workload, cluster.n_locales)
        candidates += [
            {"consumer_fraction": fraction, "work_stealing": False}
            for _, fraction in ranked[:COARSE_KEEP]
        ]
    return candidates


def batch_candidates(basis) -> list[int]:
    """The batch grid, deduplicated against the per-locale row counts.

    Any batch at or above the largest locale's row count yields exactly
    one chunk per locale — measuring more than one such setting would
    replay identical schedules — so the grid is clipped there.
    """
    max_rows = int(max(int(c) for c in basis.counts))
    out: list[int] = []
    for batch in BATCH_GRID:
        out.append(batch)
        if batch >= max_rows:
            break
    default = default_knobs()["batch_size"]
    if default not in out and default < max_rows:
        out.append(default)
    return sorted(set(out))


def method_kwargs(knobs: dict, method: str, cluster) -> dict:
    """The keyword arguments a replay of ``knobs`` passes to ``method``.

    Restricted to what the implementation accepts, plus — for the
    producer-consumer pipeline — the hand-off unit
    :class:`~repro.distributed.operator.DistributedOperator` runs on
    ``cluster``'s backend, so the search times the schedule the operator
    will execute.
    """
    kwargs = {k: knobs[k] for k in knob_keys(method) if k in knobs}
    if is_pipeline(method):
        kwargs["buffer_capacity"] = default_buffer_capacity(cluster)
    return kwargs


def measure_knobs(
    compiled,
    basis,
    x: DistributedVector,
    knobs: dict,
    method: str = "pc",
    samples: int = 3,
) -> float:
    """Replay one matvec with ``knobs`` and return its elapsed seconds.

    Telemetry-quarantined and plan-free (see module docstring).  On the
    deterministic ``sim`` backend a single run is the measurement; on
    ``threads`` the first run warms caches and the best of ``samples``
    timed runs is reported.
    """
    impl = IMPLS[method]
    kwargs = method_kwargs(knobs, method, basis.cluster)
    with telemetry.use(None):
        _, report = impl(compiled, basis, x, None, plan=None, **kwargs)
        if not basis.cluster.wall_clock:
            return float(report.elapsed)
        best = float(report.elapsed)
        for _ in range(max(samples - 1, 0)):
            _, report = impl(compiled, basis, x, None, plan=None, **kwargs)
            best = min(best, float(report.elapsed))
        return best
