"""The two-stage knob search.

Stage 1 (*coarse*, analytic): evaluate
:class:`~repro.perfmodel.models.MatvecScalingModel` over the
producer:consumer split grid and the work-stealing switch, and keep only
the few configurations whose modelled pipeline time is competitive.
This is cheap (microseconds per point) and prunes the part of the knob
space the model understands well — the stage-balance trade-off of
Sec. 6.3.

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
pollutes ambient traces or metrics — a warm ``tune="auto"`` operator
build must leave no search footprint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro import telemetry
from repro.distributed.matvec_pc import (
    DEFAULT_CONSUMER_FRACTION,
    default_buffer_capacity,
)
from repro.distributed.operator import (
    IMPLS,
    KNOB_DEFAULTS,
    KNOB_KEYS,
    is_pipeline,
    knob_keys,
)
from repro.distributed.vector import DistributedVector
from repro.perfmodel.models import MatvecScalingModel

__all__ = [
    "OperatorWorkload",
    "default_knobs",
    "coarse_split_candidates",
    "batch_candidates",
    "measure_knobs",
    "method_kwargs",
    "seed_candidates_from_dir",
]

#: getManyRows batch sizes the measured stage tries (powers of two from
#: small-message to the paper's default).
BATCH_GRID = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)

#: consumer-core fractions the coarse stage scans — the Sec. 6.3
#: ablation grid (8/16/24/32/48/64 of 128 cores) expressed as fractions
#: so the same grid scales down to small simulated nodes.
FRACTION_GRID = (1 / 16, 1 / 8, 24 / 128, 1 / 4, 3 / 8, 1 / 2)

#: How many split configurations survive the coarse pass (plus the
#: default and work stealing, which always survive for comparison).
COARSE_KEEP = 2


@dataclass(frozen=True)
class OperatorWorkload:
    """Duck-typed :class:`~repro.perfmodel.workloads.ChainWorkload` built
    from a compiled operator + distributed basis, so the scaling model
    can price workloads that are not paper chains.

    ``offdiag_per_row`` uses the half-filling match rate: a spin-exchange
    primitive fires on about a quarter of the rows (the anti-aligned
    fraction), which reproduces the chain's ``n/2`` per-row emission
    from its ``2n`` off-diagonal primitives.
    """

    n_sites: int
    dimension: int
    n_off_primitives: int

    @classmethod
    def from_operator(cls, compiled, basis) -> "OperatorWorkload":
        return cls(
            n_sites=basis.n_sites,
            dimension=basis.dim,
            n_off_primitives=int(compiled.n_off_diag_primitives),
        )

    @property
    def offdiag_per_row(self) -> float:
        return max(self.n_off_primitives * 0.25, 1.0)

    @property
    def total_elements(self) -> float:
        return self.dimension * self.offdiag_per_row

    @property
    def vector_bytes(self) -> float:
        return 8.0 * self.dimension


def default_knobs(method: str = "pc") -> dict:
    """The knob assignment an untuned operator runs with."""
    return {key: KNOB_DEFAULTS[key] for key in knob_keys(method)}


def coarse_split_candidates(
    machine, workload, n_locales: int, block_width: int = 1
) -> list[dict]:
    """Stage 1: model-pruned (consumer_fraction, work_stealing) settings.

    Always includes the paper default and the work-stealing mode; static
    splits from :data:`FRACTION_GRID` (deduplicated after rounding to
    whole cores) are ranked by modelled pipeline time and only the best
    :data:`COARSE_KEEP` survive to measurement.
    """
    from repro.distributed.matvec_pc import split_cores

    cores = machine.cores_per_locale

    def model(fraction):
        return MatvecScalingModel(
            machine, workload,
            consumer_fraction=fraction, block_width=block_width,
        )

    survivors = [
        {"consumer_fraction": DEFAULT_CONSUMER_FRACTION,
         "work_stealing": False},
        {"consumer_fraction": DEFAULT_CONSUMER_FRACTION,
         "work_stealing": True},
    ]
    default_split = split_cores(cores, DEFAULT_CONSUMER_FRACTION)
    seen_splits = {default_split}
    scored = []
    for raw in FRACTION_GRID:
        consumers = max(int(round(cores * raw)), 1)
        if consumers >= cores:
            continue
        fraction = consumers / cores
        split = split_cores(cores, fraction)
        if split in seen_splits:
            continue
        seen_splits.add(split)
        scored.append(
            (model(fraction).pipeline_time(n_locales), fraction)
        )
    scored.sort()
    for _, fraction in scored[:COARSE_KEEP]:
        candidate = {"consumer_fraction": fraction, "work_stealing": False}
        if candidate not in survivors:
            survivors.append(candidate)
    return survivors


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


def seed_candidates_from_dir(results_dir: str | Path) -> list[dict]:
    """Harvest knob assignments from prior sweep artifacts.

    Scans the machine-readable JSON artifacts the benchmark harness
    writes (``benchmarks/results/*.json``) for rows carrying a
    ``"knobs"`` dict (the ablation sweeps emit them) and returns the
    distinct assignments, in a deterministic order.  Unreadable or
    knob-free files are skipped — seeding is best-effort.
    """
    results_dir = Path(results_dir)
    if not results_dir.is_dir():
        return []
    seen: set[tuple] = set()
    out: list[dict] = []

    def visit(node) -> None:
        if isinstance(node, dict):
            knobs = node.get("knobs")
            if isinstance(knobs, dict) and "batch_size" in knobs:
                clean = {
                    key: knobs[key] for key in KNOB_KEYS if key in knobs
                }
                key = tuple(clean.get(k) for k in KNOB_KEYS)
                if key not in seen:
                    seen.add(key)
                    out.append(clean)
            for value in node.values():
                visit(value)
        elif isinstance(node, list):
            for value in node:
                visit(value)

    for path in sorted(results_dir.glob("*.json")):
        try:
            visit(json.loads(path.read_text()))
        except (OSError, json.JSONDecodeError):
            continue
    return out
