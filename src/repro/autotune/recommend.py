"""Recommendations: turning analytics signals into knob advice.

Two entry points:

- :func:`recommend_split` works on the *model*: it reads the pipeline
  stage times of :class:`~repro.perfmodel.models.MatvecScalingModel`
  under the default producer:consumer split, flags the split as
  stall-dominated when the stages are materially unbalanced (one side's
  cores idle waiting on the other — the paper's Sec. 6.3 observation
  about the 104/24 split), and proposes the best alternative whose
  modelled time is strictly lower (usually work stealing, the paper's
  Sec. 7 proposal).

- :func:`recommend_from_trace` works on a *recorded trace*: it reads the
  stall fraction, overlap efficiency, and load-imbalance index that
  :func:`repro.telemetry.analysis.analyze_trace` computes, attributes
  the per-phase seconds to the producer and consumer pools, and emits
  knob-directed advice.  This is what ``repro-inspect tune TRACE``
  prints.
"""

from __future__ import annotations

import re

from repro.distributed.matvec_pc import (
    DEFAULT_CONSUMER_FRACTION,
    split_cores,
)
from repro.perfmodel.models import MatvecScalingModel

__all__ = [
    "recommend_split",
    "recommend_from_trace",
    "render_recommendations",
]

#: A static split counts as stall-dominated when the faster compute
#: stage idles more than this fraction of the slower stage's time.
STALL_SHARE_THRESHOLD = 0.05

_PRODUCER_RE = re.compile(r"^producer\d+$")
_CONSUMER_RE = re.compile(r"^consumer\d+$")


def recommend_split(
    machine,
    workload,
    n_locales: int,
    consumer_fraction: float = DEFAULT_CONSUMER_FRACTION,
    block_width: int = 1,
    consumer_grid=(8, 16, 24, 32, 48, 64),
) -> dict:
    """Judge a static producer:consumer split and propose a better one.

    Returns a dict with the default split's stage accounting
    (``default``), whether it is stall-dominated (one compute stage's
    cores idle > :data:`STALL_SHARE_THRESHOLD` of the other's time), and
    a ``proposal`` whose modelled pipeline time is *strictly* lower than
    the default's — work stealing or a rebalanced static split —
    or ``None`` when the default cannot be improved.
    """
    def model(fraction):
        return MatvecScalingModel(
            machine, workload,
            consumer_fraction=fraction, block_width=block_width,
        )

    base = model(consumer_fraction)
    base_seconds = base.pipeline_time(n_locales)
    producers, consumers = split_cores(
        machine.cores_per_locale, consumer_fraction
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

    candidates: list[tuple[float, dict]] = [
        (
            model(consumer_fraction).pipeline_time(
                n_locales, work_stealing=True
            ),
            {
                "consumer_fraction": consumer_fraction,
                "work_stealing": True,
            },
        )
    ]
    cores = machine.cores_per_locale
    for consumers in consumer_grid:
        fraction = consumers / cores
        if not 0.0 < fraction < 1.0 or fraction == consumer_fraction:
            continue
        candidates.append(
            (
                model(fraction).pipeline_time(n_locales),
                {"consumer_fraction": fraction, "work_stealing": False},
            )
        )
    best_seconds, best_knobs = min(
        candidates, key=lambda c: (c[0], not c[1]["work_stealing"])
    )

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
            "consumer_fraction": consumer_fraction,
            **stages,
            "pipeline_seconds": base_seconds,
            "stall_share": stall_share,
            "idle_pool": idle_pool,
        },
        "stall_dominated": stall_share > STALL_SHARE_THRESHOLD,
        "proposal": proposal,
    }


def recommend_from_trace(source) -> dict:
    """Knob advice from a recorded trace (see module docstring).

    ``source`` is anything :func:`~repro.telemetry.analysis.analyze_trace`
    accepts — a trace path, Chrome dict, or live recorder.
    """
    from repro.telemetry.analysis import analyze_trace, load_spans

    analysis = analyze_trace(source)
    phases: dict[str, float] = {}
    pool_busy = {"producer": 0.0, "consumer": 0.0}
    pool_tracks = {"producer": set(), "consumer": set()}
    for span in load_spans(source):
        if span.locale is None:
            continue
        phases[span.name] = phases.get(span.name, 0.0) + span.duration
        pool = (
            "producer"
            if _PRODUCER_RE.match(span.thread)
            else "consumer"
            if _CONSUMER_RE.match(span.thread)
            else None
        )
        if pool is not None:
            pool_tracks[pool].add((span.process, span.thread))
            if span.category in ("compute", "send"):
                pool_busy[pool] += span.duration

    recommendations: list[dict] = []
    stall = analysis.stall_fraction
    if stall > STALL_SHARE_THRESHOLD:
        n_prod = max(len(pool_tracks["producer"]), 1)
        n_cons = max(len(pool_tracks["consumer"]), 1)
        prod_rate = pool_busy["producer"] / n_prod
        cons_rate = pool_busy["consumer"] / n_cons
        if cons_rate > prod_rate:
            direction = (
                "consumers are the bottleneck: raise consumer_fraction "
                "or enable work_stealing so retired producers drain the "
                "ready queues"
            )
        else:
            direction = (
                "producers are the bottleneck: lower consumer_fraction "
                "or enable work_stealing to erase the static split"
            )
        recommendations.append(
            {
                "knob": "consumer_fraction/work_stealing",
                "severity": "high",
                "message": (
                    f"stall fraction {stall:.1%} — the static "
                    f"producer:consumer split is stall-dominated; "
                    f"{direction}"
                ),
            }
        )
    if analysis.overlap_efficiency < 0.5 and phases.get("send", 0.0) > 0.0:
        recommendations.append(
            {
                "knob": "batch_size",
                "severity": "medium",
                "message": (
                    f"overlap efficiency "
                    f"{analysis.overlap_efficiency:.2f} — communication "
                    "is poorly hidden; smaller batch_size values emit "
                    "more, earlier chunks (better pipelining), larger "
                    "ones amortize per-message latency — sweep around "
                    "the current setting"
                ),
            }
        )
    if analysis.imbalance_index > 1.5:
        recommendations.append(
            {
                "knob": "distribution",
                "severity": "medium",
                "message": (
                    f"load-imbalance index {analysis.imbalance_index:.2f} "
                    "— work is unevenly spread across locales; no pipeline "
                    "knob fixes placement (check the hashed distribution)"
                ),
            }
        )
    if not recommendations:
        recommendations.append(
            {
                "knob": None,
                "severity": "none",
                "message": (
                    "no pathology detected: stalls, overlap, and balance "
                    "are all within thresholds — run the measured search "
                    "(tune='force') for the last few percent"
                ),
            }
        )
    return {
        "clock": analysis.clock,
        "scalars": analysis.scalars(),
        "phases": dict(sorted(phases.items(), key=lambda kv: -kv[1])),
        "pools": {
            "producer_tracks": len(pool_tracks["producer"]),
            "consumer_tracks": len(pool_tracks["consumer"]),
            "producer_busy_seconds": pool_busy["producer"],
            "consumer_busy_seconds": pool_busy["consumer"],
        },
        "recommendations": recommendations,
    }


def render_recommendations(report: dict) -> str:
    """Human-readable form of :func:`recommend_from_trace`'s report."""
    clock = (
        "wall seconds" if report["clock"] == "wall" else "simulated seconds"
    )
    s = report["scalars"]
    lines = [
        f"clock: {clock}",
        f"makespan {s['makespan_seconds']:.6g} s | stall "
        f"{s['stall_fraction']:.1%} | overlap "
        f"{s['overlap_efficiency']:.2f} | imbalance "
        f"{s['imbalance_index']:.2f}",
    ]
    pools = report["pools"]
    lines.append(
        f"pools: {pools['producer_tracks']} producer tracks "
        f"({pools['producer_busy_seconds']:.6g} s busy), "
        f"{pools['consumer_tracks']} consumer tracks "
        f"({pools['consumer_busy_seconds']:.6g} s busy)"
    )
    if report["phases"]:
        lines.append("")
        lines.append(f"{'phase':<24} {'seconds':>12}")
        for name, seconds in report["phases"].items():
            lines.append(f"{name:<24} {seconds:>12.6g}")
    lines.append("")
    lines.append("recommendations:")
    for rec in report["recommendations"]:
        knob = f" [{rec['knob']}]" if rec["knob"] else ""
        lines.append(f"  ({rec['severity']}){knob} {rec['message']}")
    return "\n".join(lines)
