"""Wall-clock observability smoke for the ``threads`` execution backend.

Runs one traced producer-consumer matvec on the real-parallel backend —
the first matvec of a fresh operator, the pass that generates the elements
and so the one the pipeline runs on (a replay is one SpMV per locale on
the calling thread: nothing to watch) — and checks the whole observability
chain end to end:

- the saved trace is a Perfetto-loadable wall-clock timeline with
  per-thread tracks (``clock: "wall"`` at the top level), where every
  executor wait is a ``stall`` / ``idle`` / ``wait:nicN`` span;
- every ``repro-inspect`` report runs on the wall trace, and
  ``calibrate`` aligns it against a matching sim backend trace
  of the same generating pass (model vs measured, per phase);
- **hard gate**: with tracing disabled the dormant instrumentation hooks
  cost at most 2% over the fully-instrumented run (a fresh operator's
  first matvec each time, best-of-N with the two kinds interleaved,
  mirroring ``bench_smoke_pipeline``'s overhead gate — the instrumented
  run does strictly more work, so "disabled" may never come out slower
  beyond timer noise).

The produced artifacts land in ``benchmarks/results/`` so CI can replay
the ``repro-inspect`` subcommands against them:
``parallel_observability_wall_trace.json`` (threads, wall clock),
``parallel_observability_sim_trace.json`` (sim reference, sim clock), and
``parallel_observability_metrics.json`` (the threads run's metrics
snapshot, which ``repro-inspect --metrics`` folds in).

The full run uses the paper-style 24-site chain sector; ``BENCH_SMOKE=1``
drops to 16 sites so CI stays fast.  Worker count comes from the first
entry of ``PARALLEL_BENCH_WORKERS`` (default 4).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

import repro
from conftest import RESULTS_DIR, write_result
from repro.basis import SymmetricBasis
from repro.distributed import (
    DistributedOperator,
    DistributedVector,
    enumerate_states,
)
from repro.runtime import Cluster, laptop_machine
from repro.symmetry import chain_symmetries
from repro.telemetry import Telemetry, analyze_trace, use
from repro.telemetry.analysis import calibrate_traces

SMOKE = bool(os.environ.get("BENCH_SMOKE"))
CHAIN = 16 if SMOKE else 24
WEIGHT = CHAIN // 2
BATCH_SIZE = 64 if SMOKE else 2048
REPEATS = 7
WORKERS = int(
    os.environ.get("PARALLEL_BENCH_WORKERS", "4").split(",")[0]
)

WALL_TRACE = RESULTS_DIR / "parallel_observability_wall_trace.json"
SIM_TRACE = RESULTS_DIR / "parallel_observability_sim_trace.json"
METRICS = RESULTS_DIR / "parallel_observability_metrics.json"


def _distributed_setup(backend):
    group = chain_symmetries(CHAIN, momentum=0, parity=0, inversion=0)
    serial = SymmetricBasis(group, hamming_weight=WEIGHT)
    expr = repro.heisenberg_chain(CHAIN)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(serial.dim).astype(serial.scalar_dtype)
    cluster = Cluster(WORKERS, laptop_machine(cores=2), backend=backend)
    template = SymmetricBasis(group, hamming_weight=WEIGHT, build=False)
    dbasis, _ = enumerate_states(cluster, template, use_weight_shortcut=True)
    dx = DistributedVector.from_serial(dbasis, serial, x)

    def fresh_operator():
        return DistributedOperator(
            expr, dbasis, method="pc", batch_size=BATCH_SIZE
        )

    return fresh_operator, dx


@pytest.fixture(scope="module")
def traced_runs():
    """Traced threads + sim runs; saves the trace/metrics artifacts."""
    RESULTS_DIR.mkdir(exist_ok=True)

    fresh_operator, dx = _distributed_setup("threads")
    dop = fresh_operator()
    tele = Telemetry.enabled()
    with use(tele):
        t0 = time.perf_counter()
        dop.matvec(dx)
        wall_elapsed = time.perf_counter() - t0
    tele.trace.save(WALL_TRACE)
    snapshot = tele.metrics.snapshot()
    METRICS.write_text(json.dumps(snapshot.to_json(), indent=2))

    sim_operator, sim_dx = _distributed_setup("sim")
    sim_tele = Telemetry.enabled()
    with use(sim_tele):
        sim_operator().matvec(sim_dx)
    sim_tele.trace.save(SIM_TRACE)

    return wall_elapsed, snapshot


def test_wall_trace_has_per_thread_timeline(traced_runs):
    """The saved threads trace is a per-thread wall-clock timeline."""
    chrome = json.loads(WALL_TRACE.read_text())
    assert chrome["clock"] == "wall"
    spans = [e for e in chrome["traceEvents"] if e.get("ph") == "X"]
    assert spans, "threads trace recorded no spans"
    tracks = {(e["pid"], e["tid"]) for e in spans}
    assert len(tracks) >= WORKERS, (
        f"expected >= {WORKERS} per-thread tracks, got {sorted(tracks)}"
    )
    waits = [e for e in spans if e["name"] in ("stall", "idle")
             or e["name"].startswith("wait:")]
    assert waits, "threads trace recorded no executor waits"


def test_inspect_reports_run_on_wall_trace(traced_runs):
    analysis = analyze_trace(str(WALL_TRACE))
    assert analysis.clock == "wall"
    assert analysis.makespan > 0.0
    assert analysis.n_locales == WORKERS


def test_calibrate_aligns_model_and_measured(traced_runs):
    report = calibrate_traces(str(SIM_TRACE), str(WALL_TRACE))
    assert report["clock"] == {"model": "sim", "measured": "wall"}
    assert report["makespan_ratio"] > 0.0
    assert report["phases"], "calibrate produced no per-phase rows"


def test_disabled_tracing_overhead_within_two_percent():
    """Hard gate: tracing off must cost <= 2% over tracing on.

    Same basis, same vectors, the first (generating) matvec of a fresh
    operator each time; the instrumented run records spans and metrics, so
    it does strictly more work than the disabled run — any systematic
    slowdown of the disabled path would mean the dormant hooks themselves
    regressed.  The two kinds of run are interleaved, best of ``REPEATS``
    each.
    """
    fresh_operator, dx = _distributed_setup("threads")
    fresh_operator().matvec(dx)  # first-call costs (imports, caches)

    def timed_off() -> float:
        dop = fresh_operator()
        start = time.perf_counter()
        dop.matvec(dx)
        return time.perf_counter() - start

    def timed_on() -> float:
        dop = fresh_operator()
        tele = Telemetry.enabled()
        with use(tele):
            start = time.perf_counter()
            dop.matvec(dx)
            return time.perf_counter() - start

    # One run of each per repeat, the order alternating, so that the host's
    # drift over the test weighs on both sides alike.
    times = {timed_off: [], timed_on: []}
    for repeat in range(REPEATS):
        for timed in (timed_off, timed_on)[:: -1 if repeat % 2 else 1]:
            times[timed].append(timed())
    t_off, t_on = min(times[timed_off]), min(times[timed_on])
    assert t_off <= 1.02 * t_on, (
        f"tracing-disabled threads matvec took {t_off:.6f}s vs {t_on:.6f}s "
        f"instrumented — dormant tracing hooks cost more than 2%"
    )


def test_write_artifact(traced_runs):
    wall_elapsed, snapshot = traced_runs
    analysis = analyze_trace(str(WALL_TRACE))
    report = calibrate_traces(str(SIM_TRACE), str(WALL_TRACE))
    families = {
        name
        for section in (snapshot.counters, snapshot.gauges, snapshot.histograms)
        for name, _ in section
    }
    data = {
        "wall_seconds": wall_elapsed,
        "makespan_ratio": report["makespan_ratio"],
        "stall_fraction": analysis.stall_fraction,
        "overlap_efficiency": analysis.overlap_efficiency,
        "trace_spans": float(
            sum(
                1
                for e in json.loads(WALL_TRACE.read_text())["traceEvents"]
                if e.get("ph") == "X"
            )
        ),
        "metric_families": float(len(families)),
    }
    lines = [
        f"chain-{CHAIN} traced pc matvec, threads backend "
        f"({WORKERS} workers, batch {BATCH_SIZE})",
        f"wall seconds      {wall_elapsed:12.6f}",
        f"makespan ratio    {report['makespan_ratio']:12.3f}  "
        "(measured wall / modelled sim)",
        f"stall fraction    {analysis.stall_fraction:12.4f}",
        f"overlap eff.      {analysis.overlap_efficiency:12.4f}",
        f"trace spans       {int(data['trace_spans']):12d}",
        f"metric families   {int(data['metric_families']):12d}",
    ]
    write_result(
        "parallel_observability",
        "\n".join(lines),
        data,
        worker_count=WORKERS,
    )
