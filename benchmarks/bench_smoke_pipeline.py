"""Deterministic pipeline diagnostics of the three matvec variants.

Runs the three distributed matvec variants (naive / batched /
producer-consumer) traced on the paper's 16-site chain sector and feeds
the traces through :mod:`repro.telemetry.analysis`.  Every number written
here — simulated elapsed seconds, overlap efficiency, stall fraction,
imbalance index, traffic volumes — is a pure function of the code and the
simulated machine model; the same three runs are in the sim snapshot
(``tests/sim_snapshot.py``, ``smoke/c16-l4/<variant>``), which holds
their report, trace and analysis to the last bit.

This is also where the paper's Sec. 5.3 claim is asserted as a test, not
just reported: the producer-consumer pipeline must overlap communication
with computation strictly better than the naive per-element variant.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

import repro
from conftest import write_result
from repro import telemetry
from repro.distributed import DistributedOperator, DistributedVector
from repro.telemetry import Telemetry, analyze_trace

VARIANTS = ("naive", "batched", "pc")


@pytest.fixture(scope="module")
def pipeline_analyses(chain16_setup):
    """method -> (TraceAnalysis, SimReport, memory figures) per matvec variant.

    Each variant runs with tracemalloc active, for the peak-memory figures
    the artifact records.
    """
    serial, dbasis, _ = chain16_setup
    expr = repro.heisenberg_chain(16)
    x = DistributedVector.full_random(dbasis, seed=7)
    reference = None
    out = {}
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        for method in VARIANTS:
            kwargs = {"batch_size": 256}
            if method == "pc":
                kwargs.update(
                    buffer_capacity=64,
                    producers_per_locale=3,
                    consumers_per_locale=1,
                )
            dop = DistributedOperator(expr, dbasis, method=method, **kwargs)
            tele = Telemetry.enabled()
            tracemalloc.reset_peak()
            with telemetry.use(tele):
                y = dop.matvec(x)
            memory = {
                "peak_array_bytes": x.nbytes + y.nbytes,
                "peak_tracemalloc_bytes": tracemalloc.get_traced_memory()[1],
            }
            if reference is None:
                reference = y.to_serial(serial)
            else:
                np.testing.assert_allclose(
                    y.to_serial(serial), reference, atol=1e-12
                )
            out[method] = (
                analyze_trace(tele.trace, metrics=tele.metrics),
                dop.last_report,
                memory,
            )
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return out


def test_pc_overlaps_strictly_better_than_naive(pipeline_analyses):
    pc, _, _ = pipeline_analyses["pc"]
    naive, _, _ = pipeline_analyses["naive"]
    assert pc.overlap_efficiency > naive.overlap_efficiency
    assert pc.n_locales == naive.n_locales == 4


def test_variants_move_identical_payloads(pipeline_analyses):
    """All three variants push the same bytes — they differ in *how*."""
    totals = {
        method: sum(entry[0] for entry in analysis.comm.values())
        for method, (analysis, _, _) in pipeline_analyses.items()
    }
    assert totals["naive"] == totals["batched"] == totals["pc"] > 0


def test_sinks_conserve_traffic(pipeline_analyses):
    """The metrics registry, the report and the trace's span args must
    carry the same bytes: three sinks, one count."""
    for method, (analysis, report, _) in pipeline_analyses.items():
        total_bytes = sum(entry[0] for entry in analysis.comm.values())
        assert (
            report.metrics.counter_total("matvec.bytes")
            == report.bytes_sent
            == total_bytes
            > 0
        ), method


def test_smoke_pipeline_artifact(pipeline_analyses):
    data = {}
    lines = [
        f"{'variant':<10} {'sim[s]':>12} {'overlap':>8} {'stall':>8} "
        f"{'imbal':>8} {'bytes':>10} {'msgs':>8} {'peakMB':>8}"
    ]
    for method, (analysis, report, memory) in pipeline_analyses.items():
        total_bytes = sum(entry[0] for entry in analysis.comm.values())
        total_msgs = sum(entry[1] for entry in analysis.comm.values())
        data[method] = {
            "simulated_seconds": report.elapsed,
            "overlap_efficiency": analysis.overlap_efficiency,
            "stall_fraction": analysis.stall_fraction,
            "imbalance_index": analysis.imbalance_index,
            "critical_path_utilization": analysis.critical_path_utilization,
            "bytes": total_bytes,
            "messages": total_msgs,
            # allocator- and version-dependent: recorded, not compared
            **memory,
        }
        lines.append(
            f"{method:<10} {report.elapsed:>12.6g} "
            f"{analysis.overlap_efficiency:>8.4f} "
            f"{analysis.stall_fraction:>8.4f} "
            f"{analysis.imbalance_index:>8.4f} "
            f"{total_bytes:>10.0f} {total_msgs:>8.0f} "
            f"{memory['peak_tracemalloc_bytes'] / 1e6:>8.2f}"
        )
    write_result("smoke_pipeline", "\n".join(lines), data)


def test_disabled_telemetry_overhead_within_two_percent(chain16_setup):
    """Hard gate: running with telemetry *disabled* must cost no more
    than 2% over the fully-instrumented run.

    The instrumentation sites stay in the code when telemetry is off,
    writing to the null registry/recorder.  Comparing the disabled path
    against the enabled (metrics) path bounds what those dormant hooks can
    cost: the enabled path does strictly more work, so disabled must never
    come out slower beyond timer noise.  Warm plan replays only, one run
    of each kind per repeat with the order alternating, best-of-N to damp
    scheduler jitter.
    """
    serial, dbasis, _ = chain16_setup
    expr = repro.heisenberg_chain(16)
    x = DistributedVector.full_random(dbasis, seed=7)
    dop = DistributedOperator(expr, dbasis, method="pc", batch_size=256)
    dop.matvec(x)  # warm the plan cache

    def timed_off() -> float:
        start = time.perf_counter()
        dop.matvec(x)
        return time.perf_counter() - start

    def timed_on() -> float:
        tele = Telemetry.enabled(trace=False, metrics=True)
        with telemetry.use(tele):
            start = time.perf_counter()
            dop.matvec(x)
            return time.perf_counter() - start

    # One run of each per repeat, the order alternating, so that the host's
    # drift over the test weighs on both sides alike.
    times = {timed_off: [], timed_on: []}
    for repeat in range(7):
        for timed in (timed_off, timed_on)[:: -1 if repeat % 2 else 1]:
            times[timed].append(timed())
    t_off, t_on = min(times[timed_off]), min(times[timed_on])
    assert t_off <= 1.02 * t_on, (
        f"disabled-telemetry matvec took {t_off:.6f}s vs {t_on:.6f}s "
        f"instrumented — dormant telemetry hooks cost more than 2%"
    )
