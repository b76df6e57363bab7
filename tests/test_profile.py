"""Tests for the wall-clock profiling layer (repro.telemetry.profile).

Covers the concurrent-writer span-buffer machinery that gives the
``threads`` backend a thread-safe wall-clock trace mode, and runs a real
threads-backend trace through the ``repro-inspect`` subcommands —
analyze, diff, calibrate — plus the clock-domain guard rails.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

import repro
from repro.basis import SymmetricBasis
from repro.distributed import (
    DistributedOperator,
    DistributedVector,
    enumerate_states,
)
from repro.runtime import Cluster, laptop_machine
from repro.symmetry import chain_symmetries
from repro.telemetry import MetricsRegistry, Telemetry, TraceRecorder, use
from repro.telemetry.analysis import (
    TraceFormatError,
    analyze_trace,
    calibrate_traces,
    main,
)
from repro.telemetry.profile import (
    NULL_PROFILER,
    ExecutorProfiler,
    ProfiledLock,
    SpanBuffer,
)


class TestSpanBuffer:
    def test_capacity_bound_counts_drops(self):
        buf = SpanBuffer(("locale0", "w0"), capacity=3)
        for i in range(5):
            buf.span(f"s{i}", float(i), 0.5)
        assert len(buf.spans) == 3
        assert buf.dropped == 2

    def test_concurrent_writers_merge_monotone_per_track(self):
        """N worker threads × M spans each, merged through one recorder.

        This is the stress test of the wall-clock trace mode: every
        buffer is single-writer, the flush runs after the writers join,
        and the merged trace must hold every span with per-track
        monotone start times.
        """
        n_threads, n_spans = 8, 500
        trace = TraceRecorder()
        profile = ExecutorProfiler(trace=trace, metrics=None, wall=True)
        buffers = [
            profile.buffer((f"locale{i % 2}", f"worker{i}"))
            for i in range(n_threads)
        ]
        start_gate = threading.Event()

        def writer(buf, tag):
            start_gate.wait()
            for i in range(n_spans):
                buf.span(f"{tag}-{i}", i * 1e-3, 1e-3, {"i": i})

        threads = [
            threading.Thread(target=writer, args=(buf, f"t{i}"))
            for i, buf in enumerate(buffers)
        ]
        for t in threads:
            t.start()
        start_gate.set()
        for t in threads:
            t.join()
        profile.flush()
        chrome = trace.to_chrome()
        assert chrome["clock"] == "wall"
        spans = [e for e in chrome["traceEvents"] if e.get("ph") == "X"]
        assert len(spans) == n_threads * n_spans
        by_track: dict = {}
        for event in spans:
            by_track.setdefault((event["pid"], event["tid"]), []).append(
                event["ts"]
            )
        assert len(by_track) == n_threads
        for stamps in by_track.values():
            assert stamps == sorted(stamps), "track not monotone after merge"

    def test_flush_is_idempotent(self):
        trace = TraceRecorder()
        profile = ExecutorProfiler(trace=trace, wall=True)
        buf = profile.buffer(("locale0", "w0"))
        buf.span("a", 0.0, 1.0)
        profile.flush()
        profile.flush()
        spans = [
            e for e in trace.to_chrome()["traceEvents"] if e.get("ph") == "X"
        ]
        assert len(spans) == 1

    def test_flush_counts_dropped_spans(self):
        metrics = MetricsRegistry()
        profile = ExecutorProfiler(trace=TraceRecorder(), metrics=metrics)
        buf = profile.buffer(("locale0", "w0"), capacity=2)
        for i in range(5):
            buf.span("s", float(i), 0.5)
        profile.flush()
        profile.flush()  # drained: the second flush adds nothing
        snapshot = metrics.snapshot()
        assert snapshot.counter_total("executor.trace_spans_dropped") == 3


class TestExecutorProfiler:
    def test_null_profiler_is_fully_disabled(self):
        assert not NULL_PROFILER.enabled
        assert not NULL_PROFILER.tracing
        assert not NULL_PROFILER.metering
        NULL_PROFILER.flush()  # must be a no-op, not an error

    def test_disabled_sinks_are_dropped(self):
        from repro.telemetry.metrics import NullMetricsRegistry
        from repro.telemetry.trace import NullTraceRecorder

        profile = ExecutorProfiler(
            trace=NullTraceRecorder(), metrics=NullMetricsRegistry()
        )
        assert not profile.enabled

    def test_wait_hold_worker_families(self):
        metrics = MetricsRegistry()
        profile = ExecutorProfiler(metrics=metrics)
        profile.wait("flag", "go", 0.25)
        profile.wait("queue", "ready", 0.5)
        profile.hold("resource", "nic0", 0.125)
        profile.worker("cons-0", 0, busy=2.0, blocked=1.0)
        profile.queue_depth("ready", 3)
        profile.queue_depth("ready", 1)
        profile.flush()
        snap = metrics.snapshot()
        hists = {name: s for (name, _), s in snap.histograms.items()}
        assert hists["executor.flag_wait_seconds"]["sum"] == 0.25
        assert hists["executor.queue_wait_seconds"]["sum"] == 0.5
        assert hists["executor.resource_hold_seconds"]["sum"] == 0.125
        counters = {name: v for (name, _), v in snap.counters.items()}
        assert counters["executor.worker_busy_seconds"] == 2.0
        assert counters["executor.worker_blocked_seconds"] == 1.0
        gauges = dict(snap.gauges)
        assert gauges[("executor.queue_depth", (("queue", "ready"),))] == 1.0
        assert (
            gauges[("executor.queue_depth_max", (("queue", "ready"),))] == 3.0
        )

    def test_profiled_lock_outermost_only(self):
        metrics = MetricsRegistry()
        profile = ExecutorProfiler(metrics=metrics)
        lock = ProfiledLock(threading.RLock(), profile, "mutex")
        with lock:
            with lock:  # reentrant: must not observe a nested hold
                pass
        profile.flush()
        snap = metrics.snapshot()
        holds = {
            name: s
            for (name, _), s in snap.histograms.items()
            if name == "executor.lock_hold_seconds"
        }
        assert holds["executor.lock_hold_seconds"]["count"] == 1


# -- a real threads trace through every repro-inspect subcommand -------------


CHAIN, WEIGHT, BATCH = 14, 7, 32


def _traced_matvec(backend, workers=4):
    group = chain_symmetries(CHAIN, momentum=0, parity=0, inversion=0)
    serial = SymmetricBasis(group, hamming_weight=WEIGHT)
    expr = repro.heisenberg_chain(CHAIN)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(serial.dim).astype(serial.scalar_dtype)
    tele = Telemetry.enabled()
    cluster = Cluster(workers, laptop_machine(cores=2), backend=backend)
    template = SymmetricBasis(group, hamming_weight=WEIGHT, build=False)
    dbasis, _ = enumerate_states(cluster, template, use_weight_shortcut=True)
    dx = DistributedVector.from_serial(dbasis, serial, x)
    dop = DistributedOperator(expr, dbasis, method="pc", batch_size=BATCH)
    with use(tele):
        dop.matvec(dx)
    return tele


@pytest.fixture(scope="module")
def wall_trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("profile") / "wall_trace.json"
    _traced_matvec("threads").trace.save(path)
    return str(path)


@pytest.fixture(scope="module")
def sim_trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("profile") / "sim_trace.json"
    _traced_matvec("sim").trace.save(path)
    return str(path)


class TestInspectOnThreadsTrace:
    def test_trace_is_wall_clock_with_per_thread_tracks(self, wall_trace_path):
        chrome = json.loads(open(wall_trace_path).read())
        assert chrome["clock"] == "wall"
        names = {
            e["name"]
            for e in chrome["traceEvents"]
            if e.get("ph") == "X"
        }
        # Real per-thread wait spans, not just Timeout stamps.
        assert {"generate", "search+accum"} <= names
        assert names & {"stall", "idle"} or any(
            n.startswith("wait:") for n in names
        )

    def test_analyze(self, wall_trace_path, capsys):
        assert main([wall_trace_path]) == 0
        out = capsys.readouterr().out
        assert "clock: wall seconds" in out

    def test_analyze_json(self, wall_trace_path, capsys):
        assert main([wall_trace_path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["clock"] == "wall"
        assert data["makespan_seconds"] > 0.0

    def test_diff_same_clock_succeeds(self, wall_trace_path, capsys):
        assert main(["diff", wall_trace_path, wall_trace_path]) == 0

    def test_diff_cross_clock_exits_2(
        self, wall_trace_path, sim_trace_path, capsys
    ):
        assert main(["diff", sim_trace_path, wall_trace_path]) == 2
        err = capsys.readouterr().err
        assert "repro-inspect: error:" in err
        assert "clock domain" in err

    def test_calibrate(self, wall_trace_path, sim_trace_path, capsys):
        assert main(["calibrate", sim_trace_path, wall_trace_path]) == 0
        out = capsys.readouterr().out
        assert "model (simulated seconds) vs measured (wall seconds)" in out
        assert "makespan" in out

    def test_calibrate_json(self, wall_trace_path, sim_trace_path, capsys):
        assert main(
            ["calibrate", sim_trace_path, wall_trace_path, "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["clock"] == {"model": "sim", "measured": "wall"}
        assert report["makespan_ratio"] > 0.0
        assert report["phases"], "no per-phase rows in calibrate report"
        by_phase = {p["phase"]: p for p in report["phases"]}
        assert "generate" in by_phase
        assert by_phase["generate"]["model_seconds"] > 0.0
        assert by_phase["generate"]["measured_seconds"] > 0.0

    def test_calibrate_reads_each_trace_once(
        self, wall_trace_path, sim_trace_path, monkeypatch
    ):
        from repro.telemetry import analysis

        reads = []
        read_json = analysis._read_json
        monkeypatch.setattr(
            analysis, "_read_json",
            lambda path: reads.append(path) or read_json(path),
        )
        calibrate_traces(sim_trace_path, wall_trace_path)
        assert sorted(reads) == sorted([sim_trace_path, wall_trace_path])

    def test_calibrate_rejects_swapped_inputs(
        self, wall_trace_path, sim_trace_path
    ):
        with pytest.raises(TraceFormatError, match="model"):
            calibrate_traces(wall_trace_path, sim_trace_path)
        assert main(["calibrate", wall_trace_path, sim_trace_path]) == 2

    def test_analysis_api_reads_clock(self, wall_trace_path, sim_trace_path):
        assert analyze_trace(wall_trace_path).clock == "wall"
        assert analyze_trace(sim_trace_path).clock == "sim"
