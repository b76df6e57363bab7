"""Tests for the wall-clock trace of the ``threads`` backend.

Covers the per-process span buffers that give the ``threads`` backend a
thread-safe trace (each worker appends to its own list, ``run()`` merges
them), and runs a real threads-backend trace through the
``repro-inspect`` subcommands — analyze, calibrate — plus the
clock-domain guard rails.
"""

from __future__ import annotations

import json
import sys
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
from repro.runtime import Cluster, Timeout, laptop_machine
from repro.runtime.executor import ThreadExecutor
from repro.symmetry import chain_symmetries
from repro.telemetry import Telemetry, TraceRecorder, use
from repro.telemetry.analysis import (
    TraceFormatError,
    analyze_trace,
    calibrate_traces,
    main,
)


class TestSpanBuffer:
    """Each threads-backend process appends its spans to its own buffer
    (``Process.buffer``: one writer, no lock); ``run()`` merges them."""

    def test_concurrent_writers_merge_monotone_per_track(self):
        """N worker threads × M spans each, merged through one recorder.

        This is the stress test of the wall-clock trace mode: every
        buffer is single-writer, the merge runs after the writers join,
        and the merged trace must hold every span with per-track
        monotone start times.
        """
        n_threads, n_spans = 8, 500
        trace = TraceRecorder()
        ex = ThreadExecutor(trace=trace)
        ex.watchdog_seconds = 10.0
        start_gate = threading.Event()
        sink = ex.queue(name="sink")

        def writer(tag):
            start_gate.wait(timeout=10.0)
            for i in range(n_spans):
                yield Timeout(1e-3, label=f"{tag}-{i}", args={"i": i})
                sink.push(i)  # one depth sample each, under the executor lock

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for i in range(n_threads):
                ex.spawn(
                    writer(f"t{i}"), name=f"t{i}",
                    track=(f"locale{i % 2}", f"worker{i}"),
                )
            start_gate.set()
            ex.run()
        finally:
            sys.setswitchinterval(interval)
        chrome = trace.to_chrome()
        assert chrome["clock"] == "wall"
        spans = [e for e in chrome["traceEvents"] if e.get("ph") == "X"]
        assert len(spans) == n_threads * n_spans
        depths = [e["args"]["sink"] for e in chrome["traceEvents"]
                  if e.get("ph") == "C"]
        assert depths == list(range(1, n_threads * n_spans + 1))
        by_track: dict = {}
        for event in spans:
            by_track.setdefault((event["pid"], event["tid"]), []).append(
                event["ts"]
            )
        assert len(by_track) == n_threads
        for stamps in by_track.values():
            assert stamps == sorted(stamps), "track not monotone after merge"


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
        assert "clock: wall" in out

    def test_analyze_json(self, wall_trace_path, capsys):
        assert main([wall_trace_path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["clock"] == "wall"
        assert data["makespan_seconds"] > 0.0

    def test_calibrate(self, wall_trace_path, sim_trace_path, capsys):
        assert main(["calibrate", sim_trace_path, wall_trace_path]) == 0
        out = capsys.readouterr().out
        assert "measured: wall" in out
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
