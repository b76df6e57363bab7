"""Tests for the telemetry subsystem.

Unit tests for the trace recorder, the metrics registry, and the ambient
context, plus integrity tests on a traced producer-consumer matvec run:
per-track timestamps are monotone and non-overlapping, every span closes,
the producer stall spans agree with the cost ledger, and the byte counters
agree with the simulation report.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.basis import SymmetricBasis
from repro.distributed import (
    DistributedOperator,
    DistributedVector,
    enumerate_states,
)
from repro.runtime import Cluster, laptop_machine
from repro.runtime.events import Pop, Simulator, Timeout, WaitFlag
from repro.symmetry import chain_symmetries
from repro.telemetry import (
    MetricsRegistry,
    MetricsSnapshot,
    NullMetricsRegistry,
    NullTraceRecorder,
    Telemetry,
    TraceRecorder,
)

US = 1e6  # trace timestamps are microseconds


class TestTraceRecorder:
    def test_complete_converts_to_microseconds(self):
        trace = TraceRecorder()
        trace.complete(("locale0", "producer0"), "generate", 1.5, 0.25)
        (event,) = trace.events
        assert event["ph"] == "X"
        assert event["name"] == "generate"
        assert event["ts"] == pytest.approx(1.5 * US)
        assert event["dur"] == pytest.approx(0.25 * US)

    def test_advance_offsets_later_events(self):
        trace = TraceRecorder()
        trace.complete(("a", "b"), "first", 0.0, 1.0)
        trace.advance(10.0)
        trace.complete(("a", "b"), "second", 0.0, 1.0)
        assert trace.events[1]["ts"] == pytest.approx(10.0 * US)

    def test_global_start_less_offset_lands_at_global_time(self):
        """How the Lanczos solver places a span it timed on the global
        timeline: it passes the global start less the offset."""
        trace = TraceRecorder()
        trace.advance(5.0)
        trace.complete(("a", "b"), "span", 7.0 - trace.offset, 1.0)
        assert trace.events[0]["ts"] == pytest.approx(7.0 * US)

    def test_tracks_map_to_pid_tid_metadata(self):
        trace = TraceRecorder()
        trace.complete(("locale0", "producer0"), "x", 0.0, 1.0)
        trace.complete(("locale0", "consumer0"), "x", 0.0, 1.0)
        trace.complete(("locale1", "producer0"), "x", 0.0, 1.0)
        chrome = trace.to_chrome()
        meta = [e for e in chrome["traceEvents"] if e["ph"] == "M"]
        processes = {
            e["pid"]: e["args"]["name"]
            for e in meta
            if e["name"] == "process_name"
        }
        threads = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in meta
            if e["name"] == "thread_name"
        }
        assert sorted(processes.values()) == ["locale0", "locale1"]
        assert sorted(threads.values()) == [
            "consumer0",
            "producer0",
            "producer0",
        ]
        # Same process label -> same pid; distinct threads -> distinct tids.
        pid0 = next(p for p, n in processes.items() if n == "locale0")
        tids = [t for (p, t) in threads if p == pid0]
        assert len(tids) == len(set(tids)) == 2

    def test_counter_and_instant_events(self):
        trace = TraceRecorder()
        trace.counter(("queues", "ready0"), "ready0", 2.0, 5)
        (counter,) = trace.events
        assert counter["ph"] == "C"
        assert counter["args"] == {"ready0": 5}

    def test_json_round_trips(self):
        trace = TraceRecorder()
        trace.complete(("a", "b"), "span", 0.0, 1.0, args={"size": 4})
        data = json.loads(trace.to_json())
        assert data["displayTimeUnit"] == "ms"
        spans = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert spans[0]["args"] == {"size": 4}

    def test_null_recorder_records_nothing(self):
        trace = NullTraceRecorder()
        assert trace.enabled is False
        trace.complete(("a", "b"), "x", 0.0, 1.0)
        trace.counter(("a", "b"), "x", 0.0, 1)
        trace.advance(5.0)
        assert trace.events == []
        assert trace.offset == 0.0


class TestMetricsRegistry:
    def test_counters_interned_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("bytes", src=0, dst=1)
        b = reg.counter("bytes", dst=1, src=0)  # label order normalized
        c = reg.counter("bytes", src=0, dst=2)
        assert a is b
        assert a is not c

    def test_counter_total_sums_label_family(self):
        reg = MetricsRegistry()
        reg.counter("bytes", src=0, dst=1).inc(100)
        reg.counter("bytes", src=1, dst=0).inc(50)
        reg.counter("messages", src=0, dst=1).inc()
        assert reg.counter_total("bytes") == pytest.approx(150)
        assert reg.counter_total("messages") == pytest.approx(1)
        assert reg.counter_total("missing") == 0.0

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        g = reg.gauge("imbalance")
        g.set(1.5)
        g.set(1.2)
        assert g.value == 1.2

    def test_snapshot_is_frozen(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(1)
        snap = reg.snapshot()
        reg.counter("n").inc(41)
        assert snap.counter_total("n") == pytest.approx(1)
        assert reg.counter_total("n") == pytest.approx(42)

    def test_snapshot_table_renders_all_kinds(self):
        reg = MetricsRegistry()
        reg.counter("matvec.bytes", src=0, dst=1).inc(512)
        reg.gauge("imbalance").set(1.25)
        table = reg.snapshot().table()
        assert "matvec.bytes{dst=1,src=0}" in table
        assert "imbalance" in table

    def test_empty_snapshot_table(self):
        assert MetricsRegistry().snapshot().table() == "(no metrics recorded)"

    def test_snapshot_json_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("bytes", src=0, dst=1).inc(100)
        reg.gauge("residual").set(1e-9)
        snap = reg.snapshot()
        restored = MetricsSnapshot.from_json(
            json.loads(json.dumps(snap.to_json()))
        )
        assert restored == snap

    def test_null_registry_hands_out_shared_noops(self):
        reg = NullMetricsRegistry()
        assert reg.enabled is False
        c = reg.counter("bytes", src=0, dst=1)
        assert c is reg.counter("other")
        c.inc(100)
        reg.gauge("g").set(5.0)
        assert c.value == 0.0
        assert reg.gauge("g").value == 0.0
        snap = reg.snapshot()
        assert snap.counters == {} and snap.gauges == {}


class TestTelemetryContext:
    def test_default_is_noop(self):
        tele = telemetry.current()
        assert tele.trace.enabled is False
        assert tele.metrics.enabled is False

    def test_use_installs_and_restores(self):
        live = Telemetry.enabled()
        assert telemetry.current() is telemetry.NULL_TELEMETRY
        with telemetry.use(live):
            assert telemetry.current() is live
        assert telemetry.current() is telemetry.NULL_TELEMETRY

    def test_install_none_restores_null(self):
        live = Telemetry.enabled()
        previous = telemetry.install(live)
        try:
            assert telemetry.current() is live
        finally:
            telemetry.install(None)
        assert previous is telemetry.NULL_TELEMETRY
        assert telemetry.current() is telemetry.NULL_TELEMETRY

    def test_enabled_halves_individually(self):
        tele = Telemetry.enabled(trace=False)
        assert tele.trace.enabled is False
        assert tele.metrics.enabled is True


class TestSimulatorTracing:
    def test_idle_span_and_queue_counters(self):
        trace = TraceRecorder()
        sim = Simulator(trace=trace)
        q = sim.queue(name="ready")

        def producer():
            q.push("a")
            yield Timeout(5e-6, "work")
            q.push("b")

        def consumer():
            yield Timeout(2e-6)
            assert (yield Pop(q)) == "a"  # from the backlog
            assert (yield Pop(q)) == "b"  # blocks until the second push

        sim.spawn(producer(), name="prod", track=("locale0", "producer0"))
        sim.spawn(consumer(), name="cons", track=("locale0", "consumer0"))
        sim.run()
        spans = {e["name"]: e for e in trace.events if e["ph"] == "X"}
        assert spans["work"]["dur"] == pytest.approx(5.0)
        # The consumer blocked from the empty pop at t=2us until t=5us.
        assert spans["idle"]["ts"] == pytest.approx(2.0)
        assert spans["idle"]["dur"] == pytest.approx(3.0)
        # Depth samples at both backlog transitions: push -> 1, pop -> 0.
        counters = [e for e in trace.events if e["ph"] == "C"]
        assert [e["args"]["ready"] for e in counters] == [1, 0]

    def test_flag_wait_emits_stall_span(self):
        trace = TraceRecorder()
        sim = Simulator(trace=trace)
        flag = sim.flag(False)

        def setter():
            yield Timeout(3e-6)
            flag.set(True)

        def waiter():
            yield WaitFlag(flag, True)

        sim.spawn(setter(), name="set")
        sim.spawn(waiter(), name="wait", track=("locale0", "producer0"))
        sim.run()
        (stall,) = [e for e in trace.events if e["name"] == "stall"]
        assert stall["dur"] == pytest.approx(3.0)

    def test_untraced_simulator_has_no_overhead_state(self):
        sim = Simulator()
        flag = sim.flag(False)

        def setter():
            yield Timeout(1e-6)
            flag.set(True)

        def waiter():
            yield WaitFlag(flag, True)

        sim.spawn(setter())
        sim.spawn(waiter())
        assert sim.run() == pytest.approx(1e-6)


@pytest.fixture(scope="module")
def traced_matvec():
    """A producer-consumer matvec run against live telemetry, with a
    deliberately tight pipeline (tiny buffers, one consumer per locale) so
    producers actually stall on full buffers."""
    group = chain_symmetries(12, momentum=0, parity=0, inversion=0)
    serial = SymmetricBasis(group, hamming_weight=6)
    template = SymmetricBasis(group, hamming_weight=6, build=False)
    cluster = Cluster(3, laptop_machine(cores=4))
    dbasis, _ = enumerate_states(cluster, template, chunks_per_core=3)
    dop = DistributedOperator(
        repro.heisenberg_chain(12),
        dbasis,
        method="pc",
        batch_size=32,
        buffer_capacity=16,
        producers_per_locale=4,
        consumers_per_locale=1,
    )
    tele = Telemetry.enabled()
    with telemetry.use(tele):
        x = DistributedVector.full_random(dbasis, seed=0)
        y = dop.matvec(x)
    serial_op = repro.Operator(repro.heisenberg_chain(12), serial)
    np.testing.assert_allclose(
        y.to_serial(serial), serial_op.matvec(x.to_serial(serial)), atol=1e-12
    )
    return tele, dop.last_report


def _track_names(chrome):
    """(pid, tid) -> (process_name, thread_name) from metadata events."""
    meta = [e for e in chrome["traceEvents"] if e["ph"] == "M"]
    processes = {
        e["pid"]: e["args"]["name"] for e in meta if e["name"] == "process_name"
    }
    return {
        (e["pid"], e["tid"]): (processes[e["pid"]], e["args"]["name"])
        for e in meta
        if e["name"] == "thread_name"
    }


class TestTraceIntegrity:
    def test_every_span_closes_and_trace_is_valid_json(self, traced_matvec):
        tele, _ = traced_matvec
        chrome = json.loads(tele.trace.to_json())
        assert chrome["traceEvents"]
        assert {e["ph"] for e in chrome["traceEvents"]} >= {"X", "M"}

    def test_tracks_are_monotone_and_non_overlapping(self, traced_matvec):
        tele, _ = traced_matvec
        ends: dict = {}
        checked = 0
        for event in tele.trace.events:
            if event["ph"] != "X":
                continue
            key = (event["pid"], event["tid"])
            prev_end = ends.get(key, float("-inf"))
            assert event["ts"] + 1e-6 >= prev_end, (
                f"span {event['name']!r} on track {key} starts at "
                f"{event['ts']} before previous span ends at {prev_end}"
            )
            ends[key] = max(prev_end, event["ts"] + event["dur"])
            checked += 1
        assert checked > 50  # a real pipeline, not a trivial trace

    def test_producer_stalls_match_ledger(self, traced_matvec):
        tele, report = traced_matvec
        chrome = tele.trace.to_chrome()
        names = _track_names(chrome)
        stalled = np.zeros(3)
        for event in chrome["traceEvents"]:
            if event["ph"] != "X" or event["name"] != "stall":
                continue
            process, thread = names[(event["pid"], event["tid"])]
            if not thread.startswith("producer"):
                continue  # the closer task also waits on flags
            locale = int(process.removeprefix("locale"))
            stalled[locale] += event["dur"] / US
        expected = report.ledger.per_locale("stall")
        assert stalled.sum() > 0.0  # tiny buffers force real stalls
        np.testing.assert_allclose(stalled, expected, rtol=1e-9, atol=1e-15)
        assert report.extras["stall_time"] == pytest.approx(stalled.sum())

    def test_byte_counters_match_report(self, traced_matvec):
        _, report = traced_matvec
        assert report.metrics is not None
        assert report.metrics.counter_total("matvec.bytes") == pytest.approx(
            report.bytes_sent
        )
        assert report.metrics.counter_total(
            "matvec.messages"
        ) == pytest.approx(report.messages)

    def test_producer_and_consumer_work_overlaps(self, traced_matvec):
        """The point of the pipeline (Fig. 5): some generate span runs
        concurrently with some search+accum span."""
        tele, _ = traced_matvec
        generates = []
        searches = []
        for event in tele.trace.events:
            if event["ph"] != "X":
                continue
            if event["name"] == "generate":
                generates.append((event["ts"], event["ts"] + event["dur"]))
            elif event["name"] == "search+accum":
                searches.append((event["ts"], event["ts"] + event["dur"]))
        assert generates and searches
        assert any(
            g0 < s1 and s0 < g1
            for g0, g1 in generates
            for s0, s1 in searches
        )

    def test_metrics_snapshot_in_summary(self, traced_matvec):
        _, report = traced_matvec
        text = report.summary()
        assert "metrics:" in text
        assert "matvec.bytes" in text


@pytest.mark.parametrize("solver", ["lanczos"])
def test_iterations_counter_matches_the_result(solver):
    """The trace's ``residual`` counter track on the solver track has one
    sample per entry of the result's ``progress`` (with ``k = 1``, one per
    iteration), the same values in the same order."""
    basis = repro.SpinBasis(10, hamming_weight=5)
    op = repro.Operator(repro.heisenberg_chain(10), basis)
    tele = Telemetry.enabled(metrics=False)
    with telemetry.use(tele):
        x = np.random.default_rng(0).standard_normal(basis.dim)
        result = repro.lanczos(op.matvec, x, k=1)
    samples = [
        event["args"]["residual"]
        for event in tele.trace.to_chrome()["traceEvents"]
        if event["ph"] == "C" and event["name"] == "residual"
    ]
    assert len(samples) == result.n_iterations
    assert samples == [entry["residual"] for entry in result.progress]


class TestCommandLine:
    def test_trace_and_metrics_flags(self, tmp_path, capsys):
        from repro.config import main

        input_path = (
            Path(__file__).parent.parent
            / "examples"
            / "inputs"
            / "heisenberg_14_distributed.json"
        )
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        main(
            [
                str(input_path),
                "--trace",
                str(trace_path),
                "--metrics",
                str(metrics_path),
                "--seed",
                "1",
            ]
        )
        result = json.loads(capsys.readouterr().out)
        assert result["converged"]

        chrome = json.loads(trace_path.read_text())
        assert chrome["traceEvents"]
        span_names = {
            e["name"] for e in chrome["traceEvents"] if e["ph"] == "X"
        }
        assert {"generate", "search+accum"} <= span_names

        snapshot = MetricsSnapshot.from_json(
            json.loads(metrics_path.read_text())
        )
        assert snapshot.counter_total("matvec.bytes") > 0
        assert snapshot.counter_total("plan.misses") > 0

    def test_plain_run_without_telemetry_flags(self, tmp_path, capsys):
        from repro.config import main

        input_path = (
            Path(__file__).parent.parent
            / "examples"
            / "inputs"
            / "heisenberg_14_distributed.json"
        )
        main([str(input_path)])
        result = json.loads(capsys.readouterr().out)
        assert result["converged"]
        # No telemetry bundle leaked into the ambient context.
        assert telemetry.current() is telemetry.NULL_TELEMETRY


def test_catalogue_lists_exactly_the_emitted_families():
    """``docs/OBSERVABILITY.md`` "Metric catalogue" names every family some
    ``counter(`` / ``gauge(`` call in ``src/`` emits, and
    no other, each in a row whose last ("read by") cell names a reader."""
    import re

    root = Path(__file__).parents[1]
    call = re.compile(r'\.(?:counter|gauge)\(\s*f?"([^"]+)"')
    emitted = {
        literal
        for path in (root / "src").rglob("*.py")
        for literal in call.findall(path.read_text())
    }
    # a family name built at run time would hide from this pin
    assert not [name for name in emitted if "{" in name], emitted

    doc = (root / "docs" / "OBSERVABILITY.md").read_text()
    section = doc[doc.index("## Metric catalogue"):]
    section = section[: section.index("\n## ", 1)]
    rows = [line.split("|") for line in section.splitlines()
            if line.startswith("| `")]
    listed = {
        name for row in rows for name in re.findall(r"`([a-z_.]+)`", row[1])
    }
    assert sorted(listed) == sorted(emitted)
    unread = [row[1].strip() for row in rows
              if len(row) != 6 or not row[4].strip()]
    assert not unread, f"catalogue rows without a 'read by' cell: {unread}"
