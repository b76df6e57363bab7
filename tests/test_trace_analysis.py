"""Tests for the trace-analysis layer (``repro.telemetry.analysis``).

The math is checked on hand-built synthetic traces where every verdict is
known in closed form — a perfectly overlapped vs a fully serialized
two-locale pipeline, a skewed busy-time distribution, a critical path
through a known DAG — and then on real traced matvec runs: the
producer-consumer pipeline must report strictly better overlap than the
naive per-element variant on the same input, the communication matrix
must match the report's byte and message counts (matvecs and the
bulk-synchronous enumeration and conversions alike), and the global trace
offset must stay monotone across warm plan-cached replays (the
regression the ``advance`` guard protects against).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import telemetry
from repro.basis import SymmetricBasis
from repro.distributed import (
    BlockArray,
    DistributedOperator,
    DistributedVector,
    block_to_hashed,
    enumerate_states,
    hashed_to_block,
    locale_of,
)
from repro.runtime import Cluster, laptop_machine
from repro.symmetry import chain_symmetries
from repro.telemetry import Telemetry, TraceRecorder, analyze_trace
from repro.telemetry.analysis import load_spans, main as inspect_main, report_text


def _span(trace, locale, thread, name, start, duration, args=None):
    trace.complete((f"locale{locale}", thread), name, start, duration, args)


class TestOverlapEfficiency:
    def test_perfectly_overlapped_pipeline(self):
        """Compute and send unions coincide on both locales: overlap 1."""
        trace = TraceRecorder()
        for locale in range(2):
            _span(trace, locale, "worker0", "generate", 0.0, 4.0)
            _span(trace, locale, "net", "send", 0.0, 4.0)
        analysis = analyze_trace(trace)
        assert analysis.overlap_efficiency == pytest.approx(1.0)
        for acct in analysis.per_locale.values():
            assert acct["overlap_efficiency"] == pytest.approx(1.0)

    def test_fully_serialized_pipeline(self):
        """Send strictly after compute on both locales: overlap 0."""
        trace = TraceRecorder()
        for locale in range(2):
            _span(trace, locale, "worker0", "generate", 0.0, 4.0)
            _span(trace, locale, "net", "send", 4.0, 2.0)
        analysis = analyze_trace(trace)
        assert analysis.overlap_efficiency == pytest.approx(0.0)

    def test_partial_overlap_aggregates_over_locales(self):
        """Locale 0 hides 1 of 2 send seconds, locale 1 hides both:
        aggregate = (1 + 2) / (2 + 2)."""
        trace = TraceRecorder()
        _span(trace, 0, "worker0", "generate", 0.0, 4.0)
        _span(trace, 0, "net", "send", 3.0, 2.0)
        _span(trace, 1, "worker0", "generate", 0.0, 4.0)
        _span(trace, 1, "net", "send", 1.0, 2.0)
        analysis = analyze_trace(trace)
        assert analysis.per_locale[0]["overlap_efficiency"] == pytest.approx(0.5)
        assert analysis.per_locale[1]["overlap_efficiency"] == pytest.approx(1.0)
        assert analysis.overlap_efficiency == pytest.approx(0.75)

    def test_stall_and_idle_are_not_compute(self):
        trace = TraceRecorder()
        _span(trace, 0, "producer0", "generate", 0.0, 2.0)
        _span(trace, 0, "producer0", "stall", 2.0, 1.0)
        _span(trace, 0, "producer0", "wait:nic0", 3.0, 0.5)
        _span(trace, 0, "consumer0", "idle", 0.0, 3.0)
        analysis = analyze_trace(trace)
        acct = analysis.per_locale[0]
        assert acct["compute"] == pytest.approx(2.0)
        assert acct["stall"] == pytest.approx(1.5)
        assert acct["idle"] == pytest.approx(3.0)
        # stall / (busy + stall + idle)
        assert analysis.stall_fraction == pytest.approx(1.5 / 6.5)

    def test_non_locale_processes_are_excluded(self):
        """Solver / sim / queue tracks never pollute locale accounting."""
        trace = TraceRecorder()
        _span(trace, 0, "worker0", "generate", 0.0, 1.0)
        trace.complete(("solver", "lanczos"), "matvec", 0.0, 50.0)
        trace.complete(("sim", "closer"), "stall", 0.0, 50.0)
        analysis = analyze_trace(trace)
        assert analysis.n_locales == 1
        assert analysis.makespan == pytest.approx(1.0)
        assert analysis.stall_fraction == pytest.approx(0.0)


class TestImbalance:
    def test_skewed_distribution(self):
        """Busy times 1/2/9 over three locales: max/mean = 9/4."""
        trace = TraceRecorder()
        for locale, busy in enumerate((1.0, 2.0, 9.0)):
            _span(trace, locale, "worker0", "generate", 0.0, busy)
        analysis = analyze_trace(trace)
        assert analysis.imbalance_index == pytest.approx(9.0 / 4.0)

    def test_balanced_distribution_is_one(self):
        trace = TraceRecorder()
        for locale in range(4):
            _span(trace, locale, "worker0", "generate", 0.0, 3.0)
        analysis = analyze_trace(trace)
        assert analysis.imbalance_index == pytest.approx(1.0)


class TestCriticalPath:
    def test_known_dag(self):
        """Two chains through the timeline: [0,2)+[2,5) = 5 beats
        [0,1)+[1,2)+[4,6) = 4; utilization = 5/6."""
        trace = TraceRecorder()
        _span(trace, 0, "worker0", "a", 0.0, 2.0)
        _span(trace, 0, "worker0", "b", 2.0, 3.0)
        _span(trace, 1, "worker0", "c", 0.0, 1.0)
        _span(trace, 1, "worker0", "d", 1.0, 1.0)
        _span(trace, 1, "worker0", "e", 4.0, 2.0)
        analysis = analyze_trace(trace)
        assert analysis.critical_path_seconds == pytest.approx(5.0)
        assert [s.name for s in analysis.critical_path] == ["a", "b"]
        assert analysis.critical_path_utilization == pytest.approx(5.0 / 6.0)

    def test_chain_respects_time_order(self):
        """The chain may hop locales but never runs backwards in time."""
        trace = TraceRecorder()
        _span(trace, 0, "worker0", "a", 0.0, 2.0)
        _span(trace, 1, "worker0", "b", 2.5, 2.0)
        _span(trace, 0, "worker0", "c", 5.0, 2.0)
        analysis = analyze_trace(trace)
        assert [s.name for s in analysis.critical_path] == ["a", "b", "c"]
        assert analysis.critical_path_seconds == pytest.approx(6.0)

    def test_zero_duration_spans_do_not_cycle(self):
        trace = TraceRecorder()
        _span(trace, 0, "net", "send", 1.0, 0.0)
        _span(trace, 0, "worker0", "a", 0.0, 1.0)
        _span(trace, 0, "worker0", "b", 1.0, 1.0)
        analysis = analyze_trace(trace)
        assert analysis.critical_path_seconds == pytest.approx(2.0)


class TestCommunicationMatrix:
    def test_from_span_args(self):
        trace = TraceRecorder()
        _span(trace, 0, "net", "send", 0.0, 1.0,
              {"src": 0, "dst": 1, "bytes": 100, "msgs": 2})
        _span(trace, 0, "net", "send", 1.0, 1.0,
              {"src": 0, "dst": 1, "bytes": 50, "msgs": 1})
        _span(trace, 1, "net", "send", 0.0, 1.0,
              {"src": 1, "dst": 0, "bytes": 30, "msgs": 3})
        analysis = analyze_trace(trace)
        assert analysis.comm_matrix("bytes") == [[0.0, 150.0], [30.0, 0.0]]
        assert analysis.comm_matrix("msgs") == [[0.0, 3.0], [3.0, 0.0]]

    def test_from_bsp_comm_lists(self):
        """BSP phase spans carry args["comm"] = [[src, dst, bytes, msgs]]."""
        trace = TraceRecorder()
        _span(trace, 0, "convert", "phase", 0.0, 1.0,
              {"comm": [[0, 1, 64, 2], [0, 0, 8, 1]]})
        analysis = analyze_trace(trace)
        assert analysis.comm[(0, 1)] == [64.0, 2.0]
        assert analysis.comm[(0, 0)] == [8.0, 1.0]

@pytest.fixture(scope="module")
def small_distributed():
    group = chain_symmetries(12, momentum=0, parity=0, inversion=0)
    template = SymmetricBasis(group, hamming_weight=6, build=False)
    cluster = Cluster(3, laptop_machine(cores=4))
    dbasis, _ = enumerate_states(cluster, template, chunks_per_core=3)
    return dbasis


def _traced_matvec(dbasis, method, repeats=1):
    kwargs = {"batch_size": 32}
    if method == "pc":
        kwargs.update(
            buffer_capacity=16, producers_per_locale=4, consumers_per_locale=1
        )
    dop = DistributedOperator(
        repro.heisenberg_chain(12), dbasis, method=method, **kwargs
    )
    tele = Telemetry.enabled()
    with telemetry.use(tele):
        x = DistributedVector.full_random(dbasis, seed=0)
        for _ in range(repeats):
            dop.matvec(x)
    return tele, dop


#: the bulk-synchronous algorithms, whose phase spans carry ``comm`` lists
BSP_RUNS = ("enumerate_states", "block_to_hashed", "hashed_to_block")


def _traced_bsp(kind):
    """One traced run of a bulk-synchronous algorithm on three locales:
    ``(telemetry, its report)``."""
    cluster = Cluster(3, laptop_machine(cores=4))
    data = np.random.default_rng(0).permutation(500).astype(np.int64)
    masks = BlockArray.from_global(cluster, locale_of(data.astype(np.uint64), 3))
    array = BlockArray.from_global(cluster, data)
    parts, _ = block_to_hashed(array, masks)
    template = SymmetricBasis(
        chain_symmetries(12, momentum=0, parity=0, inversion=0),
        hamming_weight=6, build=False,
    )
    runs = {
        "enumerate_states": lambda: enumerate_states(cluster, template),
        "block_to_hashed": lambda: block_to_hashed(array, masks),
        "hashed_to_block": lambda: hashed_to_block(parts, masks),
    }
    tele = Telemetry.enabled()
    with telemetry.use(tele):
        _, report = runs[kind]()
    return tele, report


class TestRealTraces:
    def test_pc_overlap_strictly_above_naive(self, small_distributed):
        analyses = {}
        for method in ("pc", "naive"):
            tele, _ = _traced_matvec(small_distributed, method)
            analyses[method] = analyze_trace(
                tele.trace, metrics=tele.metrics
            )
        assert (
            analyses["pc"].overlap_efficiency
            > analyses["naive"].overlap_efficiency
        )
        # the naive variant is strictly serialized per locale
        assert analyses["naive"].overlap_efficiency == pytest.approx(0.0)

    @pytest.mark.parametrize("method", ["naive", "batched", "pc", *BSP_RUNS])
    def test_comm_matrix_matches_report_totals(self, small_distributed, method):
        """The trace alone carries every byte and message the report
        counts, for the matvec variants and the BSP algorithms alike."""
        if method in BSP_RUNS:
            tele, report = _traced_bsp(method)
        else:
            tele, dop = _traced_matvec(small_distributed, method)
            report = dop.last_report
        analysis = analyze_trace(tele.trace)
        assert report.messages > 0
        assert sum(e[0] for e in analysis.comm.values()) == report.bytes_sent
        assert sum(e[1] for e in analysis.comm.values()) == report.messages

    @pytest.mark.parametrize("method", ["naive", "batched", "pc"])
    def test_plan_counters_reach_the_report(self, small_distributed, method):
        tele, _ = _traced_matvec(small_distributed, method, repeats=2)
        analysis = analyze_trace(tele.trace, metrics=tele.metrics)
        assert analysis.counters.get("plan.misses", 0) > 0
        assert analysis.counters.get("plan.hits", 0) > 0  # warm replay
        assert any(
            key.startswith("kernel.state_info_strategy") for key in analysis.counters
        )


class TestOffsetMonotonicity:
    """Regression tests for the global-timeline guarantee: successive
    operations stack strictly after one another even when a warm plan
    cache makes the second one record very few events."""

    def test_advance_rejects_negative(self):
        trace = TraceRecorder()
        with pytest.raises(ValueError):
            trace.advance(-1e-9)

    @pytest.mark.parametrize("method", ["naive", "batched", "pc"])
    def test_warm_replay_stacks_after_cold_run(self, small_distributed, method):
        tele, dop = _traced_matvec(small_distributed, method, repeats=2)
        assert dop.plan is not None and dop.plan.n_entries > 0
        assert tele.metrics.snapshot().counter_total("plan.hits") > 0
        spans = load_spans(tele.trace)
        locale_spans = [s for s in spans if s.locale is not None]
        assert locale_spans
        # offset advanced past every recorded span
        assert tele.trace.offset >= max(s.end for s in locale_spans) - 1e-9
        assert tele.trace.offset > 0.0

    def test_empty_operation_still_advances(self, small_distributed):
        """An operation recording zero locale events must not rewind or
        freeze the clock for its successors."""
        tele = Telemetry.enabled()
        with telemetry.use(tele):
            before = tele.trace.offset
            tele.trace.advance(0.0)  # legal no-op
            assert tele.trace.offset == before


class TestInspectCLI:
    @pytest.fixture(scope="class")
    def trace_path(self, small_distributed, tmp_path_factory):
        tele, _ = _traced_matvec(small_distributed, "pc")
        path = tmp_path_factory.mktemp("inspect") / "trace.json"
        tele.trace.save(path)
        metrics_path = path.parent / "metrics.json"
        metrics_path.write_text(
            json.dumps(tele.metrics.snapshot().to_json())
        )
        return path, metrics_path

    def test_text_report(self, trace_path, capsys):
        path, metrics_path = trace_path
        assert inspect_main([str(path), "--metrics", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "overlap_efficiency" in out
        assert "imbalance_index" in out
        assert "communication:" in out
        assert "plan.misses" in out

    def test_json_report(self, trace_path, capsys):
        path, _ = trace_path
        assert inspect_main([str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_locales"] == 3
        assert 0.0 < report["overlap_efficiency"] <= 1.0
        assert len(report["communication"]["bytes"]) == 3


class TestGracefulFailures:
    """``repro-inspect`` on broken inputs: clear message, exit code 2."""

    CASES = {
        "empty": "",
        "truncated": '{"traceEvents": [',
        "not_a_trace": '{"hello": 1}',
        "not_json": "definitely not json",
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_bad_file_fails_cleanly(self, kind, tmp_path, capsys):
        path = tmp_path / f"{kind}.json"
        path.write_text(self.CASES[kind])
        assert inspect_main([str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-inspect: error:")
        assert str(path) in err

    @pytest.mark.parametrize("command", [[], "calibrate"])
    def test_all_commands_fail_cleanly(self, command, tmp_path, capsys):
        path = tmp_path / "trunc.json"
        path.write_text('{"traceEvents": [')
        if command == "calibrate":
            argv = [command, str(path), str(path)]
        else:
            argv = command + [str(path)]
        assert inspect_main(argv) == 2
        assert "repro-inspect: error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert inspect_main([str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_module_entry_fails_cleanly(self, tmp_path):
        """``python -m repro.telemetry.analysis`` (the form CI uses) runs
        as ``__main__`` beside the copy the package imported: the handler
        must catch the error whichever of the two raises it."""
        src = str(Path(repro.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "repro.telemetry.analysis",
             str(tmp_path / "missing.json")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 2
        assert done.stderr.startswith("repro-inspect: error: cannot read")
        assert "Traceback" not in done.stderr

    def test_empty_trace_events_is_still_valid(self, tmp_path, capsys):
        path = tmp_path / "empty_events.json"
        path.write_text('{"traceEvents": []}')
        assert inspect_main([str(path)]) == 0


class TestClockDomains:
    """Every report names its clock."""

    def _save(self, tmp_path, name, wall):
        trace = TraceRecorder()
        if wall:
            trace.mark_wall()
        _span(trace, 0, "worker0", "generate", 0.0, 2.0)
        _span(trace, 0, "net", "send", 1.0, 1.0)
        path = tmp_path / name
        trace.save(path)
        return str(path)

    def test_analysis_defaults_to_sim_clock(self, tmp_path):
        path = self._save(tmp_path, "sim.json", wall=False)
        analysis = analyze_trace(path)
        assert analysis.clock == "sim"
        assert analysis.to_json()["clock"] == "sim"
        assert "clock: sim" in report_text(analysis.to_json())

    def test_wall_clock_propagates_to_reports(self, tmp_path):
        path = self._save(tmp_path, "wall.json", wall=True)
        analysis = analyze_trace(path)
        assert analysis.clock == "wall"
        assert "clock: wall" in report_text(analysis.to_json())

    def test_traces_without_clock_key_read_as_sim(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(
            json.dumps(
                {
                    "traceEvents": [
                        {
                            "ph": "X",
                            "pid": "locale0",
                            "tid": "worker0",
                            "name": "generate",
                            "ts": 0.0,
                            "dur": 1e6,
                        }
                    ]
                }
            )
        )
        assert analyze_trace(str(path)).clock == "sim"


# -- the trace/metrics file boundary ------------------------------------------


def _inspect(argv):
    """``repro-inspect ARGV`` -> (exit code, stderr); stdout discarded."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = inspect_main([str(arg) for arg in argv])
    return code, err.getvalue()


def _assert_one_line_error(code, err, *mentions):
    assert code == 2, err
    assert err.startswith("repro-inspect: error:") and err.count("\n") == 1
    for text in mentions:
        assert text in err


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A recorded sim run on disk — enumeration (BSP spans carrying
    ``comm`` lists) then one pipeline matvec (``src``/``dst`` spans) —
    with its metrics snapshot and a wall-clock twin of the trace."""
    group = chain_symmetries(10, momentum=0, parity=0, inversion=0)
    template = SymmetricBasis(group, hamming_weight=5, build=False)
    tele = Telemetry.enabled()
    with telemetry.use(tele):
        dbasis, _ = enumerate_states(Cluster(2, laptop_machine(cores=2)), template)
        dop = DistributedOperator(
            repro.heisenberg_chain(10), dbasis, method="pc", batch_size=16
        )
        dop.matvec(DistributedVector.full_random(dbasis, seed=0))
    folder = tmp_path_factory.mktemp("boundary")
    docs = {
        "trace": tele.trace.to_chrome(),
        "metrics": tele.metrics.snapshot().to_json(),
    }
    docs["wall"] = {**docs["trace"], "clock": "wall"}
    for name, doc in docs.items():
        (folder / f"{name}.json").write_text(json.dumps(doc))
    return folder, docs


def _commands(folder, trace="trace.json", metrics="metrics.json"):
    """The two sub-commands (``calibrate`` in both of its orders) over the
    named trace and metrics files."""
    trace, metrics = folder / trace, folder / metrics
    good, wall = folder / "trace.json", folder / "wall.json"
    return [
        [trace, "--metrics", metrics],
        ["calibrate", trace, wall],
        ["calibrate", good, trace],
    ]


def _assert_every_command_rejects(recorded, name, fields, mention):
    """Overwrite ``fields`` of the first span (named ``name``, if given)
    of the recorded trace: every sub-command that reads the trace exits 2
    with one line naming the event and ``mention``."""
    folder, docs = recorded
    events = list(docs["trace"]["traceEvents"])
    index = next(
        i for i, e in enumerate(events)
        if e["ph"] == "X" and name in (None, e["name"])
    )
    events[index] = {**events[index], **fields}
    (folder / "bad_trace.json").write_text(
        json.dumps({**docs["trace"], "traceEvents": events})
    )
    for argv in _commands(folder, trace="bad_trace.json"):
        _assert_one_line_error(*_inspect(argv), f"trace event {index}", mention)


@pytest.mark.parametrize(
    "argv",
    [
        ["trace.json", "--metrics", "metrics.json"],
        ["calibrate", "trace.json", "wall.json"],
    ],
    ids=["bare", "calibrate"],
)
def test_text_names_every_json_key(recorded, argv, capsys):
    """``--json`` prints a JSON document, and the text form of the same
    report has a line for each of its top-level keys."""
    folder, _ = recorded
    argv = [str(folder / a) if a.endswith(".json") else a for a in argv]
    assert inspect_main(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, dict) and payload
    assert inspect_main(argv) == 0
    text = capsys.readouterr().out
    for key in payload:
        assert re.search(rf"^{re.escape(key)}:", text, re.M), key


class TestMalformedFields:
    """A file that parses as JSON but carries a wrong field: one line
    naming where, exit 2 — from every sub-command that reads it."""

    @pytest.mark.parametrize(
        "metrics, mention",
        [
            ({"counters": [{"name": "x"}]}, "counters[0]"),
            ([1, 2], "'counters'"),
            ({"gauges": [{"name": "g", "labels": {}, "value": "1"}]}, "'value'"),
        ],
        ids=["no-labels", "not-an-object", "value-type"],
    )
    def test_metrics_rows(self, recorded, metrics, mention):
        folder, _ = recorded
        (folder / "bad_metrics.json").write_text(json.dumps(metrics))
        bare, *_ = _commands(folder, metrics="bad_metrics.json")
        _assert_one_line_error(*_inspect(bare), mention)

    @pytest.mark.parametrize(
        "fields, mention",
        [
            ({"ts": "x"}, "'ts'"),
            ({"args": [1]}, "'args'"),
            ({"args": {"src": "a", "dst": 0, "bytes": "q"}}, "['a', 0, 'q', 1]"),
            ({"args": {"comm": [[0, 1, 8]]}}, "[0, 1, 8]"),
            ({"name": None}, "'name'"),
        ],
        ids=["ts", "args", "src-dst-bytes", "comm", "name"],
    )
    def test_span_fields(self, recorded, fields, mention):
        _assert_every_command_rejects(recorded, None, fields, mention)

    @pytest.mark.parametrize(
        "name, fields, mention",
        [
            (None, {"dur": -1e9}, "'dur'"),
            (None, {"ts": float("nan")}, "'ts'"),
            (None, {"dur": float("inf")}, "'dur'"),
            (None, {"dur": True}, "'dur'"),
            ("send", {"args": {"src": 0, "dst": 1, "bytes": -1e9, "msgs": 1}},
             "'bytes'"),
        ],
        ids=["dur-negative", "ts-nan", "dur-infinite", "dur-bool",
             "send-bytes-negative"],
    )
    def test_span_numbers(self, recorded, name, fields, mention):
        """A number of the right type but a wrong value (negative,
        not finite, a bool) is as malformed as a missing one."""
        _assert_every_command_rejects(recorded, name, fields, mention)

    def test_format_error_is_a_repro_error_and_a_value_error(self):
        from repro.errors import ReproError, TraceFormatError

        assert issubclass(TraceFormatError, (ReproError,))
        assert issubclass(TraceFormatError, ValueError)
        with pytest.raises(TraceFormatError, match=r"histograms\[0\]"):
            telemetry.MetricsSnapshot.from_json({"histograms": [3]})


def _paths(node, prefix=()):
    """Paths (tuples of keys / list indices) to everything below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _mutated_text(doc, path, how, cut):
    """``doc`` as JSON text after one mutation at ``path``."""
    doc = json.loads(json.dumps(doc))
    *parents, key = path
    node = doc
    for step in parents:
        node = node[step]
    if how == "delete":
        del node[key]
    elif how == "retype":
        value = node[key]
        node[key] = (
            str(value) if isinstance(value, (int, float))
            else {"was": value} if isinstance(value, list)
            else [value]
        )
    text = json.dumps(doc)
    return text[: int(cut * len(text))] if how == "truncate" else text


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_mutation_exits_0_or_2_never_a_traceback(recorded, data):
    folder, docs = recorded
    which = data.draw(st.sampled_from(["trace", "metrics"]))
    path = data.draw(st.sampled_from(sorted(_paths(docs[which]), key=repr)))
    how = data.draw(st.sampled_from(["delete", "retype", "truncate"]))
    cut = data.draw(st.floats(0.0, 1.0))
    (folder / "fuzzed.json").write_text(_mutated_text(docs[which], path, how, cut))
    for argv in _commands(folder, **{which: "fuzzed.json"}):
        code, err = _inspect(argv)  # raising here is the failure
        if code != 0:
            _assert_one_line_error(code, err)
