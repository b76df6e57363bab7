"""Tests for cost ledgers and bulk-synchronous phase timing."""

import numpy as np
import pytest

from repro import telemetry
from repro.runtime import BSPTimer, CostLedger, SimReport, laptop_machine
from repro.telemetry import MetricsRegistry, MetricsSnapshot


class TestCostLedger:
    def test_accumulates(self):
        ledger = CostLedger(2)
        ledger.add("gen", 0, 1.0)
        ledger.add("gen", 0, 2.0)
        ledger.add("gen", 1, 5.0)
        assert ledger.total("gen") == pytest.approx(8.0)
        assert ledger.max_over_locales("gen") == pytest.approx(5.0)

    def test_unknown_phase_max_is_zero(self):
        assert CostLedger(2).max_over_locales("nothing") == 0.0

    def test_per_locale_is_copy(self):
        ledger = CostLedger(2)
        ledger.add("x", 0, 1.0)
        arr = ledger.per_locale("x")
        arr[0] = 99.0
        assert ledger.total("x") == pytest.approx(1.0)

    def test_table_renders(self):
        ledger = CostLedger(2)
        ledger.add("generate", 0, 1.0)
        table = ledger.table()
        assert "generate" in table

    def test_per_locale_accounting_across_phases(self):
        ledger = CostLedger(3)
        ledger.add("generate", 0, 1.0)
        ledger.add("generate", 2, 4.0)
        ledger.add("generate", 2, 0.5)
        ledger.add("stall", 1, 0.25)
        assert ledger.phases == ["generate", "stall"]
        np.testing.assert_allclose(
            ledger.per_locale("generate"), [1.0, 0.0, 4.5]
        )
        np.testing.assert_allclose(ledger.per_locale("stall"), [0.0, 0.25, 0.0])
        assert ledger.total("generate") == pytest.approx(5.5)
        assert ledger.max_over_locales("generate") == pytest.approx(4.5)


class TestSimReport:
    def test_mean_message_bytes(self):
        report = SimReport(messages=4, bytes_sent=4096)
        assert report.mean_message_bytes == 1024

    def test_mean_message_bytes_no_messages(self):
        assert SimReport().mean_message_bytes == 0.0

    def test_merge_phase(self):
        report = SimReport()
        report.merge_phase("a", 1.0)
        report.merge_phase("a", 2.0)
        assert report.phase_elapsed["a"] == pytest.approx(3.0)

    def test_summary_renders(self):
        report = SimReport(elapsed=1.5, messages=3, bytes_sent=300)
        report.merge_phase("phase-x", 1.5)
        text = report.summary()
        assert "phase-x" in text
        assert "1.5" in text

    def test_extras_round_trip(self):
        extras = {"stall_time": 0.125, "load_imbalance": 1.4, "n_diag": 85.0}
        report = SimReport(extras=dict(extras))
        report.extras["producers"] = 4.0
        assert report.extras == {**extras, "producers": 4.0}
        # extras never leak into the phase breakdown
        assert report.phase_elapsed == {}

    def test_summary_renders_metrics_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("matvec.bytes", src=0, dst=1).inc(512)
        registry.gauge("sample.gauge").set(1.25)
        registry.histogram("sample.seconds").observe(0.5)
        report = SimReport(elapsed=1.0, metrics=registry.snapshot())
        text = report.summary()
        assert "metrics:" in text
        assert "matvec.bytes{dst=1,src=0}" in text
        assert "sample.gauge" in text
        assert "sample.seconds" in text

    def test_summary_without_metrics_has_no_metrics_block(self):
        assert "metrics:" not in SimReport(elapsed=1.0).summary()

    def test_metrics_snapshot_survives_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("convert.bytes", src=1, dst=0).inc(4096)
        report = SimReport(metrics=registry.snapshot())
        restored = MetricsSnapshot.from_json(report.metrics.to_json())
        assert restored == report.metrics
        assert restored.counter_total("convert.bytes") == pytest.approx(4096)


class TestBSPTimer:
    def test_compute_only_phase(self):
        machine = laptop_machine(cores=4)
        timer = BSPTimer(machine, n_locales=2)
        timer.add_compute(0, 1.0)
        timer.add_compute(1, 3.0)
        elapsed = timer.end_phase("work")
        assert elapsed == pytest.approx(3.0)  # max over locales
        assert timer.report.elapsed == pytest.approx(3.0)

    def test_phases_accumulate_sequentially(self):
        machine = laptop_machine(cores=4)
        timer = BSPTimer(machine, n_locales=1)
        timer.add_compute(0, 1.0)
        timer.end_phase("a")
        timer.add_compute(0, 2.0)
        timer.end_phase("b")
        assert timer.report.elapsed == pytest.approx(3.0)
        assert timer.report.phase_elapsed == {
            "a": pytest.approx(1.0),
            "b": pytest.approx(2.0),
        }

    def test_message_charges_both_endpoints(self):
        machine = laptop_machine(cores=4)
        timer = BSPTimer(machine, n_locales=3)
        timer.add_message(0, 1, 1 << 20)
        elapsed = timer.end_phase("comm")
        expected = machine.network.transfer_time(1 << 20)
        assert elapsed == pytest.approx(expected)
        assert timer.report.messages == 1
        assert timer.report.bytes_sent == 1 << 20

    def test_local_message_is_memcpy(self):
        machine = laptop_machine(cores=4)
        timer = BSPTimer(machine, n_locales=2)
        timer.add_message(0, 0, 1 << 20)
        elapsed = timer.end_phase("comm")
        assert elapsed == pytest.approx(machine.memcpy_time(1 << 20))

    def test_in_and_out_times_do_not_add(self):
        # A locale that sends and receives simultaneously is limited by the
        # max of the two directions, not the sum.
        machine = laptop_machine(cores=4)
        timer = BSPTimer(machine, n_locales=2)
        timer.add_message(0, 1, 1 << 20)
        timer.add_message(1, 0, 1 << 20)
        one_way = machine.network.transfer_time(1 << 20)
        assert timer.end_phase("comm") == pytest.approx(one_way)

    def test_phase_state_resets(self):
        machine = laptop_machine(cores=4)
        timer = BSPTimer(machine, n_locales=1)
        timer.add_compute(0, 5.0)
        timer.end_phase("a")
        assert timer.end_phase("b") == 0.0

    def test_feeds_telemetry_when_installed(self):
        machine = laptop_machine(cores=4)
        tele = telemetry.Telemetry.enabled()
        with telemetry.use(tele):
            timer = BSPTimer(machine, n_locales=2, name="convert")
            timer.add_message(0, 1, 1024)
            timer.add_message(1, 0, 2048)
            timer.add_compute(0, 0.5)
            elapsed = timer.end_phase("scatter")
        assert timer.report.metrics is not None
        # One trace span per busy locale, and the global timeline advanced
        # by the phase's elapsed time.
        assert tele.trace.offset == pytest.approx(elapsed)
        spans = [e for e in tele.trace.events if e["ph"] == "X"]
        assert spans and all(e["name"] == "scatter" for e in spans)
        # The spans carry each locale's outgoing traffic: the report's count.
        comm = [entry for e in spans for entry in e["args"]["comm"]]
        assert sorted(comm) == [[0, 1, 1024, 1], [1, 0, 2048, 1]]
        assert timer.report.bytes_sent == 3072 and timer.report.messages == 2

    def test_without_telemetry_report_has_no_snapshot(self):
        machine = laptop_machine(cores=4)
        timer = BSPTimer(machine, n_locales=1)
        timer.add_compute(0, 1.0)
        timer.end_phase("work")
        assert timer.report.metrics is None
