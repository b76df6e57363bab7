"""OpenMetrics export (``repro.telemetry.export``).

The renderer's output must survive its own strict parser — the same
validator CI runs on real exports — and the parser must reject the
classic exposition-format mistakes (bad label escaping, missing ``# EOF``,
duplicate families, negative counters).  Also the satellite regression:
empty histograms must serialize as strict JSON (no bare ``Infinity``
tokens) end to end.
"""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.telemetry import MetricsRegistry, Telemetry
from repro.telemetry.export import (
    OpenMetricsError,
    parse_openmetrics,
    render_openmetrics,
    write_openmetrics,
)
from repro.telemetry.jobs import job
from repro.telemetry.metrics import MetricsSnapshot


def _registry() -> MetricsRegistry:
    reg = MetricsRegistry(fanout=False)
    reg.counter("matvec.bytes", src=0, dst=1).inc(4096)
    reg.counter("matvec.bytes", src=1, dst=0).inc(1024)
    reg.gauge("lanczos.residual").set(1.5e-7)
    reg.histogram("batch.size").observe(32)
    reg.histogram("batch.size").observe(64)
    return reg


class TestRender:
    def test_roundtrips_through_strict_parser(self):
        text = render_openmetrics(_registry().snapshot())
        families = parse_openmetrics(text)
        assert families["matvec_bytes"]["type"] == "counter"
        assert families["lanczos_residual"]["type"] == "gauge"
        assert families["batch_size"]["type"] == "summary"
        total = sum(
            value
            for name, _, value in families["matvec_bytes"]["samples"]
        )
        assert total == 4096 + 1024

    def test_counter_samples_use_total_suffix(self):
        text = render_openmetrics(_registry().snapshot())
        assert 'matvec_bytes_total{dst="1",src="0"} 4096' in text
        assert text.endswith("# EOF\n")

    def test_histogram_renders_count_sum_min_max(self):
        text = render_openmetrics(_registry().snapshot())
        assert "batch_size_count" in text
        assert "batch_size_sum 96" in text
        assert "batch_size_min 32" in text
        assert "batch_size_max 64" in text

    def test_empty_histogram_omits_min_max(self):
        reg = MetricsRegistry(fanout=False)
        reg.histogram("never.observed")
        text = render_openmetrics(reg.snapshot())
        assert "never_observed_count 0" in text
        assert "never_observed_min" not in text
        assert "inf" not in text.lower()
        parse_openmetrics(text)  # still strictly valid

    def test_label_escaping_roundtrips(self):
        reg = MetricsRegistry(fanout=False)
        reg.counter("events", path='a"b\\c\nd').inc()
        text = render_openmetrics(reg.snapshot())
        families = parse_openmetrics(text)
        ((_, labels, value),) = families["events"]["samples"]
        assert value == 1.0
        assert dict(labels)["path"] == 'a\\"b\\\\c\\nd'

    def test_job_series_merge_with_job_label(self):
        tele = Telemetry.enabled(trace=False, metrics=True)
        with telemetry.use(tele):
            with job("tenant-a/run-1"):
                tele.metrics.counter("matvec.bytes", src=0, dst=1).inc(512)
        text = render_openmetrics(tele.metrics.snapshot(), jobs=tele.jobs)
        families = parse_openmetrics(text)
        samples = families["matvec_bytes"]["samples"]
        jobful = [s for s in samples if "job" in dict(s[1])]
        jobless = [s for s in samples if "job" not in dict(s[1])]
        assert len(jobful) == len(jobless) == 1
        assert jobful[0][2] == jobless[0][2] == 512.0
        assert dict(jobful[0][1])["job"] == "tenant-a/run-1"


class TestParserRejects:
    def test_missing_eof(self):
        with pytest.raises(OpenMetricsError, match="EOF"):
            parse_openmetrics("# TYPE x counter\nx_total 1\n")

    def test_content_after_eof(self):
        with pytest.raises(OpenMetricsError):
            parse_openmetrics("# TYPE x counter\nx_total 1\n# EOF\nx 2\n")

    def test_missing_trailing_newline(self):
        with pytest.raises(OpenMetricsError):
            parse_openmetrics("# TYPE x counter\nx_total 1\n# EOF")

    def test_duplicate_family(self):
        with pytest.raises(OpenMetricsError, match="duplicate"):
            parse_openmetrics(
                "# TYPE x counter\n# TYPE x counter\nx_total 1\n# EOF\n"
            )

    def test_unknown_type(self):
        with pytest.raises(OpenMetricsError):
            parse_openmetrics("# TYPE x fancy\nx 1\n# EOF\n")

    def test_negative_counter(self):
        with pytest.raises(OpenMetricsError, match="negative"):
            parse_openmetrics("# TYPE x counter\nx_total -1\n# EOF\n")

    def test_sample_outside_family(self):
        with pytest.raises(OpenMetricsError):
            parse_openmetrics("# TYPE x counter\ny_total 1\n# EOF\n")

    def test_malformed_labels(self):
        with pytest.raises(OpenMetricsError):
            parse_openmetrics(
                '# TYPE x counter\nx_total{bad-key="1"} 1\n# EOF\n'
            )

    def test_non_numeric_value(self):
        with pytest.raises(OpenMetricsError):
            parse_openmetrics("# TYPE x counter\nx_total banana\n# EOF\n")


class TestWriteOpenmetrics:
    def test_write_openmetrics_accepts_registry_and_snapshot(self, tmp_path):
        reg = _registry()
        a = write_openmetrics(tmp_path / "a.om", reg)
        b = write_openmetrics(tmp_path / "b.om", reg.snapshot())
        assert a.read_text() == b.read_text()


class TestStrictSnapshotJson:
    """Satellite regression: snapshot JSON must never contain Infinity."""

    def _strict_loads(self, text: str):
        def reject(token):
            raise AssertionError(f"non-strict JSON token: {token}")

        return json.loads(text, parse_constant=reject)

    def test_empty_histogram_snapshot_is_strict_json(self):
        reg = MetricsRegistry(fanout=False)
        reg.histogram("never.observed")
        reg.counter("events").inc()
        data = self._strict_loads(json.dumps(reg.snapshot().to_json()))
        restored = MetricsSnapshot.from_json(data)
        hist = next(iter(restored.histograms.values()))
        assert hist["count"] == 0
        assert hist["min"] is None and hist["max"] is None

    def test_populated_histogram_roundtrips(self):
        reg = _registry()
        data = self._strict_loads(json.dumps(reg.snapshot().to_json()))
        restored = MetricsSnapshot.from_json(data)
        hist = next(iter(restored.histograms.values()))
        assert hist["min"] == 32 and hist["max"] == 64

    def test_empty_histogram_table_renders(self):
        reg = MetricsRegistry(fanout=False)
        reg.histogram("never.observed")
        table = reg.snapshot().table()
        assert "never.observed" in table
        assert "inf" not in table
