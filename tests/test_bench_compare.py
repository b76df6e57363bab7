"""Tests for the benchmark baseline store and regression gate
(``repro.bench``): flattening of result artifacts, online statistics
merging, gate classification, noise-aware verdicts, and the directory
comparison the CI job runs."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    Stat,
    compare_dirs,
    flatten_result,
    format_markdown,
    format_table,
    load_baseline,
    oversubscribed,
    record,
)
from repro.bench.compare import classify, compare_metrics
from repro.bench.__main__ import main as bench_main


class TestFlatten:
    def test_nested_dicts_and_lists(self):
        flat = flatten_result(
            {
                "simulated_seconds": {"pc": 0.5, "naive": 2.0},
                "series": [1.0, 2.0],
                "smoke": True,
                "note": "text is skipped",
            }
        )
        assert flat == {
            "simulated_seconds.pc": 0.5,
            "simulated_seconds.naive": 2.0,
            "series.0": 1.0,
            "series.1": 2.0,
        }

    def test_booleans_are_not_metrics(self):
        assert flatten_result({"ok": True, "n": 3}) == {"n": 3.0}


class TestStat:
    def test_merged_matches_batch_statistics(self):
        values = [1.0, 2.0, 4.0, 8.0]
        stat = Stat(mean=values[0])
        for value in values[1:]:
            stat = stat.merged(value)
        assert stat.n == 4
        assert stat.mean == pytest.approx(sum(values) / 4)
        mean = sum(values) / 4
        variance = sum((v - mean) ** 2 for v in values) / 4
        assert stat.stddev == pytest.approx(variance**0.5)


class TestClassification:
    @pytest.mark.parametrize(
        "key, hard, direction",
        [
            ("pc.simulated_seconds", True, "lower"),
            ("overlap_efficiency.pc", True, "higher"),
            ("hit_rate", True, "higher"),
            ("pc.stall_fraction", True, "lower"),
            ("imbalance_index", True, "lower"),
            ("naive.bytes", True, "exact"),
            ("messages", True, "exact"),
            ("plan_hits", True, "exact"),
            ("dim", True, "exact"),
            ("speedup", False, "higher"),
            ("cold_seconds", False, "lower"),
            ("warm_seconds", False, "lower"),
            ("group_order", False, "exact"),
            # peak memory must stay soft even though the keys end in
            # "bytes" (the hard volume rule would otherwise claim them)
            ("pc.peak_array_bytes", False, "lower"),
            ("pc.peak_tracemalloc_bytes", False, "lower"),
        ],
    )
    def test_gate_classes(self, key, hard, direction):
        gate = classify(key)
        assert gate.hard is hard
        assert gate.direction == direction

    def test_memory_regression_warns_not_fails(self):
        baseline = {"pc.peak_tracemalloc_bytes": Stat(mean=1e6, stddev=0.0, n=3)}
        (row,) = compare_metrics(
            "x", baseline, {"pc.peak_tracemalloc_bytes": 2e6}
        )
        assert row.verdict == "warn"
        assert not row.fails


class TestVerdicts:
    def test_within_noise_is_ok(self):
        baseline = {"pc.simulated_seconds": Stat(mean=1.0, stddev=0.1, n=5)}
        (row,) = compare_metrics("x", baseline, {"pc.simulated_seconds": 1.15})
        assert row.verdict == "ok"

    def test_hard_slowdown_is_regression(self):
        baseline = {"pc.simulated_seconds": Stat(mean=1.0, stddev=0.01, n=5)}
        (row,) = compare_metrics("x", baseline, {"pc.simulated_seconds": 1.5})
        assert row.verdict == "regression"
        assert row.fails

    def test_hard_speedup_is_improvement(self):
        baseline = {"pc.simulated_seconds": Stat(mean=1.0, stddev=0.01, n=5)}
        (row,) = compare_metrics("x", baseline, {"pc.simulated_seconds": 0.5})
        assert row.verdict == "improved"
        assert not row.fails

    def test_overlap_drop_is_regression(self):
        baseline = {"overlap_efficiency": Stat(mean=0.8)}
        (row,) = compare_metrics("x", baseline, {"overlap_efficiency": 0.4})
        assert row.verdict == "regression"

    def test_byte_count_drift_is_regression_either_way(self):
        baseline = {"bytes": Stat(mean=1000.0)}
        (up,) = compare_metrics("x", baseline, {"bytes": 1001.0})
        (down,) = compare_metrics("x", baseline, {"bytes": 999.0})
        assert up.verdict == "regression"
        assert down.verdict == "regression"

    def test_wall_clock_slowdown_only_warns(self):
        baseline = {"cold_seconds": Stat(mean=1.0, stddev=0.05, n=5)}
        (row,) = compare_metrics("x", baseline, {"cold_seconds": 3.0})
        assert row.verdict == "warn"
        assert not row.fails

    def test_two_sigma_band_respects_recorded_noise(self):
        noisy = {"pc.simulated_seconds": Stat(mean=1.0, stddev=0.5, n=10)}
        (row,) = compare_metrics("x", noisy, {"pc.simulated_seconds": 1.9})
        assert row.verdict == "ok"  # within 2 sigma
        (row,) = compare_metrics(
            "x", noisy, {"pc.simulated_seconds": 2.1}, sigmas=2.0
        )
        assert row.verdict == "regression"

    def test_new_and_missing_metrics(self):
        baseline = {"old": Stat(mean=1.0)}
        rows = compare_metrics("x", baseline, {"fresh": 2.0})
        verdicts = {row.key: row.verdict for row in rows}
        assert verdicts == {"old": "missing", "fresh": "new"}


def _write_result(directory, name, data, env=None):
    payload = {"name": name, "data": data}
    if env is not None:
        payload["env"] = env
    (directory / f"{name}.json").write_text(json.dumps(payload))


class TestDirectories:
    def test_record_then_compare_roundtrip(self, tmp_path):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        results.mkdir()
        _write_result(results, "pipe", {"simulated_seconds": {"pc": 0.5}})
        assert record(results, baselines) == ["pipe"]
        rows, ok = compare_dirs(results, baselines)
        assert ok
        assert all(row.verdict == "ok" for row in rows)

    def test_update_merges_statistics(self, tmp_path):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        results.mkdir()
        _write_result(results, "pipe", {"cold_seconds": 1.0})
        record(results, baselines)
        _write_result(results, "pipe", {"cold_seconds": 2.0})
        record(results, baselines, update=True)
        stats = load_baseline(baselines / "pipe.json")
        assert stats["cold_seconds"].n == 2
        assert stats["cold_seconds"].mean == pytest.approx(1.5)
        assert stats["cold_seconds"].stddev > 0

    def test_record_refuses_more_workers_than_cpus(self, tmp_path, capsys):
        """A "speedup" measured with 8 threads on 1 CPU is not a reference:
        the file is refused with a message and its baseline left alone."""
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        results.mkdir()
        honest = {"worker_count": 2, "cpu_count": 2}
        _write_result(results, "par", {"workers2": {"speedup": 1.2}}, honest)
        simulated = {"worker_count": None, "cpu_count": 1}
        _write_result(results, "sim", {"bytes": 7}, simulated)
        assert record(results, baselines) == ["par", "sim"]
        before = (baselines / "par.json").read_text()

        starved = {"worker_count": 8, "cpu_count": 1}
        _write_result(results, "par", {"workers8": {"speedup": 0.04}}, starved)
        _write_result(results, "fresh", {"speedup": 0.1}, starved)
        assert oversubscribed(results) == {
            "fresh": "env.worker_count=8 exceeds env.cpu_count=1",
            "par": "env.worker_count=8 exceeds env.cpu_count=1",
        }
        assert record(results, baselines, update=True) == ["sim"]
        assert (baselines / "par.json").read_text() == before
        assert not (baselines / "fresh.json").exists()

        assert bench_main(["record", str(results), str(baselines)]) == 1
        out = capsys.readouterr().out
        assert "REFUSED par: env.worker_count=8 exceeds env.cpu_count=1" in out
        assert (baselines / "par.json").read_text() == before

    def test_regression_fails_directory_compare(self, tmp_path):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        results.mkdir()
        _write_result(results, "pipe", {"simulated_seconds": {"pc": 0.5}})
        record(results, baselines)
        _write_result(results, "pipe", {"simulated_seconds": {"pc": 0.9}})
        rows, ok = compare_dirs(results, baselines)
        assert not ok
        table = format_table(rows)
        assert "REGRESSION" in table
        markdown = format_markdown(rows)
        assert "**REGRESSION**" in markdown

    def test_unbaselined_artifact_does_not_fail(self, tmp_path):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        results.mkdir()
        baselines.mkdir()
        _write_result(results, "orphan", {"speedup": 3.0})
        rows, ok = compare_dirs(results, baselines)
        assert ok
        assert rows[0].verdict == "new"

    def test_stale_baseline_is_skipped(self, tmp_path):
        """Baselines whose artifact was not regenerated don't fail the
        smoke run (CI only reruns a subset of the benchmarks)."""
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        results.mkdir()
        _write_result(results, "pipe", {"bytes": 100})
        record(results, baselines)
        (results / "pipe.json").unlink()
        rows, ok = compare_dirs(results, baselines)
        assert ok and rows == []

    def test_cli_compare_and_summary(self, tmp_path, capsys):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        results.mkdir()
        _write_result(results, "pipe", {"simulated_seconds": {"pc": 0.5}})
        assert bench_main(["record", str(results), str(baselines)]) == 0
        summary = tmp_path / "summary.md"
        assert (
            bench_main(
                [
                    "compare",
                    str(results),
                    str(baselines),
                    "--summary",
                    str(summary),
                ]
            )
            == 0
        )
        assert "regression gate passed" in capsys.readouterr().out
        assert "Benchmark regression gate" in summary.read_text()
        # now regress and expect a non-zero exit
        _write_result(results, "pipe", {"simulated_seconds": {"pc": 5.0}})
        assert (
            bench_main(["compare", str(results), str(baselines)]) == 1
        )

    def test_strict_promotes_warnings(self, tmp_path):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        results.mkdir()
        _write_result(results, "pipe", {"cold_seconds": 1.0})
        record(results, baselines)
        _write_result(results, "pipe", {"cold_seconds": 9.0})
        _, ok = compare_dirs(results, baselines)
        assert ok  # wall-clock drift only warns
        _, ok = compare_dirs(results, baselines, strict=True)
        assert not ok
