"""Tests for the telemetry-driven autotuner (``repro.autotune``).

Covers the workload fingerprint, the versioned JSON cache, the two-stage
search (determinism on the sim clock, cache hits with zero search
footprint), the operator wiring (``tune=`` modes, explicit-kwarg
precedence, the tuned plan budget), and the recommendation layer that
rediscovers the paper's Sec. 6.3 static-split inefficiency.
"""

import json

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.autotune import (
    CACHE_VERSION,
    Autotuner,
    TuneCache,
    default_knobs,
    recommend_from_trace,
    recommend_split,
    render_recommendations,
    seed_candidates_from_dir,
    workload_fingerprint,
)
from repro.basis import SpinBasis
from repro.distributed import (
    DistributedOperator,
    DistributedVector,
    enumerate_states,
)
from repro.errors import ConfigError
from repro.operators.compile import compile_expression
from repro.perfmodel import paper_workload
from repro.runtime import Cluster, laptop_machine, snellius_machine


def build(n=12, w=6, n_locales=3, cores=4, backend="sim"):
    """A small distributed workload: (compiled, dbasis, expr)."""
    template = SpinBasis(n, hamming_weight=w)
    cluster = Cluster(
        n_locales, laptop_machine(cores=cores), backend=backend
    )
    dbasis, _ = enumerate_states(cluster, template, use_weight_shortcut=True)
    expr = repro.heisenberg_chain(n)
    return compile_expression(expr, n), dbasis, expr


class TestFingerprint:
    def test_deterministic_across_rebuilds(self):
        compiled_a, dbasis_a, _ = build()
        compiled_b, dbasis_b, _ = build()
        assert workload_fingerprint(
            compiled_a, dbasis_a
        ) == workload_fingerprint(compiled_b, dbasis_b)

    def test_sensitive_to_workload_and_cluster(self):
        compiled, dbasis, _ = build()
        base = workload_fingerprint(compiled, dbasis)
        variants = [
            workload_fingerprint(compiled, dbasis, method="batched"),
            workload_fingerprint(*build(w=5)[:2]),
            workload_fingerprint(*build(n_locales=2)[:2]),
            workload_fingerprint(*build(cores=8)[:2]),
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_sensitive_to_hamiltonian(self):
        _, dbasis, _ = build()
        chain = compile_expression(repro.heisenberg_chain(12), 12)
        xxz = compile_expression(repro.xxz_chain(12, jz=0.5), 12)
        assert workload_fingerprint(
            chain, dbasis
        ) != workload_fingerprint(xxz, dbasis)


class TestTuneCache:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = TuneCache(path)
        cache.put("abc123", {"knobs": {"batch_size": 64}})
        cache.save()
        reloaded = TuneCache(path)
        assert "abc123" in reloaded
        assert reloaded.get("abc123") == {"knobs": {"batch_size": 64}}

    def test_version_mismatch_discarded(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({
            "version": CACHE_VERSION + 1,
            "entries": {"abc": {"knobs": {}}},
        }))
        assert len(TuneCache(path)) == 0

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("not json {")
        with pytest.raises(ConfigError):
            TuneCache(path)

    def test_missing_file_is_empty(self, tmp_path):
        assert len(TuneCache(tmp_path / "nope.json")) == 0


class TestAutotunerSim:
    def test_search_is_deterministic(self, tmp_path):
        compiled, dbasis, _ = build()
        results = []
        for name in ("a.json", "b.json"):
            tuner = Autotuner(cache=str(tmp_path / name))
            results.append(tuner.tune(compiled, dbasis, force=True))
        assert results[0].knobs == results[1].knobs
        assert results[0].tuned_seconds == results[1].tuned_seconds
        assert results[0].fingerprint == results[1].fingerprint

    def test_tuned_never_worse_than_default(self, tmp_path):
        compiled, dbasis, _ = build()
        result = Autotuner(cache=str(tmp_path / "c.json")).tune(
            compiled, dbasis
        )
        assert result.clock == "sim"
        assert result.tuned_seconds <= result.default_seconds
        assert result.n_measured >= 2
        assert result.knobs["plan_cache_bytes"] > 0

    def test_cache_hit_skips_search(self, tmp_path):
        compiled, dbasis, _ = build()
        tuner = Autotuner(cache=str(tmp_path / "c.json"))
        cold = tuner.tune(compiled, dbasis)
        warm = tuner.tune(compiled, dbasis)
        assert not cold.from_cache
        assert warm.from_cache
        assert warm.knobs == cold.knobs
        # a second tuner over the same file sees the persisted entry
        other = Autotuner(cache=str(tmp_path / "c.json"))
        assert other.tune(compiled, dbasis).from_cache

    def test_search_is_telemetry_quarantined(self, tmp_path):
        """A cold search must leave only its marker in the ambient trace
        (no matvec spans from candidate replays)."""
        compiled, dbasis, _ = build()
        tele = telemetry.Telemetry.enabled()
        with telemetry.use(tele):
            Autotuner(cache=str(tmp_path / "c.json")).tune(compiled, dbasis)
        names = {
            ev.get("name") for ev in tele.trace.to_chrome()["traceEvents"]
        }
        assert "autotune.search" in names
        assert "produce" not in names and "consume" not in names

    def test_seed_dir_candidates_compete(self, tmp_path):
        compiled, dbasis, _ = build()
        seed_dir = tmp_path / "results"
        seed_dir.mkdir()
        (seed_dir / "sweep.json").write_text(json.dumps({
            "data": {"rows": [
                {"knobs": {"batch_size": 48, "consumer_fraction": 0.5,
                           "work_stealing": False}},
            ]},
        }))
        assert seed_candidates_from_dir(seed_dir) == [
            {"batch_size": 48, "consumer_fraction": 0.5,
             "work_stealing": False}
        ]
        seeded = Autotuner(
            cache=str(tmp_path / "a.json"), seed_dir=seed_dir
        ).tune(compiled, dbasis)
        plain = Autotuner(cache=str(tmp_path / "b.json")).tune(
            compiled, dbasis
        )
        assert seeded.n_measured == plain.n_measured + 1
        assert seeded.tuned_seconds <= plain.tuned_seconds


class TestOperatorWiring:
    def test_invalid_mode_rejected(self):
        _, dbasis, expr = build()
        with pytest.raises(ConfigError):
            DistributedOperator(expr, dbasis, tune="sometimes")

    def test_auto_applies_tuned_knobs(self, tmp_path):
        compiled, dbasis, expr = build()
        cache = str(tmp_path / "cache.json")
        result = Autotuner(cache=cache).tune(compiled, dbasis)
        dop = DistributedOperator(
            expr, dbasis, tune="auto", tune_cache=cache
        )
        assert dop.tuned is not None and dop.tuned.from_cache
        for key in ("batch_size", "consumer_fraction", "work_stealing"):
            assert dop.method_options[key] == result.knobs[key]
        assert dop.plan.capacity_bytes == result.knobs["plan_cache_bytes"]

    def test_entry_still_carrying_block_width_is_a_pure_hit(self, tmp_path):
        """Caches written before the advisory ``block_width`` was dropped
        keep working: same fingerprint, no search, same applied knobs."""
        compiled, dbasis, expr = build()
        path = tmp_path / "cache.json"
        fresh = Autotuner(cache=str(path)).tune(compiled, dbasis)
        data = json.loads(path.read_text())
        for entry in data["entries"].values():
            assert "block_width" not in entry["knobs"]
            entry["knobs"]["block_width"] = 4
        path.write_text(json.dumps(data))
        tele = telemetry.Telemetry.enabled()
        with telemetry.use(tele):
            dop = DistributedOperator(
                expr, dbasis, tune="auto", tune_cache=str(path)
            )
        snap = tele.metrics.snapshot()
        assert snap.counter_total("autotune.cache_hits") == 1
        assert snap.counter_total("autotune.searches") == 0
        assert dop.tuned.from_cache
        assert "block_width" not in dop.method_options
        for key in ("batch_size", "consumer_fraction", "work_stealing"):
            assert dop.method_options[key] == fresh.knobs[key]
        assert dop.plan.capacity_bytes == fresh.knobs["plan_cache_bytes"]

    def test_explicit_kwargs_beat_tuned_knobs(self, tmp_path):
        _, dbasis, expr = build()
        cache = str(tmp_path / "cache.json")
        dop = DistributedOperator(
            expr, dbasis, tune="auto", tune_cache=cache, batch_size=99
        )
        assert dop.method_options["batch_size"] == 99

    def test_tuned_matvec_matches_serial(self, tmp_path):
        _, dbasis, expr = build()
        serial = SpinBasis(12, hamming_weight=6)
        y_ref = repro.Operator(expr, serial).matvec(
            DistributedVector.full_random(dbasis, seed=0).to_serial(serial)
        )
        dop = DistributedOperator(
            expr, dbasis, tune="auto",
            tune_cache=str(tmp_path / "cache.json"),
        )
        y = dop.matvec(DistributedVector.full_random(dbasis, seed=0))
        np.testing.assert_allclose(y.to_serial(serial), y_ref, atol=1e-12)

    def test_warm_auto_has_no_search_footprint(self, tmp_path):
        _, dbasis, expr = build()
        cache = str(tmp_path / "cache.json")
        DistributedOperator(expr, dbasis, tune="auto", tune_cache=cache)
        tele = telemetry.Telemetry.enabled()
        with telemetry.use(tele):
            DistributedOperator(expr, dbasis, tune="auto", tune_cache=cache)
        names = [
            ev.get("name") for ev in tele.trace.to_chrome()["traceEvents"]
        ]
        assert "autotune.cache_hit" in names
        assert "autotune.search" not in names
        snapshot = tele.metrics.snapshot().to_json()
        counters = {c["name"]: c for c in snapshot["counters"]}
        assert "autotune.searches" not in counters
        assert "autotune.measured_runs" not in counters

    def test_force_researches(self, tmp_path):
        _, dbasis, expr = build()
        cache = str(tmp_path / "cache.json")
        DistributedOperator(expr, dbasis, tune="auto", tune_cache=cache)
        dop = DistributedOperator(
            expr, dbasis, tune="force", tune_cache=cache
        )
        assert not dop.tuned.from_cache


class TestAutotunerThreads:
    def test_wall_clock_tune_with_calibration(self, tmp_path):
        compiled, dbasis, _ = build(backend="threads")
        result = Autotuner(
            cache=str(tmp_path / "cache.json"), samples=2
        ).tune(compiled, dbasis)
        assert result.clock == "wall"
        assert result.tuned_seconds <= result.default_seconds
        # the model-vs-measured sanity check ran and produced a finite,
        # positive makespan ratio
        assert result.calibration is not None
        ratio = result.calibration["makespan_ratio"]
        assert np.isfinite(ratio) and ratio > 0.0
        # the cache entry round-trips the calibration block
        entry = TuneCache(str(tmp_path / "cache.json")).get(
            result.fingerprint
        )
        assert entry["calibration"]["makespan_ratio"] == ratio


class TestRecommendSplit:
    def test_flags_paper_default_as_stall_dominated(self):
        """Sec. 6.3: on the 42-spin workload at 64 nodes the 104/24 split
        leaves one pool idling; the tuner must flag it and propose a
        strictly better configuration (Sec. 7's work stealing)."""
        report = recommend_split(snellius_machine(), paper_workload(42), 64)
        assert report["stall_dominated"]
        assert report["default"]["stall_share"] > 0.05
        proposal = report["proposal"]
        assert proposal is not None
        assert proposal["pipeline_seconds"] < (
            report["default"]["pipeline_seconds"]
        )
        assert proposal["improvement"] > 0.0
        assert proposal["work_stealing"]

    def test_no_proposal_when_default_is_optimal(self):
        """With a single consumer grid point equal to the default and
        stealing disabled by construction the proposal may be None —
        here just assert the report is self-consistent."""
        report = recommend_split(
            snellius_machine(), paper_workload(42), 64,
            consumer_grid=(),
        )
        # only work stealing competes; it wins on this workload
        assert report["proposal"]["work_stealing"]


class TestRecommendFromTrace:
    def _traced_matvec(self, **options):
        _, dbasis, expr = build()
        tele = telemetry.Telemetry.enabled()
        with telemetry.use(tele):
            dop = DistributedOperator(expr, dbasis, plan=False, **options)
            dop.matvec(DistributedVector.full_random(dbasis, seed=0))
        return tele.trace.to_chrome()

    def test_report_shape(self):
        report = recommend_from_trace(self._traced_matvec(batch_size=32))
        assert report["clock"] == "sim"
        assert report["pools"]["producer_tracks"] > 0
        assert report["pools"]["consumer_tracks"] > 0
        assert report["phases"]
        assert report["recommendations"]
        for rec in report["recommendations"]:
            assert rec["severity"] in ("none", "medium", "high")
        text = render_recommendations(report)
        assert "recommendations:" in text

    def test_cli_subcommand(self, tmp_path, capsys):
        from repro.telemetry.analysis import main

        trace_path = tmp_path / "trace.json"
        trace_path.write_text(json.dumps(self._traced_matvec(batch_size=32)))
        assert main(["tune", str(trace_path)]) == 0
        assert "recommendations:" in capsys.readouterr().out
        out_path = tmp_path / "report.json"
        assert main([
            "tune", str(trace_path), "--json", "--out", str(out_path)
        ]) == 0
        assert json.loads(out_path.read_text())["recommendations"]


class TestWorkStealingCalibration:
    """Satellite: the ``work_stealing=True`` branch of the model's
    ``pipeline_time`` against traced producer-consumer runs."""

    def test_model_vs_traced_pc_run(self, tmp_path):
        from repro.distributed.matvec_pc import matvec_producer_consumer
        from repro.telemetry.analysis import calibrate_traces, main

        compiled, dbasis, _ = build(backend="threads")
        sim_compiled, sim_dbasis, _ = build(backend="sim")
        paths = {}
        for name, basis, comp in (
            ("sim", sim_dbasis, sim_compiled),
            ("wall", dbasis, compiled),
        ):
            x = DistributedVector.full_random(basis, seed=0)
            tele = telemetry.Telemetry.enabled(metrics=False)
            with telemetry.use(tele):
                matvec_producer_consumer(
                    comp, basis, x, None, plan=None,
                    batch_size=64, work_stealing=True,
                )
            paths[name] = tmp_path / f"{name}.json"
            tele.trace.save(paths[name])
        report = calibrate_traces(paths["sim"], paths["wall"])
        ratio = report["makespan_ratio"]
        assert np.isfinite(ratio) and ratio > 0.0
        assert report["phases"]
        assert main(
            ["calibrate", str(paths["sim"]), str(paths["wall"])]
        ) == 0

    def test_stealing_pipeline_time_strictly_below_static(self):
        from repro.perfmodel import MatvecScalingModel

        model = MatvecScalingModel(snellius_machine(), paper_workload(42))
        static = model.pipeline_time(64)
        stealing = model.pipeline_time(64, work_stealing=True)
        assert stealing < static
