"""Tests for the autotuner (``repro.autotune``).

Covers the workload fingerprint, the versioned JSON cache and what it
rejects, the two-stage search (determinism on the sim clock, cache hits
with zero search footprint, only the knobs the backend reads), how tuned
knobs reach an operator (ordinary keyword arguments; ``--tune`` modes),
and the model side that rediscovers the paper's Sec. 6.3 static-split
inefficiency.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import telemetry
from repro.autotune import (
    CACHE_VERSION,
    Autotuner,
    TuneCache,
    default_knobs,
    rank_splits,
    recommend_split,
    tuner as tuner_module,
    workload_fingerprint,
)
from repro.autotune.search import batch_candidates
from repro.config import main as repro_main
from repro.basis import SpinBasis
from repro.distributed import (
    DistributedOperator,
    DistributedVector,
    enumerate_states,
)
from repro.errors import ConfigError, ReproError
from repro.operators.compile import compile_expression
from repro.perfmodel import MatvecScalingModel, paper_workload
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


#: ``python -m repro INPUT --tune auto --tune-cache F``, the boundary the
#: cache file crosses.
INPUT = str(
    Path(__file__).parents[1]
    / "examples/inputs/heisenberg_14_distributed.json"
)


def run_cli(cache_path, mode="auto") -> dict:
    """The result of the tuned example run (in process: what ``python -m
    repro`` prints; a :class:`ReproError` is its exit 2)."""
    out = io.StringIO()
    with redirect_stdout(out):
        repro_main([INPUT, "--tune", mode, "--tune-cache", str(cache_path)])
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def recorded_cache(tmp_path_factory) -> dict:
    """The cache document a cold tuned run of :data:`INPUT` writes."""
    path = tmp_path_factory.mktemp("recorded") / "cache.json"
    assert not run_cli(path)["tuned"]["from_cache"]
    return json.loads(path.read_text())


class TestMalformedCacheFile:
    """The cache file comes from outside the program: a malformed entry is
    one ``ConfigError`` naming the file, the fingerprint and the key."""

    @pytest.mark.parametrize(
        "entry, named",
        [
            ({"knobs": 5}, "knobs must be an object"),
            ({"knobs": {}, "tuned_seconds": "x"}, "tuned_seconds"),
            (7, "must be an object"),
            ({"knobs": {"batch_size": 0}}, "cluster.matvec.batch_size"),
        ],
        ids=["knobs-type", "seconds-type", "entry-type", "knob-range"],
    )
    def test_entry_rejected_where_the_file_is_read(
        self, entry, named, recorded_cache, tmp_path
    ):
        (fingerprint,) = recorded_cache["entries"]
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(
            {**recorded_cache, "entries": {fingerprint: entry}}
        ))
        with pytest.raises(ConfigError) as caught:
            run_cli(path)
        message = str(caught.value)
        assert "\n" not in message
        for part in (str(path), fingerprint, named):
            assert part in message

    def test_command_line_exits_2_with_one_line(
        self, recorded_cache, tmp_path
    ):
        (fingerprint,) = recorded_cache["entries"]
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({
            **recorded_cache,
            "entries": {fingerprint: {"knobs": {"batch_size": 0}}},
        }))
        done = subprocess.run(
            [sys.executable, "-m", "repro", INPUT, "--tune", "auto",
             "--tune-cache", str(path)],
            capture_output=True, text=True, timeout=120,
            env={
                **os.environ,
                "PYTHONPATH": str(Path(repro.__file__).parents[1]),
            },
        )
        assert done.returncode == 2 and not done.stdout
        assert done.stderr.startswith("repro: error: tune cache")
        assert done.stderr.count("\n") == 1 and str(path) in done.stderr


def _paths(node, prefix=()):
    """The path (tuple of keys) of every value below ``node``."""
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_one_mutation_of_the_cache_runs_or_raises_repro_error(
    data, recorded_cache, tmp_path_factory
):
    """Delete a key, swap a type or truncate the file: the tuned run
    finishes or stops with one line — any other exception is a
    traceback and fails here."""
    document = json.loads(json.dumps(recorded_cache))
    how = data.draw(st.sampled_from(["delete", "retype", "truncate"]))
    if how == "truncate":
        text = json.dumps(document)
        text = text[: data.draw(st.integers(0, len(text) - 1))]
    else:
        *parents, key = data.draw(
            st.sampled_from(sorted(_paths(document), key=repr))
        )
        node = document
        for step in parents:
            node = node[step]
        if how == "delete":
            del node[key]
        else:
            node[key] = data.draw(
                st.sampled_from([None, True, 0, -1, 1.5, "x", [], {}, [1]])
            )
        text = json.dumps(document)
    path = tmp_path_factory.mktemp("fuzz") / "cache.json"
    path.write_text(text)
    try:
        result = run_cli(path)
    except ReproError as exc:
        assert "\n" not in str(exc) and str(path) in str(exc)
    else:
        assert result["converged"]


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
        assert set(result.knobs) == set(default_knobs())

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


class TestOperatorWiring:
    """Tuned knobs are values of knobs the operator already takes."""

    @pytest.mark.parametrize(
        "method, backend, match",
        [
            ("foo", "sim", "unknown matvec method 'foo'"),
            ("foo", "threads", "unknown matvec method 'foo'"),
            ("naive", "threads", "'sim' backend only"),
            ("batched", "threads", "'sim' backend only"),
        ],
    )
    def test_method_refused_before_anything_else(
        self, tmp_path, method, backend, match
    ):
        """The operator's rules, before the fingerprint and the cache: no
        search counted, no span traced, no cache file written."""
        compiled, dbasis, _ = build(backend=backend)
        cache = tmp_path / "c.json"
        tele = telemetry.Telemetry.enabled()
        with telemetry.use(tele), pytest.raises(ConfigError, match=match):
            Autotuner(cache=str(cache)).tune(compiled, dbasis, method=method)
        assert tele.metrics.snapshot().counters == {}
        assert tele.trace.to_chrome()["traceEvents"] == []
        assert not cache.exists()

    def test_invalid_mode_rejected(self):
        spec = json.loads(Path(INPUT).read_text())
        spec["cluster"]["tune"] = "sometimes"
        with pytest.raises(ConfigError, match="cluster.tune"):
            repro.run_simulation(repro.load_simulation(spec))

    def test_auto_applies_tuned_knobs(self, tmp_path):
        compiled, dbasis, expr = build()
        result = Autotuner(cache=str(tmp_path / "cache.json")).tune(
            compiled, dbasis
        )
        dop = DistributedOperator(expr, dbasis, **result.knobs)
        for key in ("batch_size", "consumer_fraction", "work_stealing"):
            assert dop.method_options[key] == result.knobs[key]

    def test_entry_still_carrying_block_width_is_a_pure_hit(self, tmp_path):
        """Caches written before a knob was dropped (the advisory
        ``block_width``, the ``plan_cache_bytes`` budget) keep working:
        same fingerprint, no search, the same knobs and only those."""
        compiled, dbasis, expr = build()
        path = tmp_path / "cache.json"
        fresh = Autotuner(cache=str(path)).tune(compiled, dbasis)
        data = json.loads(path.read_text())
        for entry in data["entries"].values():
            assert "block_width" not in entry["knobs"]
            entry["knobs"].update(block_width=4, plan_cache_bytes=1 << 20)
            entry["calibration"] = None
        path.write_text(json.dumps(data))
        tele = telemetry.Telemetry.enabled()
        with telemetry.use(tele):
            hit = Autotuner(cache=str(path)).tune(compiled, dbasis)
        snap = tele.metrics.snapshot()
        assert snap.counter_total("autotune.cache_hits") == 1
        assert snap.counter_total("autotune.searches") == 0
        assert hit.from_cache
        assert hit.knobs == fresh.knobs
        DistributedOperator(expr, dbasis, **hit.knobs)

    def test_explicit_kwargs_beat_tuned_knobs(self, tmp_path):
        """``--tune`` fills in only the knobs the file leaves open."""
        spec = json.loads(Path(INPUT).read_text())
        spec["cluster"].update(
            tune="auto", tune_cache=str(tmp_path / "cache.json"),
            matvec={"batch_size": 99},
        )
        operator, output = repro.config._build_distributed(
            repro.load_simulation(spec)
        )
        assert operator.method_options["batch_size"] == 99
        for key in ("consumer_fraction", "work_stealing"):
            assert (
                operator.method_options[key] == output["tuned"]["knobs"][key]
            )

    def test_tuned_matvec_matches_serial(self, tmp_path):
        compiled, dbasis, expr = build()
        serial = SpinBasis(12, hamming_weight=6)
        y_ref = repro.Operator(expr, serial).matvec(
            DistributedVector.full_random(dbasis, seed=0).to_serial(serial)
        )
        knobs = Autotuner(cache=str(tmp_path / "cache.json")).tune(
            compiled, dbasis
        ).knobs
        dop = DistributedOperator(expr, dbasis, **knobs)
        y = dop.matvec(DistributedVector.full_random(dbasis, seed=0))
        np.testing.assert_allclose(y.to_serial(serial), y_ref, atol=1e-12)

    def test_warm_auto_has_no_search_footprint(self, tmp_path):
        cache = tmp_path / "cache.json"
        run_cli(cache)
        tele = telemetry.Telemetry.enabled()
        with telemetry.use(tele):
            assert run_cli(cache)["tuned"]["from_cache"]
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
        cache = tmp_path / "cache.json"
        run_cli(cache)
        assert run_cli(cache, "auto")["tuned"]["from_cache"]
        assert not run_cli(cache, "force")["tuned"]["from_cache"]


class TestAutotunerThreads:
    def test_wall_clock_search_varies_only_knobs_threads_reads(
        self, tmp_path, monkeypatch
    ):
        """The ``threads`` pipeline runs one producer and one consumer
        thread per locale whatever ``consumer_fraction`` says: no two
        measured candidates may share a schedule, so noise cannot store a
        non-default value of a knob nothing reads."""
        compiled, dbasis, _ = build(backend="threads")
        measured = []
        measure = tuner_module.measure_knobs

        def recording(compiled, basis, x, knobs, **kwargs):
            measured.append(dict(knobs))
            return measure(compiled, basis, x, knobs, **kwargs)

        monkeypatch.setattr(tuner_module, "measure_knobs", recording)
        result = Autotuner(
            cache=str(tmp_path / "cache.json"), samples=2
        ).tune(compiled, dbasis)
        assert result.clock == "wall"
        assert result.tuned_seconds <= result.default_seconds
        defaults = default_knobs()
        schedules = [(k["batch_size"], k["work_stealing"]) for k in measured]
        assert len(set(schedules)) == len(schedules)
        fractions = {
            k["consumer_fraction"] for k in measured + [result.knobs]
        }
        assert fractions == {defaults["consumer_fraction"]}
        batches = set(batch_candidates(dbasis)) - {defaults["batch_size"]}
        assert result.n_measured == len(measured) == 1 + len(batches) + 1


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
        # ... and beats every static split of the grid
        ranked = rank_splits(snellius_machine(), paper_workload(42), 64)
        assert proposal["pipeline_seconds"] < ranked[0][0]

    def test_no_proposal_when_default_is_optimal(self):
        """One locale runs in shared memory whatever the split: every
        candidate ties with the default, and only a strictly faster one
        is proposed."""
        report = recommend_split(snellius_machine(), paper_workload(42), 1)
        assert report["proposal"] is None

    @pytest.mark.parametrize(
        "machine, consumers",
        [
            # Sec. 6.3's grid of 128 cores, without the default 24
            (snellius_machine(), {8, 16, 32, 48, 64}),
            (laptop_machine(cores=8), {1, 3, 4}),  # 2 is the default's
            (laptop_machine(cores=4), {2}),
            (laptop_machine(cores=2), set()),  # every fraction rounds to 1:1
            (laptop_machine(cores=1), set()),
        ],
        ids=["snellius-128", "laptop-8", "laptop-4", "laptop-2", "laptop-1"],
    )
    def test_rank_splits(self, machine, consumers):
        """One grid, rounded to whole cores, each split once, fastest
        first, priced by the scaling model."""
        workload, cores = paper_workload(42), machine.cores_per_locale
        ranked = rank_splits(machine, workload, 64)
        assert {round(f * cores) for _, f in ranked} == consumers
        assert len(ranked) == len(consumers)
        assert ranked == sorted(ranked)
        for seconds, fraction in ranked:
            model = MatvecScalingModel(
                machine, workload, consumer_fraction=fraction
            )
            assert seconds == model.pipeline_time(64)


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
