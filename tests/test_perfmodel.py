"""Tests for the paper-scale analytic performance models.

These pin the quantitative anchors from the paper's Sec. 6,
cross-validate the closed-form models against the event-driven
implementations at laptop scale, and check the split model's reading of
the Sec. 6.3 producer:consumer split.
"""

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.basis import SpinBasis, SymmetricBasis
from repro.distributed import (
    DistributedOperator,
    DistributedVector,
    enumerate_states,
)
from repro.operators.compile import compile_expression
from repro.perfmodel import (
    ChainWorkload,
    ConversionScalingModel,
    EnumerationScalingModel,
    MatvecScalingModel,
    SpinpackModel,
    paper_workload,
    rank_splits,
    recommend_split,
)
from repro.runtime import Cluster, laptop_machine, snellius_machine
from repro.symmetry import chain_symmetries


@pytest.fixture(scope="module")
def machine():
    return snellius_machine()


class TestWorkloads:
    def test_paper_dimensions(self):
        assert paper_workload(40).dimension == 861_725_794
        assert paper_workload(46).dimension == 44_748_176_653

    def test_non_table_size_computed(self):
        w = paper_workload(36)
        # consistency: dimension ~ C(36,18)/(4*36)
        from math import comb

        assert w.dimension == pytest.approx(comb(36, 18) / 144, rel=0.01)

    def test_total_elements(self):
        w = ChainWorkload(n_sites=40, dimension=100)
        assert w.total_elements == 100 * 20


class TestMatvecModelAnchors:
    """The paper's own numbers for the producer-consumer matvec."""

    def test_single_node_42_spins_is_about_500s(self, machine):
        model = MatvecScalingModel(machine, paper_workload(42))
        # Sec. 6.3: 424 s generate + 80 s search per core on one node.
        assert model.single_node_time() == pytest.approx(504, rel=0.05)

    def test_40_spins_on_4_nodes_at_least_40s(self, machine):
        # Sec. 6.1: "on 4 locales, a single matrix-vector product for a
        # 40-spin system will take at least 40 seconds".
        model = MatvecScalingModel(machine, paper_workload(40))
        assert model.pipeline_time(4) >= 40.0
        assert model.pipeline_time(4) < 80.0

    def test_42_spins_64_nodes_speedup_51x(self, machine):
        # Fig. 8a: "for 42 spins, the speedup we obtain when using 64 nodes
        # is around 51x".
        model = MatvecScalingModel(machine, paper_workload(42))
        assert model.speedup(64) == pytest.approx(51, rel=0.08)

    def test_work_stealing_improves_large_scale(self, machine):
        # Sec. 7: work stealing between producers and consumers is expected
        # to bring 64-node scaling closer to ideal.
        model = MatvecScalingModel(machine, paper_workload(42))
        plain = model.speedup(64)
        stealing = model.pipeline_time(1) / model.pipeline_time(
            64, work_stealing=True
        )
        assert stealing > plain
        assert stealing > 55

    def test_fig8b_44_spins_scaling(self, machine):
        # Fig. 8b: 47x from 4 to 256 nodes (we accept the right order).
        model = MatvecScalingModel(machine, paper_workload(44))
        speedup = model.pipeline_time(4) / model.pipeline_time(256)
        assert 40 < speedup < 60

    def test_fig8b_46_spins_scaling(self, machine):
        # Fig. 8b: 12x from 16 to 256 nodes.
        model = MatvecScalingModel(machine, paper_workload(46))
        speedup = model.pipeline_time(16) / model.pipeline_time(256)
        assert 10 < speedup < 16

    def test_speedup_monotone_in_nodes(self, machine):
        model = MatvecScalingModel(machine, paper_workload(42))
        speeds = [model.speedup(n) for n in [1, 2, 4, 8, 16, 32, 64]]
        assert all(b > a for a, b in zip(speeds, speeds[1:]))


class TestSpinpackModelAnchors:
    def test_2x_on_one_node(self, machine):
        # Fig. 9: "On one node, lattice-symmetries is 2x faster".
        ls = MatvecScalingModel(machine, paper_workload(42))
        sp = SpinpackModel(machine, paper_workload(42))
        assert sp.time(1) / ls.pipeline_time(1) == pytest.approx(2.0, rel=0.05)

    @pytest.mark.parametrize("n_sites", [40, 42])
    def test_7_8x_on_32_nodes(self, machine, n_sites):
        # Fig. 9: "On 32 nodes, lattice-symmetries outperforms SPINPACK by
        # 7-8x".  Accept a band around it.
        ls = MatvecScalingModel(machine, paper_workload(n_sites))
        sp = SpinpackModel(machine, paper_workload(n_sites))
        ratio = sp.time(32) / ls.pipeline_time(32)
        assert 6.0 < ratio < 11.0

    def test_gap_grows_with_node_count(self, machine):
        # "this factor increases as we increase the number of nodes"
        ls = MatvecScalingModel(machine, paper_workload(42))
        sp = SpinpackModel(machine, paper_workload(42))
        ratios = [sp.time(n) / ls.pipeline_time(n) for n in [4, 8, 16, 32]]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_spinpack_speedup_saturates(self, machine):
        sp = SpinpackModel(machine, paper_workload(42))
        assert sp.speedup(32) < 10  # far from ideal 32


class TestEnumerationModelAnchors:
    def test_put_sizes_match_paper(self, machine):
        # Sec. 6.2: ~2 KB puts for 40 spins at 32 nodes, ~8 KB for 42.
        e40 = EnumerationScalingModel(machine, paper_workload(40))
        e42 = EnumerationScalingModel(machine, paper_workload(42))
        assert e40.put_bytes(32) == pytest.approx(2048, rel=0.15)
        assert e42.put_bytes(32) == pytest.approx(8192, rel=0.15)

    def test_kept_per_chunk_matches_paper(self, machine):
        # Sec. 6.2: "each chunk contains around 8400" for 40 spins / 32 nodes.
        e40 = EnumerationScalingModel(machine, paper_workload(40))
        assert e40.kept_per_chunk(32) == pytest.approx(8400, rel=0.05)

    def test_40_spins_saturates_sooner_than_42(self, machine):
        # Fig. 7: the 40-spin curve saturates at 32 nodes; 42 keeps scaling.
        e40 = EnumerationScalingModel(machine, paper_workload(40))
        e42 = EnumerationScalingModel(machine, paper_workload(42))
        eff40 = e40.speedup(32) / 32
        eff42 = e42.speedup(32) / 32
        assert eff42 > eff40 + 0.15

    def test_nearly_perfect_up_to_16(self, machine):
        e42 = EnumerationScalingModel(machine, paper_workload(42))
        assert e42.speedup(16) > 0.85 * 16


class TestConversionModelAnchors:
    def test_under_a_second_beyond_4_locales(self, machine):
        # Sec. 6.1: "for more than 4 locales, the operations complete in
        # well under a second".
        for n_sites in (40, 42):
            model = ConversionScalingModel(machine, paper_workload(n_sites))
            for n in (8, 16, 32):
                assert model.time(n) < 1.0

    def test_time_decreases_with_locales(self, machine):
        model = ConversionScalingModel(machine, paper_workload(42))
        times = [model.time(n) for n in [2, 4, 8, 16, 32]]
        assert all(b < a for a, b in zip(times, times[1:]))


class TestCrossValidationAgainstSimulation:
    """The closed-form model and the event-driven simulation must agree on
    the machine they both describe (small scale, loose tolerance)."""

    def test_pc_matvec_model_vs_des(self):
        # Use a translation-only sector (dim ~800) with small batches so
        # the work spreads over all simulated producers; with one chunk per
        # locale the DES is quantized and the closed form cannot match.
        n, w = 16, 8
        group = chain_symmetries(n, momentum=0, parity=None, inversion=None)
        machine = laptop_machine(cores=8)
        cluster = Cluster(4, machine)
        template = SymmetricBasis(group, hamming_weight=w, build=False)
        dbasis, _ = enumerate_states(
            cluster, template, use_weight_shortcut=True
        )
        serial = SymmetricBasis(group, hamming_weight=w)
        batch = 16
        dop = DistributedOperator(
            repro.heisenberg_chain(n),
            dbasis,
            batch_size=batch,
            consumer_fraction=0.25,
        )
        x = DistributedVector.full_random(dbasis, seed=0)
        dop.matvec(x)
        des_time = dop.last_report.elapsed

        # measured average off-diagonals per row for this workload
        from repro.operators import compile_expression

        compiled = compile_expression(repro.heisenberg_chain(n), n)
        sources, _, _ = compiled.apply_off_diag(serial.states)
        per_row = sources.size / serial.dim
        model = MatvecScalingModel(
            machine,
            ChainWorkload(n_sites=n, dimension=serial.dim),
            batch_size=batch,
            consumer_fraction=0.25,
        )
        # rescale the model's n/2 off-diagonal estimate to the measured rate
        predicted = model.pipeline_time(4) * (per_row / (n / 2))
        assert predicted == pytest.approx(des_time, rel=0.6)

    def test_single_node_model_vs_shared_memory_implementation(self):
        n, w = 12, 6
        group = chain_symmetries(n, momentum=0, parity=0, inversion=0)
        machine = laptop_machine(cores=8)
        cluster = Cluster(1, machine)
        template = SymmetricBasis(group, hamming_weight=w, build=False)
        dbasis, _ = enumerate_states(cluster, template)
        serial = SymmetricBasis(group, hamming_weight=w)
        dop = DistributedOperator(repro.heisenberg_chain(n), dbasis)
        x = DistributedVector.full_random(dbasis, seed=0)
        dop.matvec(x)
        des_time = dop.last_report.elapsed

        from repro.operators import compile_expression

        compiled = compile_expression(repro.heisenberg_chain(n), n)
        sources, _, _ = compiled.apply_off_diag(serial.states)
        per_row = sources.size / serial.dim
        model = MatvecScalingModel(
            machine, ChainWorkload(n_sites=n, dimension=serial.dim)
        )
        predicted = model.single_node_time() * (per_row / (n / 2))
        assert predicted == pytest.approx(des_time, rel=0.3)


def build(n=12, w=6, n_locales=3, cores=4, backend="sim"):
    """A small distributed workload: (compiled, dbasis, expr)."""
    template = SpinBasis(n, hamming_weight=w)
    cluster = Cluster(
        n_locales, laptop_machine(cores=cores), backend=backend
    )
    dbasis, _ = enumerate_states(cluster, template, use_weight_shortcut=True)
    expr = repro.heisenberg_chain(n)
    return compile_expression(expr, n), dbasis, expr


class TestRecommendSplit:
    def test_flags_paper_default_as_stall_dominated(self):
        """Sec. 6.3: on the 42-spin workload at 64 nodes the 104/24 split
        leaves one pool idling; the model must flag it and propose a
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
                    comp, basis, x, plan=None,
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
