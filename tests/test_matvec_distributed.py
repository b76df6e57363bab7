"""Correctness tests for all distributed matrix-vector products.

Every implementation — naive (per-element remote tasks), batched
(getManyRows + per-chunk tasks), and producer-consumer (the paper's
pipeline, with and without work stealing) — must agree exactly with the
serial reference operator, across symmetry sectors, cluster shapes, and
batch/buffer parameters.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro
from repro.basis import SpinBasis, SymmetricBasis
from repro.distributed import (
    DistributedOperator,
    DistributedVector,
    enumerate_states,
)
from repro.distributed.matvec_pc import split_cores
from repro.errors import CompilationError, ConfigError
from repro.runtime import Cluster, laptop_machine
from repro.symmetry import chain_symmetries

METHODS = ["naive", "batched", "pc"]


def build(n, w, sector, n_locales, expr=None, cores=4):
    group = chain_symmetries(n, **sector) if sector else None
    if group is not None:
        serial = SymmetricBasis(group, hamming_weight=w)
        template = SymmetricBasis(group, hamming_weight=w, build=False)
    else:
        serial = SpinBasis(n, hamming_weight=w)
        template = SpinBasis(n, hamming_weight=w)
    cluster = Cluster(n_locales, laptop_machine(cores=cores))
    dbasis, _ = enumerate_states(cluster, template, chunks_per_core=3)
    expr = expr if expr is not None else repro.heisenberg_chain(n)
    serial_op = repro.Operator(expr, serial)
    return serial, serial_op, dbasis, expr


def check_method(serial, serial_op, dbasis, expr, method, rng, **options):
    x = rng.standard_normal(serial.dim).astype(serial.scalar_dtype)
    if serial.scalar_dtype == np.complex128:
        x = x + 1j * rng.standard_normal(serial.dim)
    y_ref = serial_op.matvec(x)
    dx = DistributedVector.from_serial(dbasis, serial, x)
    dop = DistributedOperator(expr, dbasis, method=method, **options)
    dy = dop.matvec(dx)
    np.testing.assert_allclose(dy.to_serial(serial), y_ref, atol=1e-12)
    return dop


class TestAllMethodsMatchSerial:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "sector",
        [
            dict(momentum=0, parity=0, inversion=0),
            dict(momentum=0, parity=1, inversion=1),
            dict(momentum=2, parity=None, inversion=None),
        ],
    )
    def test_symmetric_sectors(self, method, sector, rng):
        args = build(12, 6, sector, n_locales=3)
        check_method(*args, method, rng, batch_size=64)

    @pytest.mark.parametrize("method", METHODS)
    def test_u1_only(self, method, rng):
        args = build(10, 5, None, n_locales=3)
        check_method(*args, method, rng, batch_size=50)

    @pytest.mark.parametrize("method", METHODS)
    def test_full_basis_tfim(self, method, rng):
        expr = repro.transverse_field_ising(8, coupling=1.2, field=0.9)
        serial = SpinBasis(8)
        cluster = Cluster(3, laptop_machine(cores=4))
        dbasis, _ = enumerate_states(cluster, SpinBasis(8))
        serial_op = repro.Operator(expr, serial)
        check_method(serial, serial_op, dbasis, expr, method, rng, batch_size=64)

    @pytest.mark.parametrize("n_locales", [1, 2, 5])
    def test_cluster_sizes(self, n_locales, rng):
        args = build(12, 6, dict(momentum=0, parity=0, inversion=0), n_locales)
        check_method(*args, "pc", rng, batch_size=64)

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 4096])
    def test_batch_sizes(self, batch_size, rng):
        args = build(10, 5, dict(momentum=0, parity=0, inversion=None), 2)
        check_method(*args, "pc", rng, batch_size=batch_size)

    def test_random_couplings_xxz(self, rng):
        expr = repro.xxz_chain(10, jz=float(rng.uniform(-2, 2)), jxy=1.3)
        args = build(10, 5, dict(momentum=0, parity=0, inversion=None), 3, expr)
        for method in METHODS:
            check_method(*args, method, rng, batch_size=64)

    def test_long_range_hamiltonian(self, rng):
        # next-nearest-neighbour interactions exercise wider flip masks
        expr = repro.j1j2_chain(10, j1=1.0, j2=0.7)
        args = build(10, 5, dict(momentum=0, parity=None, inversion=None), 3, expr)
        check_method(*args, "pc", rng, batch_size=32)


class TestProducerConsumerOptions:
    @pytest.fixture
    def args(self):
        return build(12, 6, dict(momentum=0, parity=0, inversion=0), 3)

    def test_work_stealing(self, args, rng):
        check_method(*args, "pc", rng, batch_size=64, work_stealing=True)

    @pytest.mark.parametrize("buffer_capacity", [1, 16, 100000])
    def test_buffer_capacity(self, args, buffer_capacity, rng):
        check_method(
            *args, "pc", rng, batch_size=64, buffer_capacity=buffer_capacity
        )

    @pytest.mark.parametrize("consumer_fraction", [0.1, 0.5])
    def test_consumer_fraction(self, args, consumer_fraction, rng):
        check_method(
            *args, "pc", rng, batch_size=64, consumer_fraction=consumer_fraction
        )

    def test_explicit_worker_counts(self, args, rng):
        check_method(
            *args,
            "pc",
            rng,
            batch_size=64,
            producers_per_locale=2,
            consumers_per_locale=1,
        )

    def test_report_contains_pipeline_stats(self, args, rng):
        dop = check_method(*args, "pc", rng, batch_size=64)
        report = dop.last_report
        assert report.elapsed > 0
        assert report.messages > 0
        assert "stall_time" in report.extras
        assert report.extras["producers"] >= 1
        assert report.extras["consumers"] >= 1

    def test_single_locale_uses_shared_memory_mode(self, rng):
        args = build(10, 5, dict(momentum=0, parity=0, inversion=None), 1)
        dop = check_method(*args, "pc", rng, batch_size=64)
        # shared-memory mode reports generate/search phases, no pipeline
        assert "generate" in dop.last_report.phase_elapsed
        assert "pipeline" not in dop.last_report.phase_elapsed

    def test_repeated_matvec_accumulates_time(self, args, rng):
        serial, serial_op, dbasis, expr = args
        dop = DistributedOperator(expr, dbasis, batch_size=64)
        x = DistributedVector.full_random(dbasis, seed=0)
        dop.matvec(x)
        t1 = dop.total_sim_time
        dop.matvec(x)
        assert dop.total_sim_time > t1


class TestSplitCores:
    def test_paper_split(self):
        producers, consumers = split_cores(128, 24 / 128)
        assert (producers, consumers) == (104, 24)

    def test_always_at_least_one_each(self):
        assert split_cores(2, 1.0) == (1, 1)
        assert split_cores(2, 1e-9) == (1, 1)

    def test_single_core_shares(self):
        # cores=1 means one worker plays both roles, not a crash
        assert split_cores(1, 24 / 128) == (1, 1)
        assert split_cores(1, 1.0) == (1, 1)

    def test_invalid_inputs_rejected(self):
        from repro.errors import ConfigError

        for cores in (0, -4):
            with pytest.raises(ConfigError):
                split_cores(cores, 0.25)
        for fraction in (0.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                split_cores(8, fraction)

    @given(
        cores=st.integers(min_value=1, max_value=128),
        fraction=st.floats(
            min_value=1e-6, max_value=1.0, allow_nan=False
        ),
    )
    def test_property_both_pools_populated(self, cores, fraction):
        producers, consumers = split_cores(cores, fraction)
        assert producers >= 1
        assert consumers >= 1
        if cores == 1:
            # the single core is shared, not split
            assert (producers, consumers) == (1, 1)
        else:
            assert producers + consumers == cores

    def test_fraction_rounding(self):
        producers, consumers = split_cores(10, 0.25)
        assert producers + consumers == 10
        # python rounds half to even, so 2.5 consumers may become 2 or 3
        assert consumers in (2, 3)


class TestValidation:
    def test_unknown_method(self):
        args = build(8, 4, None, 2)
        _, _, dbasis, expr = args
        with pytest.raises(ConfigError):
            DistributedOperator(expr, dbasis, method="warp")

    @pytest.mark.parametrize(
        "method, option",
        [
            ("batched", dict(batchsize=64)),
            ("naive", dict(consumer_fraction=0.5)),
            ("batched", dict(buffer_capacity=64)),
            ("pc", dict(tune="auto")),
        ],
    )
    def test_option_the_method_does_not_take(self, method, option):
        # These used to construct and fail at the first matvec with a bare
        # TypeError.
        _, _, dbasis, expr = build(8, 4, None, 2)
        (key,) = option
        with pytest.raises(ConfigError, match=f"{method!r} takes no option {key!r}"):
            DistributedOperator(expr, dbasis, method=method, **option)

    def test_non_conserving_rejected(self):
        _, _, dbasis, _ = build(8, 4, None, 2)
        with pytest.raises(CompilationError):
            DistributedOperator(repro.transverse_field_ising(8), dbasis)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("batch_size", [-3, 0, 2.5])
    def test_batch_size_below_one_rejected(self, method, batch_size):
        # A negative step used to skip every chunk: y came back as the
        # diagonal only, with no error.
        _, _, dbasis, expr = build(12, 6, None, 2)
        with pytest.raises(ConfigError, match="batch_size"):
            DistributedOperator(
                expr, dbasis, method=method, batch_size=batch_size
            )

    @pytest.mark.parametrize(
        "knob",
        [
            dict(work_stealing="no"),
            dict(work_stealing=1),
            dict(consumer_fraction="0.5"),
            dict(consumer_fraction=0),
            dict(consumer_fraction=1.5),
            dict(batch_size=True),
        ],
    )
    def test_knob_values_checked_at_construction(self, knob):
        # These used to construct: "no" turned stealing on, "0.5" raised
        # a bare TypeError at the first product, True ran batches of 1.
        _, _, dbasis, expr = build(8, 4, None, 2)
        (key,) = knob
        with pytest.raises(ConfigError, match=f"cluster.matvec.{key} must be"):
            DistributedOperator(expr, dbasis, method="pc", **knob)

    @pytest.mark.parametrize(
        "backend, counts",
        [
            ("threads", {}),
            ("threads", dict(producers_per_locale=2, consumers_per_locale=1)),
            ("sim", dict(producers_per_locale=3, consumers_per_locale=1)),
        ],
    )
    def test_consumer_fraction_without_effect_rejected(self, backend, counts):
        """Threads run one producer and one consumer per locale unless both
        counts are given, and given counts are the split: a fraction there
        used to be accepted and ignored."""
        group = chain_symmetries(8, momentum=0)
        cluster = Cluster(2, laptop_machine(cores=4), backend=backend)
        dbasis, _ = enumerate_states(
            cluster, SymmetricBasis(group, hamming_weight=4, build=False)
        )
        expr = repro.heisenberg_chain(8)
        with pytest.raises(
            ConfigError, match="producers_per_locale and consumers_per_locale"
        ):
            DistributedOperator(expr, dbasis, consumer_fraction=0.5, **counts)
        DistributedOperator(expr, dbasis, **counts)

    def test_knob_values_kept_as_their_rows_declare(self):
        _, _, dbasis, expr = build(8, 4, None, 2)
        dop = DistributedOperator(
            expr, dbasis, method="pc", batch_size=np.int64(64),
            consumer_fraction=1, work_stealing=False,
        )
        assert dop.batch_size == 64 and type(dop.batch_size) is int
        assert dop.method_options["consumer_fraction"] == 1.0

    @pytest.mark.parametrize(
        "knob",
        [
            dict(buffer_capacity=-1),
            dict(buffer_capacity=0),
            dict(producers_per_locale=0, consumers_per_locale=1),
            dict(producers_per_locale=2, consumers_per_locale=0),
            dict(producers_per_locale=2),
            dict(consumers_per_locale=1),
        ],
    )
    @pytest.mark.parametrize("n_locales", [1, 2])
    def test_pipeline_knobs_below_one_rejected(self, knob, n_locales):
        _, _, dbasis, expr = build(12, 6, None, n_locales)
        x = DistributedVector.full_random(dbasis, seed=3)
        dop = DistributedOperator(expr, dbasis, method="pc", **knob)
        with pytest.raises(ConfigError, match="buffer_capacity|_per_locale"):
            dop.matvec(x)

    def test_vector_from_wrong_basis_rejected(self):
        from repro.errors import DistributionError

        _, _, dbasis_a, expr = build(8, 4, None, 2)
        _, _, dbasis_b, _ = build(8, 4, None, 3)
        dop = DistributedOperator(expr, dbasis_a)
        x = DistributedVector.full_random(dbasis_b, seed=0)
        with pytest.raises(DistributionError):
            dop.matvec(x)

    def test_identity_operator(self, rng):
        from repro.operators.expression import identity

        serial, _, dbasis, _ = build(8, 4, None, 2)
        x = rng.standard_normal(serial.dim)
        dx = DistributedVector.from_serial(dbasis, serial, x)
        dop = DistributedOperator(identity(), dbasis, batch_size=16)
        dy = dop.matvec(dx)
        assert np.allclose(dy.to_serial(serial), x)

    def test_zero_vector_stays_zero(self):
        _, _, dbasis, expr = build(10, 5, None, 2)
        dop = DistributedOperator(expr, dbasis)
        dy = dop.matvec(DistributedVector.zeros(dbasis))
        assert all(np.all(p == 0) for p in dy.parts)
