"""A warm distributed matvec pays for x-dependent work only.

Three contracts:

1. **The diagonal is part of the plan.**  ``diagonal_values`` runs once per
   locale per plan on every variant, backend and path; ``plan=False``
   recomputes it, ``invalidate_plan()`` drops it, and results stay within
   ``1e-12`` of the serial operator.
2. **The hand-off unit follows the backend.**  ``DistributedOperator`` and
   the autotuner hand over whole destination slices on ``threads`` and the
   modelled 4096-element buffer on ``sim`` (whose messages, bytes and
   simulated seconds are pinned here as literals); an explicit
   ``buffer_capacity`` wins on both.
3. **The plan holds nothing that depends on x.**  A replay hands out a
   fresh chunk that shares the cached record's arrays, so the bytes the
   plan accounts are the bytes it holds whatever block width replays.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

import repro
from repro.autotune import search
from repro.basis import SymmetricBasis
from repro.distributed import (
    DistributedOperator,
    DistributedVector,
    enumerate_states,
    matvec_producer_consumer,
)
from repro.distributed.matvec_common import apply_diagonal, produce_chunk
from repro.distributed.matvec_pc import default_buffer_capacity
from repro.operators.compile import CompiledOperator
from repro.operators.plan import MatvecPlan, _entry_nbytes
from repro.runtime import Cluster, laptop_machine
from repro.symmetry import chain_symmetries

METHODS = ["naive", "batched", "pc"]
BACKENDS = ["sim", "threads"]
REAL_SECTOR = dict(momentum=0, parity=0, inversion=0)
COMPLEX_SECTOR = dict(momentum=2, parity=None, inversion=None)


def build(backend, n=12, n_locales=3, sector=REAL_SECTOR, cores=4):
    group = chain_symmetries(n, **sector)
    serial = SymmetricBasis(group, hamming_weight=n // 2)
    template = SymmetricBasis(group, hamming_weight=n // 2, build=False)
    cluster = Cluster(n_locales, laptop_machine(cores=cores), backend=backend)
    dbasis, _ = enumerate_states(cluster, template)
    return serial, dbasis, repro.heisenberg_chain(n)


def random_serial(rng, serial, k=1, complex_x=False):
    shape = (serial.dim,) if k == 1 else (serial.dim, k)
    x = rng.standard_normal(shape)
    if complex_x:
        x = x + 1j * rng.standard_normal(shape)
    return x


@pytest.fixture
def diagonal_calls(monkeypatch):
    """Counts calls into ``CompiledOperator.diagonal_values``."""
    calls = []
    original = CompiledOperator.diagonal_values

    def spy(self, alphas):
        calls.append(np.size(alphas))
        return original(self, alphas)

    monkeypatch.setattr(CompiledOperator, "diagonal_values", spy)
    return calls


class TestDiagonalJoinsThePlan:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("n_locales", [1, 3])
    def test_computed_once_per_locale(
        self, backend, method, n_locales, rng, diagonal_calls
    ):
        serial, dbasis, expr = build(backend, n_locales=n_locales)
        dop = DistributedOperator(expr, dbasis, method=method, batch_size=16)
        vectors = [
            DistributedVector.from_serial(
                dbasis, serial, random_serial(rng, serial)
            )
            for _ in range(4)
        ]
        for dx in vectors:
            dop.matvec(dx)
        assert len(diagonal_calls) == n_locales
        assert sorted(diagonal_calls) == sorted(int(c) for c in dbasis.counts)
        for locale in range(n_locales):
            assert (locale, "diag") in dop.plan

        dop.invalidate_plan()
        assert dop.plan.nbytes == 0
        for dx in vectors[:2]:
            dop.matvec(dx)
        assert len(diagonal_calls) == 2 * n_locales

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method", METHODS)
    def test_plan_false_recomputes(self, backend, method, rng, diagonal_calls):
        serial, dbasis, expr = build(backend)
        dop = DistributedOperator(expr, dbasis, method=method, plan=False)
        dx = DistributedVector.from_serial(
            dbasis, serial, random_serial(rng, serial)
        )
        for _ in range(3):
            dop.matvec(dx)
        assert len(diagonal_calls) == 3 * dbasis.n_locales

    def test_resilient_pipeline_caches_it_too(self, rng, diagonal_calls):
        serial, dbasis, expr = build("sim")
        dop = DistributedOperator(expr, dbasis, method="pc", resilience=True)
        dx = DistributedVector.from_serial(
            dbasis, serial, random_serial(rng, serial)
        )
        for _ in range(3):
            dop.matvec(dx)
        assert dop.last_report.extras["resilient"] == 1.0
        assert len(diagonal_calls) == dbasis.n_locales

    def test_bytes_are_on_the_plans_budget(self, rng):
        serial, dbasis, expr = build("sim")
        compiled = DistributedOperator(expr, dbasis, plan=False).compiled
        x = DistributedVector.from_serial(
            dbasis, serial, random_serial(rng, serial)
        )
        plan = MatvecPlan()
        apply_diagonal(compiled, dbasis, x, DistributedVector.zeros(dbasis), plan)
        assert plan.n_entries == dbasis.n_locales
        assert plan.nbytes == 8 * serial.dim

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("n_locales", [1, 3])
    @pytest.mark.parametrize("k", [1, 8])
    @pytest.mark.parametrize("sector", [REAL_SECTOR, COMPLEX_SECTOR])
    def test_warm_matches_serial(
        self, backend, method, n_locales, k, sector, rng
    ):
        serial, dbasis, expr = build(
            backend, n_locales=n_locales, sector=sector
        )
        reference = repro.Operator(expr, serial, plan=False)
        dop = DistributedOperator(expr, dbasis, method=method, batch_size=16)
        is_complex = serial.scalar_dtype == np.complex128
        for _ in range(3):
            x = random_serial(rng, serial, k, complex_x=is_complex)
            dy = dop.matvec(DistributedVector.from_serial(dbasis, serial, x))
            np.testing.assert_allclose(
                dy.to_serial(serial), reference.matvec(x), atol=1e-12
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method", METHODS)
    def test_recorded_real_replayed_complex(self, backend, method, rng):
        serial, dbasis, expr = build(backend)
        reference = repro.Operator(expr, serial, plan=False)
        dop = DistributedOperator(expr, dbasis, method=method)
        x = random_serial(rng, serial)
        assert dop.matvec(
            DistributedVector.from_serial(dbasis, serial, x)
        ).dtype == np.float64
        xc = random_serial(rng, serial, complex_x=True)
        dy = dop.matvec(DistributedVector.from_serial(dbasis, serial, xc))
        assert dy.dtype == np.complex128
        np.testing.assert_allclose(
            dy.to_serial(serial), reference.matvec(xc), atol=1e-12
        )


def slice_sizes(compiled, dbasis, batch_size):
    """Element count of every non-empty (chunk, destination) slice."""
    sizes = []
    zeros = DistributedVector.zeros(dbasis)
    for locale in range(dbasis.n_locales):
        count = int(dbasis.counts[locale])
        for start in range(0, count, batch_size):
            chunk = produce_chunk(
                compiled, dbasis, locale, start,
                min(start + batch_size, count), zeros.parts[locale],
            )
            sizes += [int(n) for n in np.diff(chunk.starts) if n]
    return sizes


class TestHandOffUnit:
    def test_signature_defaults_are_the_simulated_machine(self):
        parameters = inspect.signature(matvec_producer_consumer).parameters
        assert parameters["batch_size"].default == 8192
        assert parameters["buffer_capacity"].default == 4096
        assert type(parameters["buffer_capacity"].default) is int

    def test_default_follows_the_backend(self):
        machine = laptop_machine(cores=2)
        assert default_buffer_capacity(Cluster(2, machine)) == 4096
        assert default_buffer_capacity(
            Cluster(2, machine, backend="threads")
        ) > 1 << 40

    @pytest.mark.parametrize("plan", [False, True])
    def test_threads_hands_over_whole_slices(self, plan, rng):
        # chain-20 on 2 locales: every slice is ~6.6k elements, so the
        # simulated 4096-element buffer cuts each one in two.
        serial, dbasis, expr = build("threads", n=20, n_locales=2)
        dx = DistributedVector.from_serial(
            dbasis, serial, random_serial(rng, serial)
        )
        dop = DistributedOperator(expr, dbasis, method="pc", plan=plan)
        cut = DistributedOperator(
            expr, dbasis, method="pc", plan=plan, buffer_capacity=4096
        )
        sizes = slice_sizes(dop.compiled, dbasis, 8192)
        assert max(sizes) > 4096
        for _ in range(2):  # cold, then (with a plan) warm
            y = dop.matvec(dx)
            y_cut = cut.matvec(dx)
            assert dop.last_report.messages == len(sizes)
            assert cut.last_report.messages == sum(
                -(-size // 4096) for size in sizes
            )
            assert dop.last_report.bytes_sent == cut.last_report.bytes_sent
            np.testing.assert_allclose(
                y.to_serial(serial), y_cut.to_serial(serial), atol=1e-12
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("resilience", [None, True])
    def test_explicit_capacity_is_honoured(self, backend, resilience, rng):
        serial, dbasis, expr = build(backend, n=14)
        dop = DistributedOperator(
            expr, dbasis, method="pc", buffer_capacity=64, batch_size=64,
            resilience=resilience,
        )
        dop.matvec(
            DistributedVector.from_serial(
                dbasis, serial, random_serial(rng, serial)
            )
        )
        sizes = slice_sizes(dop.compiled, dbasis, 64)
        assert max(sizes) > 64
        assert dop.last_report.messages == sum(
            -(-size // 64) for size in sizes
        )

    @pytest.mark.parametrize(
        "n, n_locales, messages, bytes_sent, elapsed",
        [
            # Recorded at the parent commit (PR 12).  On chain-20 every
            # slice exceeds the buffer: 4 slices, 8 messages.
            (16, 4, 16, 35360, 0.0005269863),
            (20, 2, 8, 425056, 0.012706967849999997),
        ],
    )
    @pytest.mark.parametrize("plan", [False, True])
    def test_sim_defaults_reproduce_the_parent(
        self, n, n_locales, messages, bytes_sent, elapsed, plan
    ):
        _, dbasis, expr = build("sim", n=n, n_locales=n_locales)
        dop = DistributedOperator(expr, dbasis, method="pc", plan=plan)
        x = DistributedVector.full_random(dbasis, seed=7)
        for _ in range(2):
            dop.matvec(x)
            report = dop.last_report
            assert report.messages == messages
            assert report.bytes_sent == bytes_sent
            assert report.elapsed == elapsed


class TestAutotunerTimesWhatTheOperatorRuns:
    def test_measure_knobs_reports_the_operators_messages(
        self, monkeypatch, rng
    ):
        serial, dbasis, expr = build("threads", n=20, n_locales=2)
        dop = DistributedOperator(expr, dbasis, method="pc", plan=False)
        x = DistributedVector.from_serial(
            dbasis, serial, random_serial(rng, serial)
        )
        dop.matvec(x)
        reports = []

        def recording(*args, **kwargs):
            y, report = matvec_producer_consumer(*args, **kwargs)
            reports.append(report)
            return y, report

        monkeypatch.setitem(search.IMPLS, "pc", recording)
        search.measure_knobs(
            dop.compiled, dbasis, x, search.default_knobs("pc"), samples=2
        )
        assert [r.messages for r in reports] == [dop.last_report.messages] * 2
        # ... which is not what the signature default would have run.
        _, cut = matvec_producer_consumer(dop.compiled, dbasis, x)
        assert cut.messages > dop.last_report.messages

    def test_method_kwargs(self):
        sim = Cluster(2, laptop_machine(cores=2))
        threads = Cluster(2, laptop_machine(cores=2), backend="threads")
        knobs = search.default_knobs("pc")
        assert search.method_kwargs(knobs, "batched", threads) == {
            "batch_size": 8192
        }
        assert search.method_kwargs(knobs, "pc", sim) == {
            **search.default_knobs("pc"), "buffer_capacity": 4096
        }
        assert search.method_kwargs(knobs, "pc", threads) == {
            **search.default_knobs("pc"),
            "buffer_capacity": default_buffer_capacity(threads),
        }


class TestPlanHoldsNoInputDependentData:
    @pytest.mark.parametrize("method", METHODS)
    def test_bytes_held_are_bytes_accounted_after_a_block_replay(
        self, method, rng
    ):
        serial, dbasis, expr = build("sim", n=16, n_locales=2)
        dop = DistributedOperator(expr, dbasis, method=method)
        single = DistributedVector.from_serial(
            dbasis, serial, random_serial(rng, serial)
        )
        block = DistributedVector.from_serial(
            dbasis, serial, random_serial(rng, serial, k=8)
        )
        results = []
        for x in (single, block, single):  # record, then two replays
            results.append(dop.matvec(x))
            entries = list(dop.plan._entries.values())
            held = sum(_entry_nbytes(entry) for entry in entries)
            assert dop.plan.nbytes == held <= dop.plan.capacity_bytes
            chunks = [e for e in entries if not isinstance(e, np.ndarray)]
            assert chunks and all(chunk.values is None for chunk in chunks)
        for recorded, replayed in zip(results[0].parts, results[2].parts):
            np.testing.assert_array_equal(replayed, recorded)
