"""A warm distributed matvec pays for x-dependent work only.

Three contracts:

1. **The diagonal is part of the plan.**  ``diagonal_values`` runs once per
   locale per plan on every variant, on each backend that runs it, and
   on every path; ``plan=False`` recomputes it, ``invalidate_plan()``
   drops it, and results stay within ``1e-12`` of the serial operator.
2. **The hand-off unit follows the backend.**  ``DistributedOperator``
   hands over whole destination slices on ``threads`` and the
   modelled 4096-element buffer on ``sim`` (whose messages, bytes and
   simulated seconds are pinned here as literals); an explicit
   ``buffer_capacity`` wins on both.
3. **The plan holds nothing that depends on x.**  A replay hands out a
   fresh chunk that shares the cached record's arrays, so the bytes the
   plan accounts are the bytes it holds whatever block width replays.
4. **A warm matvec is one SpMV per locale.**  Once the plan holds every
   chunk, ``DistributedOperator`` on a wall-clock backend folds them into
   one CSR matrix per destination (``(d, "matrix")``) and replays on the
   calling thread, whatever the block width or dtype: equal to the
   serial operator and to the recording pass to ``1e-12``, bit-identical
   from replay to replay, and equal to the recording pass to 1e-14
   relative on one locale in real arithmetic (the matrix holds each
   element times its destination norm, a product multiplies the norm in
   after ``x``).  On ``sim`` the first product folds the same matrices,
   simulates the schedule once more and keeps that product's record
   (``(operator, columns)``), and every later one replays it over the
   matrices: no schedule runs, the report is the simulated one to the
   last bit, ``y`` is the simulated one to 1e-14 and the wall-clock
   replay's bit for bit, and every block width shares the one matrix
   set.  Fault plans and budgets too small for the matrices keep the
   per-chunk schedule on both backends, and ``invalidate_plan()`` drops
   the record.
5. **A plan belongs to one kind of operator.**  Attaching an operator with
   other primitive tables, another basis object or another batch size
   raises ``ConfigError``; an equal one shares.  And ``y`` may not alias
   ``x``.
"""

from __future__ import annotations

import gc
import inspect
import tracemalloc
import weakref
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
import repro.distributed.operator as operator_module
import repro.operators.plan as plan_module
from repro import telemetry
from repro.basis import SymmetricBasis
from repro.distributed import (
    DistributedOperator,
    DistributedVector,
    enumerate_states,
    matvec_producer_consumer,
)
from repro.distributed.matvec_common import (
    ProducedChunk,
    apply_diagonal,
    produce_chunk,
)
from repro.distributed.matvec_pc import default_buffer_capacity
from repro.errors import ConfigError, DistributionError
from repro.operators.compile import CompiledOperator
from repro.operators.plan import MatvecPlan, _entry_nbytes
from repro.resilience import FaultPlan, ResilienceConfig
from repro.runtime import Cluster, laptop_machine
from repro.symmetry import chain_symmetries
from repro.telemetry import Telemetry

METHODS = ["naive", "batched", "pc"]
BACKENDS = ["sim", "threads"]
#: Every (method, backend) pair that runs: the naive and batched cost
#: models are the simulator's.
RUNS = [(m, "sim") for m in METHODS] + [("pc", "threads")]
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
    @pytest.mark.parametrize("method, backend", RUNS)
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

    @pytest.mark.parametrize("method, backend", RUNS)
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
        dop = DistributedOperator(
            expr, dbasis, method="pc", resilience=ResilienceConfig()
        )
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

    @pytest.mark.parametrize("method, backend", RUNS)
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

    @pytest.mark.parametrize("method, backend", RUNS)
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
        for replay in (False, plan):  # a pass that generates, then a second
            y = dop.matvec(dx)
            y_cut = cut.matvec(dx)
            if replay:  # one SpMV per locale: nothing is handed over
                assert dop.last_report.messages == 0
                assert cut.last_report.messages == 0
            else:
                assert dop.last_report.messages == len(sizes)
                assert cut.last_report.messages == sum(
                    -(-size // 4096) for size in sizes
                )
            assert dop.last_report.bytes_sent == cut.last_report.bytes_sent
            np.testing.assert_allclose(
                y.to_serial(serial), y_cut.to_serial(serial), atol=1e-12
            )

    def test_threads_sends_fewer_messages_than_the_signature_default(
        self, rng
    ):
        serial, dbasis, expr = build("threads", n=20, n_locales=2)
        dop = DistributedOperator(expr, dbasis, method="pc", plan=False)
        x = DistributedVector.from_serial(
            dbasis, serial, random_serial(rng, serial)
        )
        dop.matvec(x)
        _, cut = matvec_producer_consumer(dop.compiled, dbasis, x)
        assert cut.messages > dop.last_report.messages

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("resilient", [None, True])
    def test_explicit_capacity_is_honoured(self, backend, resilient, rng):
        serial, dbasis, expr = build(backend, n=14)
        dop = DistributedOperator(
            expr, dbasis, method="pc", buffer_capacity=64, batch_size=64,
            resilience=ResilienceConfig() if resilient else None,
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
            chunks = [e for e in entries if isinstance(e, ProducedChunk)]
            assert chunks and all(chunk.values is None for chunk in chunks)
        # The third product replays the matrices, whose entries carry the
        # destination norm: equal to the recording pass to rounding.
        assert_parts_close(results[2], results[0])


def matrix_keys(plan):
    return [key for key in plan._entries if key[-1] == "matrix"]


def count_schedules(monkeypatch, method):
    """The list every product that runs ``method``'s schedule appends to."""
    calls, impl = [], operator_module.IMPLS[method]
    monkeypatch.setitem(
        operator_module.IMPLS, method,
        lambda *args, **kwargs: calls.append(1) or impl(*args, **kwargs),
    )
    return calls


def records_only_plan(dop, x):
    """A fresh plan whose budget admits the chunk records and diagonals of
    ``dop``'s plan, but not its matrices beside them (``dop``'s plan holds
    those, the matrices and its record of ``x``, which holds no array)."""
    assert dop._record_key(x) in dop.plan
    return MatvecPlan(capacity_bytes=dop.plan.nbytes - 8)


def assert_parts_equal(a, b):
    for part_a, part_b in zip(a.parts, b.parts):
        np.testing.assert_array_equal(part_a, part_b)


#: A product adds ``(a * x) * sqrt(N_r)`` per element (the consumer
#: multiplies the norm in at the row it ranks), a replay's matrix holds
#: ``a * sqrt(N_r)``: the two agree to this relative 2-norm, not bitwise.
REPLAY_ROUNDING = 1e-14


def assert_parts_close(a, b, rtol=REPLAY_ROUNDING):
    """``a`` equals ``b`` to ``rtol`` relative in the 2-norm over all parts."""
    diff = np.linalg.norm(np.concatenate(a.parts) - np.concatenate(b.parts))
    assert diff <= rtol * np.linalg.norm(np.concatenate(b.parts))


cached_build = lru_cache(maxsize=None)(
    lambda n, n_locales, complex_sector: build(
        "threads", n=n, n_locales=n_locales,
        sector=COMPLEX_SECTOR if complex_sector else REAL_SECTOR,
    )
)


class TestOneSpmvPerLocale:
    @given(
        n=st.sampled_from([8, 10, 12]),
        complex_sector=st.booleans(),
        n_locales=st.integers(min_value=1, max_value=4),
        k=st.sampled_from([1, 3]),
        complex_x=st.booleans(),
        batch_size=st.sampled_from([7, 64, None]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_record_replay_replay(
        self, n, complex_sector, n_locales, k, complex_x, batch_size, seed,
    ):
        serial, dbasis, expr = cached_build(n, n_locales, complex_sector)
        knobs = {} if batch_size is None else {"batch_size": batch_size}
        dop = DistributedOperator(expr, dbasis, **knobs)
        x = random_serial(np.random.default_rng(seed), serial, k, complex_x)
        dx = DistributedVector.from_serial(dbasis, serial, x)
        expected = repro.Operator(expr, serial, plan=False).matvec(x)

        recorded = dop.matvec(dx)
        assert not matrix_keys(dop.plan)  # never during the recording pass
        handed_over = dop.last_report.messages
        first, second = dop.matvec(dx), dop.matvec(dx)
        assert sorted(matrix_keys(dop.plan)) == [
            (d, "matrix") for d in range(n_locales)
        ]
        assert dop.last_report.messages == dop.last_report.bytes_sent == 0
        assert dop.last_report.phase_elapsed["matvec"] == dop.last_report.elapsed
        assert n_locales == 1 or handed_over > 0

        assert first.dtype == recorded.dtype and first.columns == recorded.columns
        np.testing.assert_allclose(first.to_serial(serial), expected, atol=1e-12)
        np.testing.assert_allclose(
            first.to_serial(serial), recorded.to_serial(serial), atol=1e-12
        )
        assert_parts_equal(first, second)
        if n_locales == 1 and not complex_sector and not complex_x:
            # The shared-memory pass adds the diagonal, then the chunks in
            # order; the replay's entries carry the norm (rounding only).
            assert_parts_close(first, recorded)

    def test_budget_for_the_records_but_not_the_matrices(self, rng):
        serial, dbasis, expr = build("threads", n_locales=2)
        probe = DistributedOperator(expr, dbasis, batch_size=16)
        dx = DistributedVector.from_serial(
            dbasis, serial, random_serial(rng, serial)
        )
        probe.matvec(dx)
        records = probe.plan.nbytes
        probe.matvec(dx)
        matrices = probe.plan.nbytes - records
        assert matrix_keys(probe.plan) and matrices > 64

        plan = MatvecPlan(capacity_bytes=records + matrices - 8)
        dop = DistributedOperator(expr, dbasis, batch_size=16, plan=plan)
        expected = repro.Operator(expr, serial, plan=False).matvec(
            dx.to_serial(serial)
        )
        for _ in range(3):
            y = dop.matvec(dx)
            assert not matrix_keys(plan) and plan.nbytes == records
            assert dop.last_report.messages > 0  # still chunk by chunk
            np.testing.assert_allclose(y.to_serial(serial), expected, atol=1e-12)

    def test_invalidate_drops_the_matrices(self, rng):
        serial, dbasis, expr = build("threads", n_locales=2)
        dop = DistributedOperator(expr, dbasis, batch_size=16)
        dx = DistributedVector.from_serial(
            dbasis, serial, random_serial(rng, serial)
        )
        for _ in range(2):
            dop.matvec(dx)
            assert dop.last_report.messages > 0 and not matrix_keys(dop.plan)
            dop.matvec(dx)
            assert dop.last_report.messages == 0 and matrix_keys(dop.plan)
            dop.invalidate_plan()
            assert dop.plan.n_entries == 0

    def test_a_fault_plan_keeps_the_pipeline(self, rng):
        serial, dbasis, expr = build("threads", n_locales=2)
        dop = DistributedOperator(
            expr, dbasis, batch_size=16, faults=FaultPlan(seed=5)
        )
        dx = DistributedVector.from_serial(
            dbasis, serial, random_serial(rng, serial)
        )
        for _ in range(3):
            dop.matvec(dx)
            assert dop.last_report.messages > 0 and not matrix_keys(dop.plan)

    @pytest.mark.parametrize("method", METHODS)
    def test_sim_replays_what_it_simulated(self, method, rng, monkeypatch):
        serial, dbasis, expr = build("sim", n_locales=2)
        dx = DistributedVector.from_serial(
            dbasis, serial, random_serial(rng, serial)
        )
        scheduled = count_schedules(monkeypatch, method)
        dop = DistributedOperator(expr, dbasis, method=method, batch_size=16)
        ys, reports = [], []
        for _ in range(4):  # record and simulate once more, replay x3
            ys.append(dop.matvec(dx))
            reports.append(dop.last_report)
            assert len(scheduled) == 2
        assert dop._record_key(dx) in dop.plan
        assert sorted(matrix_keys(dop.plan)) == [(0, "matrix"), (1, "matrix")]
        # A plan that cannot hold the matrices simulates every product.
        ref = DistributedOperator(
            expr, dbasis, method=method, batch_size=16,
            plan=records_only_plan(dop, dx),
        )
        ref.matvec(dx)
        simulated = ref.matvec(dx)
        assert len(scheduled) == 4
        # The replays' matrices hold each element times its destination
        # norm; the simulated consumer multiplies the norm in after x.
        for y, report in zip(ys[1:], reports[1:]):
            assert_parts_equal(y, ys[1])
            assert_parts_close(y, simulated)
            assert report is not ref.last_report
            assert report.messages == ref.last_report.messages > 0
            assert report.elapsed == ref.last_report.elapsed

    def test_fold_holds_the_matrices_and_one_run(self, rng, monkeypatch):
        """The wall-clock fold of a destination with more elements than
        ``RUN_ELEMENTS`` places its pieces run by run, never joined whole:
        its tracemalloc peak is the matrices plus one run's working set,
        sixteen 8-byte words per element of the longest run there can be
        (a destination's rows plus the longest piece)."""
        monkeypatch.setattr(plan_module, "RUN_ELEMENTS", 0)
        serial, dbasis, expr = build("threads", n=20, n_locales=2)
        dop = DistributedOperator(expr, dbasis, batch_size=128)
        dx = DistributedVector.from_serial(
            dbasis, serial, random_serial(rng, serial)
        )
        dop.matvec(dx)
        fold, peaks = DistributedOperator._fold, []

        def traced(self, keys):
            tracemalloc.start()
            try:
                return fold(self, keys)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(DistributedOperator, "_fold", traced)
        dop.matvec(dx)
        matrices = sum(
            m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
            for m in map(dop.plan.peek, matrix_keys(dop.plan))
        )
        pieces = (
            np.diff(dop.plan.peek(key).starts)
            for key in dop.plan._entries if isinstance(key[1], int)
        )
        run = max(dbasis.counts) + max(piece.max() for piece in pieces)
        assert len(peaks) == 1 and matrices > 0
        assert peaks[0] <= matrices + 16 * 8 * run

    def test_sim_fault_plan_never_replays(self, rng, monkeypatch):
        serial, dbasis, expr = build("sim", n_locales=2)
        dop = DistributedOperator(
            expr, dbasis, batch_size=16, faults=FaultPlan(seed=5)
        )
        dx = DistributedVector.from_serial(
            dbasis, serial, random_serial(rng, serial)
        )
        scheduled = count_schedules(monkeypatch, "pc")
        for _ in range(3):
            dop.matvec(dx)
        assert len(scheduled) == 3 and dop._record_key(dx) not in dop.plan

    def test_sim_budget_for_the_records_but_not_the_matrices(
        self, rng, monkeypatch
    ):
        serial, dbasis, expr = build("sim", n_locales=2)
        probe = DistributedOperator(expr, dbasis, batch_size=16)
        dx = DistributedVector.from_serial(
            dbasis, serial, random_serial(rng, serial)
        )
        probe.matvec(dx)
        matrices = sum(
            m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
            for m in map(probe.plan.peek, matrix_keys(probe.plan))
        )
        assert matrices > 64
        plan = records_only_plan(probe, dx)
        records = probe.plan.nbytes - matrices

        dop = DistributedOperator(expr, dbasis, batch_size=16, plan=plan)
        scheduled = count_schedules(monkeypatch, "pc")
        for _ in range(3):
            dop.matvec(dx)
            assert plan.nbytes == records
        assert len(scheduled) == 3 and dop._record_key(dx) not in plan

    def test_sim_invalidate_simulates_afresh(self, rng, monkeypatch):
        serial, dbasis, expr = build("sim", n_locales=2)
        dop = DistributedOperator(expr, dbasis, batch_size=16)
        dx = DistributedVector.from_serial(
            dbasis, serial, random_serial(rng, serial)
        )
        scheduled = count_schedules(monkeypatch, "pc")
        for journey in (1, 2):
            for _ in range(3):
                dop.matvec(dx)
            assert len(scheduled) == 2 * journey
            assert dop._record_key(dx) in dop.plan
            dop.invalidate_plan()
            assert dop.plan.n_entries == 0

    def test_sim_keeps_no_record_that_misses_its_product(self, rng, monkeypatch):
        """Matrices that do not give the recorded product's ``y`` (here:
        twice it) are turned away; the operator keeps simulating, right."""
        serial, dbasis, expr = build("sim", n_locales=2)
        dop = DistributedOperator(expr, dbasis, batch_size=16)
        dx = DistributedVector.from_serial(
            dbasis, serial, random_serial(rng, serial)
        )
        fold = DistributedOperator._fold
        monkeypatch.setattr(
            DistributedOperator, "_fold",
            lambda self, keys: [2 * m for m in fold(self, keys)],
        )
        scheduled = count_schedules(monkeypatch, "pc")
        expected = repro.Operator(expr, serial, plan=False).matvec(
            dx.to_serial(serial)
        )
        for product in (1, 2):
            y = dop.matvec(dx)
            np.testing.assert_allclose(y.to_serial(serial), expected, atol=1e-12)
            assert len(scheduled) == 2 * product
        assert dop._record_key(dx) not in dop.plan

    def test_sim_bytes_gauge_counts_the_record(self, rng):
        serial, dbasis, expr = build("sim", n_locales=2)
        dop = DistributedOperator(expr, dbasis, batch_size=16)
        dx = DistributedVector.from_serial(
            dbasis, serial, random_serial(rng, serial)
        )
        tele = Telemetry.enabled()
        with telemetry.use(tele):
            for _ in range(3):
                dop.matvec(dx)
        gauge = tele.metrics.snapshot().gauges[("plan.bytes", ())]
        held = sum(_entry_nbytes(entry) for entry in dop.plan._entries.values())
        assert gauge == dop.plan.nbytes == held
        assert dop._record_key(dx) in dop.plan

    def test_sim_equal_operators_share_one_record(self, rng, monkeypatch):
        """The record belongs to what the schedule depends on, not to the
        operator that made it: an equal operator replays it, a ``(n, 1)``
        block replays the plain vector's, and the plan keeps no operator
        alive."""
        serial, dbasis, expr = build("sim", n_locales=2)
        plan = MatvecPlan()
        dop = DistributedOperator(expr, dbasis, batch_size=16, plan=plan)
        dx = DistributedVector.from_serial(
            dbasis, serial, random_serial(rng, serial)
        )
        first = dop.matvec(dx)
        gone = weakref.ref(dop)
        del dop
        gc.collect()
        assert gone() is None
        scheduled = count_schedules(monkeypatch, "pc")
        other = DistributedOperator(expr, dbasis, batch_size=16, plan=plan)
        assert_parts_equal(other.matvec(dx), other.matvec(dx))
        block = DistributedVector(dbasis, [part[:, None] for part in dx.parts])
        y = other.matvec(block)
        assert not scheduled and other.last_report.messages > 0
        replayed = other.matvec(dx)
        for column, part in zip(y.parts, replayed.parts):
            np.testing.assert_array_equal(column[:, 0], part)
        np.testing.assert_allclose(
            replayed.to_serial(serial), first.to_serial(serial), atol=1e-12
        )

    def test_sim_real_and_complex_operands_share_one_record(self, rng, monkeypatch):
        """A complex operand replays the record a real one of the same width
        made — the report and ``y`` of a record made with the complex
        operand — where it used to simulate twice and keep its own copy of
        every matrix."""
        serial, dbasis, expr = build("sim", n_locales=2)
        dop, own = (DistributedOperator(expr, dbasis, batch_size=16) for _ in "ab")
        dx, dz = (
            DistributedVector.from_serial(
                dbasis, serial, random_serial(rng, serial, complex_x=complex_x)
            )
            for complex_x in (False, True)
        )
        dop.matvec(dx)
        own.matvec(dz)
        scheduled = count_schedules(monkeypatch, "pc")
        y, reference = dop.matvec(dz), own.matvec(dz)
        assert not scheduled and y.dtype == np.complex128
        assert [key for key in dop.plan._entries if key[0] == "replay"] == [
            dop._record_key(dx)
        ]
        assert_parts_equal(y, reference)
        got, want = dop.last_report, own.last_report
        assert (got.elapsed, got.messages, got.bytes_sent) == (
            want.elapsed, want.messages, want.bytes_sent
        )

    def test_warm_products_agree_across_clocks(self):
        """Both backends replay the one chunk-order fold: a warm ``y`` is
        the same to the last bit on ``sim`` and on ``threads``."""
        warm = []
        for backend in BACKENDS:
            serial, dbasis, expr = build(backend, n=16, n_locales=3)
            dop = DistributedOperator(expr, dbasis)
            dx = DistributedVector.from_serial(
                dbasis, serial, random_serial(np.random.default_rng(7), serial)
            )
            warm.append([dop.matvec(dx) for _ in range(3)][2])
        assert_parts_equal(*warm)

    def test_sim_block_widths_share_one_matrix_set(self, rng):
        """A record holds the report and the telemetry log only: a second
        block width adds a record, not a second set of matrices."""
        serial, dbasis, expr = build("sim", n_locales=3)
        dop = DistributedOperator(expr, dbasis, batch_size=16)
        single, block = (
            DistributedVector.from_serial(
                dbasis, serial, random_serial(rng, serial, k=k)
            )
            for k in (1, 3)
        )
        dop.matvec(single)
        before = dop.plan.nbytes
        dop.matvec(block)
        records = [key for key in dop.plan._entries if key[0] == "replay"]
        assert records == [dop._record_key(single), dop._record_key(block)]
        assert sorted(matrix_keys(dop.plan)) == [(d, "matrix") for d in range(3)]
        smallest = min(
            _entry_nbytes(dop.plan.peek(key)) for key in matrix_keys(dop.plan)
        )
        added = dop.plan.nbytes - before
        assert added == _entry_nbytes(dop.plan.peek(records[1])) < smallest

    def test_callers_output_is_overwritten_and_returned(self, rng):
        serial, dbasis, expr = build("threads", n_locales=2)
        dop = DistributedOperator(expr, dbasis, batch_size=16)
        dx = DistributedVector.from_serial(
            dbasis, serial, random_serial(rng, serial)
        )
        results = []
        for _ in range(3):  # record, fold, replay
            y = DistributedVector.full_random(dbasis, seed=9)
            assert dop.matvec(dx, y) is y
            results.append(y)
        assert matrix_keys(dop.plan)
        assert_parts_equal(results[1], results[2])
        np.testing.assert_allclose(
            results[2].to_serial(serial), results[0].to_serial(serial),
            atol=1e-12,
        )


class TestOutputMayNotAliasInput:
    @pytest.mark.parametrize("method, backend", RUNS)
    def test_in_place_matvec_is_refused(self, backend, method, rng):
        # check_vectors zeroes y before anything reads x: y = x used to
        # come back as the zero vector, with x destroyed.
        serial, dbasis, expr = build(backend, n_locales=2)
        dop = DistributedOperator(expr, dbasis, method=method)
        x = random_serial(rng, serial)
        dx = DistributedVector.from_serial(dbasis, serial, x)
        views = DistributedVector(dbasis, [part[:] for part in dx.parts])
        for _ in range(3):  # while generating and while replaying
            for y in (dx, views):
                with pytest.raises(DistributionError, match="shares memory"):
                    dop.matvec(dx, y)
            np.testing.assert_array_equal(dx.to_serial(serial), x)
            dop.matvec(dx)


class TestPlanClaim:
    def test_other_tables_on_a_serial_plan(self, chain12_basis, rng):
        # 2H used to replay its own diagonal over H's off-diagonal batches.
        expr = repro.heisenberg_chain(12)
        plan = MatvecPlan()
        op = repro.Operator(expr, chain12_basis, plan=plan)
        x = rng.standard_normal(chain12_basis.dim)
        y = op.matvec(x)
        with pytest.raises(ConfigError, match="tables .* tables"):
            repro.Operator(2.0 * expr, chain12_basis, plan=plan)
        with pytest.raises(ConfigError, match="batch_size 7"):
            repro.Operator(expr, chain12_basis, plan=plan, batch_size=7)
        np.testing.assert_array_equal(op.matvec(x), y)

    def test_other_batch_size_on_a_distributed_plan(self, rng):
        # Chunks keyed (locale, 0), (locale, 8), ... of one operator used
        # to serve as (locale, 0), (locale, 16), ... of the other.
        serial, dbasis, expr = build("sim", n_locales=2)
        plan = MatvecPlan()
        DistributedOperator(expr, dbasis, batch_size=8, plan=plan)
        with pytest.raises(ConfigError, match="batch_size 8.*batch_size 16"):
            DistributedOperator(expr, dbasis, batch_size=16, plan=plan)
        _, other_basis, _ = build("sim", n_locales=2)
        with pytest.raises(ConfigError, match="basis"):
            DistributedOperator(expr, other_basis, batch_size=8, plan=plan)
        with pytest.raises(ConfigError, match="basis"):
            repro.Operator(expr, serial, batch_size=8, plan=plan)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_equal_operators_share(self, backend, rng):
        serial, dbasis, expr = build(backend, n_locales=2)
        plan = MatvecPlan()
        first = DistributedOperator(expr, dbasis, method="pc", plan=plan)
        second = DistributedOperator(
            repro.heisenberg_chain(12), dbasis, plan=plan,
            method="batched" if backend == "sim" else "pc",
        )
        x = random_serial(rng, serial)
        dx = DistributedVector.from_serial(dbasis, serial, x)
        expected = repro.Operator(expr, serial, plan=False).matvec(x)
        first.matvec(dx)
        entries = plan.n_entries
        y = second.matvec(dx)  # warm from the first one's recording
        np.testing.assert_allclose(y.to_serial(serial), expected, atol=1e-12)
        assert plan.n_entries >= entries

        shared = MatvecPlan()
        ops = [repro.Operator(expr, serial, plan=shared) for _ in range(2)]
        np.testing.assert_array_equal(ops[0].matvec(x), ops[1].matvec(x))
        assert ("matrix",) in shared

    def test_naive_runs_the_batch_it_claims(self, rng):
        # One locale of 9 252 states, more than the default batch of 8 192:
        # a naive pass chunked by another number recorded one 9 252-row
        # chunk under (0, 0), never consolidated, and a pc operator sharing
        # the plan replayed it as its first 8 192 rows.
        serial, dbasis, expr = build(
            "sim", n=20, n_locales=1,
            sector=dict(momentum=0, parity=None, inversion=None),
        )
        assert int(dbasis.counts[0]) > 8192
        x = random_serial(rng, serial)
        dx = DistributedVector.from_serial(dbasis, serial, x)
        expected = repro.Operator(expr, serial, plan=False).matvec(x)
        plan = MatvecPlan()
        for method in ("naive", "pc"):
            op = DistributedOperator(expr, dbasis, method=method, plan=plan)
            np.testing.assert_allclose(
                op.matvec(dx).to_serial(serial), expected, atol=1e-12
            )

    def test_restart_keeps_the_operators_plan(self, rng):
        """The crashed pass's partial records stay in the plan; the restart
        completes it and the next product replays it without restarting."""
        serial, dbasis, expr = build("sim", n_locales=3)
        plan = MatvecPlan()
        dop = DistributedOperator(
            expr, dbasis, method="pc", plan=plan,
            faults=FaultPlan(seed=2, crashes={1: 1e-6}),
        )
        x = random_serial(rng, serial)
        dx = DistributedVector.from_serial(dbasis, serial, x)
        expected = repro.Operator(expr, serial, plan=False).matvec(x)
        tele = Telemetry.enabled(trace=False)
        with telemetry.use(tele):
            first = dop.matvec(dx)  # crashes, restarts, records the plan
            recorded = plan.n_entries
            second = dop.matvec(dx)  # crash specs are one-shot: a replay
        snapshot = tele.metrics.snapshot()
        assert snapshot.counter_total("recovery.matvec_restarts") == 1
        assert dop.plan is plan and plan.n_entries == recorded
        for y in (first, second):
            np.testing.assert_allclose(y.to_serial(serial), expected, atol=1e-12)
