"""The real-parallel ``threads`` backend: exactness, failure, determinism.

Three properties anchor the executor refactor:

1. **Exactness on both backends.** Every matvec variant a backend runs
   — naive, batched and producer-consumer on the discrete-event
   simulator, the producer-consumer pipeline on real threads — must
   match the serial reference operator to ``1e-12``, for single vectors
   and ``k``-column blocks.  The naive and batched cost models are
   refused on threads before any work.
2. **Clear failure, not a hang.** A worker that raises mid-matvec on the
   threads backend must surface as a typed
   :class:`~repro.errors.BackendError` naming the locale, promptly.
3. **Sim determinism across the refactor.** The simulator backend's
   timings are a pure function of the machine model; the
   ``smoke_pipeline`` pc figure recorded before the refactor must be
   reproduced *bit-identically* by the executor-based pipeline.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro
from repro.basis import SymmetricBasis
from repro.distributed import (
    DistributedOperator,
    DistributedVector,
    enumerate_states,
)
from repro.errors import BackendError, ConfigError
from repro.runtime import Cluster, laptop_machine
from repro.symmetry import chain_symmetries

METHODS = ["naive", "batched", "pc"]
#: What a wall-clock backend runs: the naive and batched cost models are
#: the simulator's.
WALL_CLOCK_METHODS = ["pc"]
#: Every (method, backend) pair that runs.
RUNS = [(m, "sim") for m in METHODS] + [
    (m, "threads") for m in WALL_CLOCK_METHODS
]


def build(backend, n=12, w=6, n_locales=3, cores=4):
    group = chain_symmetries(n, momentum=0, parity=0, inversion=0)
    serial = SymmetricBasis(group, hamming_weight=w)
    template = SymmetricBasis(group, hamming_weight=w, build=False)
    cluster = Cluster(n_locales, laptop_machine(cores=cores), backend=backend)
    dbasis, _ = enumerate_states(cluster, template, chunks_per_core=3)
    expr = repro.heisenberg_chain(n)
    return serial, repro.Operator(expr, serial), dbasis, expr


class TestExactnessOnBothBackends:
    @pytest.mark.parametrize("method, backend", RUNS)
    @pytest.mark.parametrize("k", [1, 8])
    def test_matches_serial(self, backend, method, k, rng):
        serial, serial_op, dbasis, expr = build(backend)
        shape = (serial.dim,) if k == 1 else (serial.dim, k)
        x = rng.standard_normal(shape).astype(serial.scalar_dtype)
        if serial.scalar_dtype == np.complex128:
            x = x + 1j * rng.standard_normal(shape)
        y_ref = serial_op.matvec(x)
        dx = DistributedVector.from_serial(dbasis, serial, x)
        dop = DistributedOperator(expr, dbasis, method=method, batch_size=64)
        dy = dop.matvec(dx)
        np.testing.assert_allclose(dy.to_serial(serial), y_ref, atol=1e-12)

    @pytest.mark.parametrize("method", WALL_CLOCK_METHODS)
    def test_threads_single_locale(self, method, rng):
        """One worker on the threads backend is the serial shared-memory
        path; it must agree too."""
        serial, serial_op, dbasis, expr = build("threads", n_locales=1)
        x = rng.standard_normal(serial.dim).astype(serial.scalar_dtype)
        y_ref = serial_op.matvec(x)
        dx = DistributedVector.from_serial(dbasis, serial, x)
        dop = DistributedOperator(expr, dbasis, method=method, batch_size=64)
        np.testing.assert_allclose(
            dop.matvec(dx).to_serial(serial), y_ref, atol=1e-12
        )

    def test_threads_pc_report_is_wall_clock(self, rng):
        serial, _, dbasis, expr = build("threads")
        dx = DistributedVector.full_random(dbasis, seed=3)
        dop = DistributedOperator(expr, dbasis, method="pc", batch_size=64)
        dop.matvec(dx)
        assert dop.last_report.elapsed > 0.0


class TestWorkerFailurePropagation:
    """A raising worker mid-matvec: typed error with the locale, no hang."""

    def test_pc_producer_failure(self, monkeypatch, rng):
        import repro.distributed.matvec_pc as mod

        serial, _, dbasis, expr = build("threads")
        real_produce = mod.produce_chunk

        def exploding(op, basis, locale, start, stop, x_part, plan):
            if locale == 1:
                raise RuntimeError("injected kaboom")
            return real_produce(op, basis, locale, start, stop, x_part, plan)

        monkeypatch.setattr(mod, "produce_chunk", exploding)
        dx = DistributedVector.full_random(dbasis, seed=5)
        dop = DistributedOperator(expr, dbasis, method="pc", batch_size=64)
        t0 = time.perf_counter()
        with pytest.raises(BackendError) as excinfo:
            dop.matvec(dx)
        assert time.perf_counter() - t0 < 10.0, "failure must not hang"
        assert "locale 1" in str(excinfo.value)
        assert excinfo.value.locale == 1

    @pytest.mark.parametrize("backend", ["sim", "threads"])
    def test_pc_single_locale_failure(self, backend, monkeypatch):
        """One locale runs the chunks on the calling thread; a kernel that
        raises there is typed as on 2+ locales, the original chained."""
        import repro.distributed.matvec_pc as mod

        serial, _, dbasis, expr = build(backend, n_locales=1)

        def exploding(*args):
            raise RuntimeError("injected kaboom")

        monkeypatch.setattr(mod, "produce_chunk", exploding)
        dx = DistributedVector.full_random(dbasis, seed=5)
        dop = DistributedOperator(expr, dbasis, method="pc", batch_size=64)
        with pytest.raises(BackendError, match="injected kaboom") as excinfo:
            dop.matvec(dx)
        assert "locale0" in str(excinfo.value)
        assert excinfo.value.locale == 0
        assert isinstance(excinfo.value.__cause__, RuntimeError)


class TestCostModelsRunOnSimOnly:
    """The naive and batched variants model the paper's first two
    schedules; a wall-clock cluster refuses them before any work."""

    @pytest.mark.parametrize("method", ["naive", "batched"])
    def test_operator_refuses_them_at_construction(self, method):
        _, _, dbasis, expr = build("threads")
        with pytest.raises(ConfigError, match=f"{method!r} .* 'sim' backend only"):
            DistributedOperator(expr, dbasis, method=method)

    @pytest.mark.parametrize("method", ["naive", "batched"])
    def test_direct_call_refuses_them_before_a_chunk(self, method, monkeypatch):
        module = __import__(
            f"repro.distributed.matvec_{method}", fromlist=["produce_chunk"]
        )
        produced = []
        monkeypatch.setattr(
            module, "produce_chunk", lambda *args: produced.append(args)
        )
        _, _, dbasis, expr = build("threads")
        compiled = DistributedOperator(expr, dbasis, plan=False).compiled
        dx = DistributedVector.full_random(dbasis, seed=5)
        y = DistributedVector.full_random(dbasis, seed=6)
        before = [part.copy() for part in y.parts]
        with pytest.raises(ConfigError, match="'sim' backend only"):
            getattr(module, f"matvec_{method}")(compiled, dbasis, dx, y)
        assert produced == []
        for part, kept in zip(y.parts, before):
            np.testing.assert_array_equal(part, kept)


class TestSimDeterminismAcrossRefactor:
    """The executor refactor must not move a single simulated femtosecond."""

    def _pc_elapsed(self):
        group = chain_symmetries(16, momentum=0, parity=0, inversion=0)
        template = SymmetricBasis(group, hamming_weight=8, build=False)
        cluster = Cluster(4, laptop_machine(cores=4))
        dbasis, _ = enumerate_states(
            cluster, template, use_weight_shortcut=True
        )
        dop = DistributedOperator(
            repro.heisenberg_chain(16),
            dbasis,
            method="pc",
            batch_size=256,
            buffer_capacity=64,
            producers_per_locale=3,
            consumers_per_locale=1,
        )
        dop.matvec(DistributedVector.full_random(dbasis, seed=7))
        return dop.last_report.elapsed

    def test_simulated_seconds_match_prerefactor_baseline_exactly(self):
        # Bit-identical, not allclose: the simulator's arithmetic is a
        # deterministic function of the machine model and event order,
        # and this figure predates the executor abstraction.
        assert self._pc_elapsed() == 0.0006119945

    def test_simulated_seconds_repeatable(self):
        assert self._pc_elapsed() == self._pc_elapsed()
