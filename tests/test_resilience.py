"""Tests for the fault-injection runtime, the self-healing matvec, and
checkpoint/restart of the Krylov solvers.

The resilience contract under test (docs/RESILIENCE.md): under any seeded
fault plan every matvec either recovers to the fault-free result or raises
a typed FaultError; fault injection is deterministic per seed; a solver
killed mid-iteration and resumed from its checkpoint continues bit-for-bit
identically; and corrupted state on disk is detected, never silently
loaded.
"""

import json
import shutil
import threading

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.basis import SpinBasis
from repro.distributed import (
    DistributedOperator,
    DistributedVector,
    enumerate_states,
)
from repro.distributed.matvec_pc import matvec_producer_consumer
from repro.distributed.vector import DistributedVectorSpace
from repro.errors import (
    CheckpointError,
    ConfigError,
    ConvergenceError,
    FaultError,
)
from repro.linalg.lanczos import lanczos, lanczos_distributed
from repro.operators import compile_expression
from repro.resilience import (
    FaultPlan,
    ResilienceConfig,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    load_latest_checkpoint,
    write_checkpoint,
)
from repro.runtime import Cluster, laptop_machine
from repro.telemetry import Telemetry

CHAOS_PLANS = [
    dict(seed=11, drop=0.05, delay=0.2, max_delay=1e-4),
    dict(seed=12, duplicate=0.06, corrupt=0.03),
    dict(seed=13, drop=0.03, duplicate=0.03, corrupt=0.02, delay=0.1,
         max_delay=5e-5, stragglers={1: 2.0}),
    dict(seed=14, crashes={2: 1e-5}),
]


def make_dbasis(n_locales=4, cores=8, n=10, weight=5):
    cluster = Cluster(n_locales, laptop_machine(cores=cores))
    dbasis, _ = enumerate_states(
        cluster, SpinBasis(n, hamming_weight=weight),
        use_weight_shortcut=True,
    )
    return dbasis


@pytest.fixture(scope="module")
def setup():
    dbasis = make_dbasis()
    expr = repro.heisenberg_chain(10)
    x = DistributedVector.full_random(dbasis, seed=7)
    return dbasis, expr, x


class TestFaultPlan:
    def test_same_seed_same_fates(self):
        a = FaultPlan(seed=42, drop=0.1, duplicate=0.1, corrupt=0.1,
                      delay=0.2, max_delay=1e-3)
        b = FaultPlan(seed=42, drop=0.1, duplicate=0.1, corrupt=0.1,
                      delay=0.2, max_delay=1e-3)
        fates_a = [a.message_fate(0, 1) for _ in range(200)]
        fates_b = [b.message_fate(0, 1) for _ in range(200)]
        assert fates_a == fates_b
        assert any(f.drop for f in fates_a)
        assert any(f.duplicate for f in fates_a)
        assert any(f.corrupt for f in fates_a)

    def test_fresh_rewinds(self):
        plan = FaultPlan(seed=3, drop=0.2)
        first = [plan.message_fate(0, 1) for _ in range(50)]
        rewound = plan.fresh()
        again = [rewound.message_fate(0, 1) for _ in range(50)]
        assert first == again

    def test_crashes_are_one_shot(self):
        plan = FaultPlan(seed=0, crashes={1: 0.5})
        assert plan.take_crashes() == {1: 0.5}
        assert plan.take_crashes() == {}

    def test_config_roundtrip(self):
        plan = FaultPlan(seed=9, drop=0.01, duplicate=0.02, delay=0.03,
                         max_delay=1e-4, corrupt=0.04,
                         stragglers={2: 1.5}, crashes={0: 0.25})
        clone = FaultPlan.from_config(plan.to_config())
        assert clone.to_config() == plan.to_config()
        assert clone.stragglers == {2: 1.5}
        assert clone.take_crashes() == {0: 0.25}

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            FaultPlan.from_config({"seed": 1, "droop": 0.5})

    @pytest.mark.parametrize("key, value", [
        ("stragglers", -3.0), ("stragglers", 0.5), ("stragglers", 1e-300),
        ("stragglers", float("inf")), ("stragglers", float("nan")),
        ("crashes", -1e-6), ("crashes", float("nan")),
        ("crashes", float("inf")),
    ])
    def test_bad_straggler_factor_or_crash_time_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key}.1 must be"):
            FaultPlan(seed=0, **{key: {1: value}})
        with pytest.raises(ConfigError, match=f"cluster.faults.{key}.1 "):
            FaultPlan.from_config({"seed": 0, key: {"1": value}})

    def test_boundary_straggler_factor_and_crash_time_accepted(self):
        plan = FaultPlan(seed=0, stragglers={1: 1.0}, crashes={0: 0.0})
        assert plan.slowdown(1) == 1.0
        assert plan.take_crashes() == {0: 0.0}

    def test_resilience_config_validation(self):
        """The constructor applies the rules ``from_config`` does."""
        for key, value in [
            ("ack_timeout", 0.0), ("backoff", 0.5), ("max_retries", -1),
            ("ack_timeout", float("nan")), ("backoff", float("nan")),
            ("straggler_threshold", float("nan")),
            ("watchdog_timeout", float("inf")), ("ack_timeout", float("inf")),
            ("matvec_restarts", -1),
        ]:
            match = f"cluster.resilience.{key} "
            with pytest.raises(ConfigError, match=match):
                ResilienceConfig(**{key: value})
            with pytest.raises(ConfigError, match=match):
                ResilienceConfig.from_config({key: value})


class TestDeterministicInjection:
    def test_same_seed_identical_run(self, setup):
        """Two runs with fresh copies of one plan agree on the result, the
        simulated time, and every fault/recovery metric count."""
        dbasis, expr, x = setup
        plan = FaultPlan(seed=5, drop=0.04, duplicate=0.04, corrupt=0.02,
                         delay=0.1, max_delay=1e-4)

        def run(p):
            tele = Telemetry.enabled()
            with telemetry.use(tele):
                op = DistributedOperator(expr, dbasis, method="pc", faults=p)
                y = op.matvec(x)
            snap = tele.metrics.snapshot()
            counts = {
                name: snap.counter_total(name)
                for name in (
                    "fault.drops", "fault.duplicates", "fault.corruptions",
                    "fault.delays", "fault.timeouts",
                    "recovery.retransmits", "recovery.checksum_rejects",
                    "recovery.duplicates_discarded",
                )
            }
            return y, op.last_report.elapsed, counts

        y1, t1, c1 = run(plan.fresh())
        y2, t2, c2 = run(plan.fresh())
        assert t1 == t2
        assert c1 == c2
        assert c1["recovery.retransmits"] > 0
        for a, b in zip(y1.parts, y2.parts):
            np.testing.assert_array_equal(a, b)


class TestChaosSweep:
    @pytest.mark.parametrize("method", ["pc"])
    @pytest.mark.parametrize("spec", CHAOS_PLANS,
                             ids=[f"plan{p['seed']}" for p in CHAOS_PLANS])
    def test_recovers_or_raises_typed_fault(self, setup, method, spec):
        """Under the default budgets the pipeline recovers every plan (the
        typed fault is for exhausted budgets, see below)."""
        dbasis, expr, x = setup
        reference = DistributedOperator(expr, dbasis, method=method).matvec(x)
        op = DistributedOperator(
            expr, dbasis, method=method, faults=FaultPlan(**spec)
        )
        y = op.matvec(x)
        err = max(
            float(np.abs(a - b).max())
            for a, b in zip(y.parts, reference.parts)
        )
        assert err <= 1e-10
        assert op.last_report.extras.get("resilient") == 1.0

    @pytest.mark.parametrize("method", ["naive", "batched"])
    @pytest.mark.parametrize("where", ["faults", "resilience"])
    def test_baselines_reject_a_fault_plan(self, method, where):
        """Only the pipeline recovers from faults; the baselines refuse a
        plan or a policy."""
        kwargs = {
            "faults": dict(faults=FaultPlan(seed=1)),
            "resilience": dict(resilience=ResilienceConfig()),
        }[where]
        with pytest.raises(ConfigError, match=f"{method!r} takes no fault"):
            DistributedOperator(
                repro.heisenberg_chain(10), make_dbasis(), method=method,
                **kwargs,
            )

    def test_corruption_without_checksums_rejected(self, setup):
        dbasis, expr, x = setup
        op = DistributedOperator(
            expr, dbasis, method="pc",
            faults=FaultPlan(seed=1, corrupt=0.1),
            resilience=ResilienceConfig(checksums=False),
        )
        with pytest.raises(ConfigError, match="checksum"):
            op.matvec(x)

    def test_a_direct_pipeline_call_needs_a_policy_beside_the_plan(self, setup):
        dbasis, expr, x = setup
        with pytest.raises(ConfigError, match="resilience policy"):
            matvec_producer_consumer(
                compile_expression(expr, 10), dbasis, x, faults=FaultPlan(seed=1)
            )

    def test_pc_crash_restarts(self, setup):
        dbasis, expr, x = setup
        reference = DistributedOperator(expr, dbasis, method="pc").matvec(x)
        tele = Telemetry.enabled()
        with telemetry.use(tele):
            op = DistributedOperator(
                expr, dbasis, method="pc",
                faults=FaultPlan(seed=2, crashes={1: 1e-6}),
            )
            y = op.matvec(x)
        snapshot = tele.metrics.snapshot()
        assert snapshot.counter_total("recovery.matvec_restarts") == 1
        assert snapshot.counter_total("fault.crashes") == 1
        assert "fallback" not in op.last_report.extras
        for a, b in zip(y.parts, reference.parts):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_exhausted_budgets_raise(self, setup):
        dbasis, expr, x = setup
        op = DistributedOperator(
            expr, dbasis, method="pc",
            faults=FaultPlan(seed=2, crashes={0: 1e-6}),
            resilience=ResilienceConfig(matvec_restarts=0),
        )
        with pytest.raises(FaultError):
            op.matvec(x)

    def test_a_fault_plan_implies_the_default_policy(self):
        plan = FaultPlan(seed=4, drop=0.02)
        op = DistributedOperator(
            repro.heisenberg_chain(10), make_dbasis(), faults=plan
        )
        assert op.faults is plan
        assert op.resilience == ResilienceConfig()
        # The cluster holds neither: a product gets them one way.
        with pytest.raises(TypeError):
            Cluster(2, laptop_machine(), faults=plan)


class TestStragglerDetection:
    @staticmethod
    def _run(setup, **protection):
        dbasis, expr, x = setup
        tele = Telemetry.enabled(trace=False)
        with telemetry.use(tele):
            op = DistributedOperator(expr, dbasis, method="pc", **protection)
            op.matvec(x)
        return op.last_report.extras, tele.metrics.snapshot().counters

    def test_slowed_locale_is_flagged(self, setup):
        extras, counters = self._run(
            setup, faults=FaultPlan(seed=0, stragglers={1: 5.0})
        )
        assert extras["stragglers"] == 1.0
        detected = {
            labels: value for (name, labels), value in counters.items()
            if name == "fault.stragglers_detected"
        }
        assert detected == {(("locale", 1),): 1}

    @pytest.mark.parametrize(
        "protection", [{}, {"resilience": ResilienceConfig()}],
        ids=["plain", "resilient"],
    )
    def test_nothing_flagged_without_a_plan(self, setup, protection):
        extras, counters = self._run(setup, **protection)
        assert "stragglers" not in extras
        assert all(name != "fault.stragglers_detected" for name, _ in counters)


class _KillSwitch:
    """Wraps an operator; raises after a set number of matvecs (SIGKILL
    stand-in for 'the job died mid-iteration')."""

    def __init__(self, operator, survive: int) -> None:
        self.operator = operator
        self.survive = survive
        self.calls = 0

    def matvec(self, v):
        self.calls += 1
        if self.calls > self.survive:
            raise KeyboardInterrupt("killed mid-iteration")
        return self.operator.matvec(v)


class _ArmedCrash:
    """Wraps an operator; arms a seeded crash plan after ``survive``
    successful products.  Unlike :class:`_KillSwitch` the test does not
    raise anything itself — the fault layer kills the worker and
    escalates the typed :class:`FaultError`."""

    def __init__(self, operator, plan, survive: int) -> None:
        self.operator = operator
        self.plan = plan
        self.survive = survive
        self.calls = 0

    def matvec(self, v):
        self.calls += 1
        if self.calls > self.survive and self.operator.faults is None:
            self.operator.faults = self.plan
            self.operator.resilience = ResilienceConfig(matvec_restarts=0)
        return self.operator.matvec(v)


class TestCheckpointRestart:
    def test_lanczos_distributed_resume_bit_identical(self, setup, tmp_path):
        """A distributed Lanczos killed mid-iteration and resumed produces
        bit-identical eigenvalues and iteration count (acceptance test)."""
        dbasis, expr, _ = setup
        op = DistributedOperator(expr, dbasis)
        uninterrupted, _ = lanczos_distributed(op, k=1, seed=3, tol=1e-11)

        ckpt = tmp_path / "krylov"
        space = DistributedVectorSpace(dbasis)
        v0 = DistributedVector.full_random(dbasis, seed=3)
        killed = _KillSwitch(DistributedOperator(expr, dbasis), survive=12)
        with pytest.raises(KeyboardInterrupt):
            lanczos(killed.matvec, v0, k=1, tol=1e-11, space=space,
                    checkpoint_dir=ckpt, checkpoint_every=4)
        assert list_checkpoints(ckpt)

        resumed_op = DistributedOperator(expr, dbasis)
        resumed = lanczos(resumed_op.matvec, v0, k=1, tol=1e-11, space=space,
                          checkpoint_dir=ckpt, resume=True)
        np.testing.assert_array_equal(
            resumed.eigenvalues, uninterrupted.eigenvalues
        )
        assert resumed.n_iterations == uninterrupted.n_iterations
        np.testing.assert_array_equal(resumed.alphas, uninterrupted.alphas)
        np.testing.assert_array_equal(resumed.betas, uninterrupted.betas)

    def test_serial_lanczos_resume_bit_identical(self, tmp_path):
        basis = SpinBasis(12, hamming_weight=6)
        op = repro.Operator(repro.heisenberg_chain(12), basis)
        v0 = np.random.default_rng(0).standard_normal(basis.dim)
        reference = lanczos(op, v0, k=2, tol=1e-12)

        killed = _KillSwitch(op, survive=20)
        with pytest.raises(KeyboardInterrupt):
            lanczos(killed.matvec, v0, k=2, tol=1e-12,
                    checkpoint_dir=tmp_path, checkpoint_every=5)
        resumed = lanczos(op, v0, k=2, tol=1e-12,
                          checkpoint_dir=tmp_path, resume=True)
        np.testing.assert_array_equal(
            resumed.eigenvalues, reference.eigenvalues
        )
        assert resumed.n_iterations == reference.n_iterations

    def test_resume_without_dir_rejected(self):
        basis = SpinBasis(8, hamming_weight=4)
        op = repro.Operator(repro.heisenberg_chain(8), basis)
        v0 = np.ones(basis.dim)
        with pytest.raises(CheckpointError, match="checkpoint_dir"):
            lanczos(op, v0, k=1, resume=True, raise_on_no_convergence=False)

    def test_resume_from_empty_dir_is_cold_start(self, tmp_path):
        basis = SpinBasis(10, hamming_weight=5)
        op = repro.Operator(repro.heisenberg_chain(10), basis)
        v0 = np.random.default_rng(1).standard_normal(basis.dim)
        cold = lanczos(op, v0, k=1, tol=1e-10)
        warm = lanczos(op, v0, k=1, tol=1e-10,
                       checkpoint_dir=tmp_path, resume=True)
        np.testing.assert_array_equal(cold.eigenvalues, warm.eigenvalues)

    def test_checkpoints_pruned_to_keep(self, tmp_path):
        for iteration in range(1, 6):
            write_checkpoint(
                tmp_path, iteration,
                arrays={"x": np.arange(3.0) * iteration},
            )
        names = [p.name for p in list_checkpoints(tmp_path)]
        assert names == ["ckpt-000004", "ckpt-000005"]

    def test_corrupt_newest_falls_back_to_previous(self, tmp_path):
        tele = Telemetry.enabled()
        with telemetry.use(tele):
            write_checkpoint(tmp_path, 1, arrays={"x": np.arange(4.0)})
            write_checkpoint(tmp_path, 2, arrays={"x": np.arange(4.0) * 2})
            newest = latest_checkpoint(tmp_path)
            blob = (newest / "state.npz").read_bytes()
            (newest / "state.npz").write_bytes(
                blob[:-4] + bytes(4 * [0x55])
            )
            state = load_latest_checkpoint(tmp_path)
        assert state.iteration == 1
        snap = tele.metrics.snapshot()
        assert snap.counter_total("checkpoint.skipped_corrupt") == 1

    @pytest.mark.parametrize(
        "malformed",
        [
            lambda manifest: {k: v for k, v in manifest.items() if k != "files"},
            lambda manifest: [manifest],
            lambda manifest: {**manifest, "iteration": "x"},
            lambda manifest: {**manifest, "iteration": -1},
            lambda manifest: {**manifest, "meta": [["seed", 3]]},
        ],
        ids=["no-files", "a-list", "iteration-not-int", "iteration-negative",
             "meta-not-object"],
    )
    def test_malformed_newest_manifest_falls_back_to_previous(
        self, tmp_path, malformed
    ):
        tele = Telemetry.enabled()
        with telemetry.use(tele):
            write_checkpoint(tmp_path, 1, arrays={"x": np.arange(4.0)})
            write_checkpoint(tmp_path, 2, arrays={"x": np.arange(4.0) * 2})
            path = latest_checkpoint(tmp_path) / "manifest.json"
            path.write_text(json.dumps(malformed(json.loads(path.read_text()))))
            with pytest.raises(CheckpointError, match="manifest"):
                load_checkpoint(path.parent)
            state = load_latest_checkpoint(tmp_path)
        assert state.iteration == 1
        np.testing.assert_array_equal(state.arrays["x"], np.arange(4.0))
        snap = tele.metrics.snapshot()
        assert snap.counter_total("checkpoint.skipped_corrupt") == 1

    def test_all_corrupt_raises(self, tmp_path):
        write_checkpoint(tmp_path, 1, arrays={"x": np.arange(4.0)})
        newest = latest_checkpoint(tmp_path)
        (newest / "manifest.json").write_text("{ not json")
        with pytest.raises(CheckpointError, match="no loadable checkpoint"):
            load_latest_checkpoint(tmp_path)

    def test_missing_file_detected(self, tmp_path):
        write_checkpoint(tmp_path, 3, arrays={"x": np.arange(4.0)})
        newest = latest_checkpoint(tmp_path)
        (newest / "state.npz").unlink()
        with pytest.raises(CheckpointError, match="no loadable checkpoint"):
            load_latest_checkpoint(tmp_path)

    def test_distributed_vector_chunk_corruption_detected(
        self, setup, tmp_path
    ):
        from repro.io.vectors import (
            load_distributed_vector,
            save_distributed_vector,
        )

        dbasis, _, x = setup
        save_distributed_vector(tmp_path, x)
        chunk = next(tmp_path.glob("*.npy"))
        blob = bytearray(chunk.read_bytes())
        blob[-1] ^= 0xFF
        chunk.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="CRC32"):
            load_distributed_vector(tmp_path, dbasis)


class TestThreadsCheckpointResume:
    """Checkpoint/resume driven through the real threads backend: a
    seeded crash schedule kills the worker mid-Lanczos, and the resumed
    run reproduces an uninterrupted sim run bit-for-bit.

    Single-locale on purpose: the shared-memory matvec is sequential, so
    its arithmetic is identical on both backends and bit-identicality is
    well-defined (the multi-locale threads scatter-add is exact only to
    rounding because accumulation order depends on thread scheduling).
    """

    @staticmethod
    def _make(backend):
        cluster = Cluster(1, laptop_machine(cores=4), backend=backend)
        dbasis, _ = enumerate_states(
            cluster, SpinBasis(10, hamming_weight=5),
            use_weight_shortcut=True,
        )
        return dbasis

    def test_threads_crash_mid_lanczos_resume_matches_sim(self, tmp_path):
        expr = repro.heisenberg_chain(10)
        sim_basis = self._make("sim")
        reference = lanczos(
            DistributedOperator(expr, sim_basis, method="pc").matvec,
            DistributedVector.full_random(sim_basis, seed=3),
            k=1, tol=1e-11, space=DistributedVectorSpace(sim_basis),
        )

        tbasis = self._make("threads")
        tspace = DistributedVectorSpace(tbasis)
        tv0 = DistributedVector.full_random(tbasis, seed=3)
        armed = _ArmedCrash(
            DistributedOperator(expr, tbasis, method="pc"),
            plan=FaultPlan(seed=9, crashes={0: 1e-6}),
            survive=12,
        )
        ckpt = tmp_path / "krylov"
        with pytest.raises(FaultError):
            lanczos(armed.matvec, tv0, k=1, tol=1e-11, space=tspace,
                    checkpoint_dir=ckpt, checkpoint_every=4)
        assert armed.calls > 12, "crash must land mid-run, not at startup"
        assert list_checkpoints(ckpt), "checkpoints must predate the crash"

        resumed = lanczos(
            DistributedOperator(expr, tbasis, method="pc").matvec,
            tv0, k=1, tol=1e-11, space=tspace,
            checkpoint_dir=ckpt, resume=True,
        )
        np.testing.assert_array_equal(
            resumed.eigenvalues, reference.eigenvalues
        )
        assert resumed.n_iterations == reference.n_iterations
        np.testing.assert_array_equal(resumed.alphas, reference.alphas)
        np.testing.assert_array_equal(resumed.betas, reference.betas)


class TestConcurrentCheckpointWriters:
    """Checkpointing one directory from several threads at once: the
    ``.lock`` file serializes writers, and readers treat a checkpoint
    pruned out from under them as skippable, never as a crash."""

    def test_concurrent_writers_with_pruning(self, tmp_path):
        from repro.resilience import load_latest_checkpoint

        errors = []
        stop = threading.Event()

        def writer(offset):
            try:
                for i in range(8):
                    write_checkpoint(
                        tmp_path,
                        offset * 100 + i,
                        arrays={"x": np.full(64, float(offset * 100 + i))},
                        meta={"writer": offset},
                        keep=2,
                    )
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        def reader():
            while not stop.is_set():
                try:
                    state = load_latest_checkpoint(tmp_path)
                    assert float(state.arrays["x"][0]) == state.iteration
                except CheckpointError:
                    pass  # nothing committed yet / everything mid-prune
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(4)
        ] + [threading.Thread(target=reader)]
        for t in threads:
            t.start()
        for t in threads[:-1]:
            t.join()
        stop.set()
        threads[-1].join()
        assert not errors
        # Every writer pruned to keep=2 on its way out, under the lock:
        # exactly the two newest checkpoints survive, both loadable.
        names = [p.name for p in list_checkpoints(tmp_path)]
        assert len(names) == 2
        state = load_latest_checkpoint(tmp_path)
        assert float(state.arrays["x"][0]) == state.iteration

    def test_vanished_checkpoint_is_skipped_not_fatal(self, tmp_path):
        """A checkpoint deleted between the manifest read and the file
        hashing (a concurrent keep-N prune) reads as corrupt."""
        from repro.resilience import load_checkpoint

        write_checkpoint(tmp_path, 1, arrays={"x": np.arange(4.0)})
        write_checkpoint(tmp_path, 2, arrays={"x": np.arange(4.0) * 2})
        newest = latest_checkpoint(tmp_path)
        # Keep the manifest but remove a payload mid-"load": the CRC pass
        # hits FileNotFoundError, which must surface as CheckpointError.
        (newest / "state.npz").unlink()
        with pytest.raises(CheckpointError):
            load_checkpoint(newest)
        state = load_latest_checkpoint(tmp_path)
        assert state.iteration == 1


class TestTypedErrors:
    def test_convergence_error_carries_diagnostics(self):
        basis = SpinBasis(12, hamming_weight=6)
        op = repro.Operator(repro.heisenberg_chain(12), basis)
        v0 = np.random.default_rng(2).standard_normal(basis.dim)
        with pytest.raises(ConvergenceError) as excinfo:
            lanczos(op, v0, k=1, tol=1e-14, max_iter=5)
        assert excinfo.value.n_iterations == 5
        assert excinfo.value.last_residual > 0

    def test_fault_error_is_repro_error(self):
        from repro.errors import DeadlockError, ReproError

        assert issubclass(FaultError, ReproError)
        assert issubclass(DeadlockError, FaultError)
        assert issubclass(DeadlockError, RuntimeError)


class TestConfigIntegration:
    def test_faulty_cluster_section_recovers(self):
        spec = {
            "n_sites": 10,
            "hamiltonian": {"model": "heisenberg_chain"},
            "basis": {"hamming_weight": 5},
            "solver": {"k": 1, "tol": 1e-10},
            "cluster": {
                "n_locales": 4,
                "machine": "laptop",
                "faults": {"seed": 3, "drop": 0.02, "duplicate": 0.02,
                           "corrupt": 0.01, "delay": 0.05,
                           "max_delay": 1e-4},
            },
        }
        faulty = repro.run_simulation(repro.load_simulation(spec), seed=1)
        serial = repro.run_simulation(
            repro.load_simulation(
                {k: v for k, v in spec.items() if k != "cluster"}
            ),
            seed=1,
        )
        assert faulty["converged"]
        assert faulty["eigenvalues"][0] == pytest.approx(
            serial["eigenvalues"][0], abs=1e-9
        )

    def test_checkpoint_section_and_resume(self, tmp_path):
        spec = {
            "n_sites": 10,
            "hamiltonian": {"model": "heisenberg_chain"},
            "basis": {"hamming_weight": 5},
            "solver": {
                "k": 1, "tol": 1e-10,
                "checkpoint": {"dir": str(tmp_path), "every": 5},
            },
        }
        first = repro.run_simulation(repro.load_simulation(spec), seed=1)
        assert list_checkpoints(tmp_path)
        spec["solver"]["checkpoint"]["resume"] = True
        resumed = repro.run_simulation(repro.load_simulation(spec), seed=1)
        assert resumed["eigenvalues"] == first["eigenvalues"]

    def test_cli_faults_flag(self, tmp_path, capsys):
        from repro.config import main

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"seed": 3, "drop": 0.02}))
        input_path = tmp_path / "input.json"
        input_path.write_text(json.dumps({
            "n_sites": 8,
            "hamiltonian": {"model": "heisenberg_chain"},
            "basis": {"hamming_weight": 4},
            "solver": {"k": 1, "tol": 1e-10},
            "cluster": {"n_locales": 2, "machine": "laptop"},
        }))
        main([str(input_path), "--faults", str(plan_path)])
        out = json.loads(capsys.readouterr().out)
        assert out["converged"]
