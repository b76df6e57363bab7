"""Tests for checkpoint/restart of the Krylov solvers.

The contract under test (docs/RESILIENCE.md): a solver killed
mid-iteration and resumed from its checkpoint continues bit-for-bit
identically; corrupted state on disk is detected, never silently loaded;
and a failure is a typed error.
"""

import json
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
from repro.distributed.vector import DistributedVectorSpace
from repro.errors import (
    BackendError,
    CheckpointError,
    ConvergenceError,
)
from repro.linalg.lanczos import lanczos, lanczos_distributed
from repro.resilience import (
    list_checkpoints,
    load_checkpoint,
    load_latest_checkpoint,
    write_checkpoint,
)
from repro.runtime import Cluster, laptop_machine
from repro.telemetry import Telemetry


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


class _KillSwitch:
    """Wraps an operator; raises ``error`` after a set number of matvecs
    (SIGKILL stand-in for 'the job died mid-iteration')."""

    def __init__(self, operator, survive: int, error=KeyboardInterrupt) -> None:
        self.operator = operator
        self.survive = survive
        self.error = error
        self.calls = 0

    def matvec(self, v):
        self.calls += 1
        if self.calls > self.survive:
            raise self.error("killed mid-iteration")
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

    def test_k1_checkpoint_holds_three_vectors(self, tmp_path):
        basis = SpinBasis(12, hamming_weight=6)
        op = repro.Operator(repro.heisenberg_chain(12), basis)
        v0 = np.random.default_rng(0).standard_normal(basis.dim)
        res = lanczos(op, v0, k=1, tol=1e-12, checkpoint_dir=tmp_path,
                      checkpoint_every=5, checkpoint_keep=10)
        paths = list_checkpoints(tmp_path)
        assert len(paths) == res.n_iterations // 5 >= 3
        space = repro.linalg.NumpyVectorSpace()
        for path in paths:
            assert len(load_checkpoint(path, space=space).vectors) == 3

    @pytest.mark.parametrize(
        "written, resumed, match",
        [
            (1, 2, "holds k=1 and 3 vectors; this call has k=2 and needs 11"),
            (2, 1, "holds k=2 and 11 vectors; this call has k=1 and needs 3"),
        ],
    )
    def test_resume_into_another_k_rejected(
        self, tmp_path, written, resumed, match
    ):
        basis = SpinBasis(10, hamming_weight=5)
        op = repro.Operator(repro.heisenberg_chain(10), basis)
        v0 = np.random.default_rng(0).standard_normal(basis.dim)
        lanczos(op, v0, k=written, max_iter=10, checkpoint_dir=tmp_path,
                checkpoint_every=10, raise_on_no_convergence=False)
        with pytest.raises(CheckpointError, match=match):
            lanczos(op, v0, k=resumed, checkpoint_dir=tmp_path, resume=True)

    def test_resume_rejects_a_vector_count_that_does_not_fit(self, tmp_path):
        basis = SpinBasis(8, hamming_weight=4)
        space = repro.linalg.NumpyVectorSpace()
        write_checkpoint(
            tmp_path, 4, arrays={"alphas": np.zeros(4), "betas": np.ones(4)},
            meta={"solver": "lanczos", "k": 1, "tol": 1e-10},
            vectors=[np.ones(basis.dim)] * 5, space=space,
        )
        op = repro.Operator(repro.heisenberg_chain(8), basis)
        with pytest.raises(CheckpointError, match="5 vectors.*needs 3"):
            lanczos(op, np.ones(basis.dim), k=1, checkpoint_dir=tmp_path,
                    resume=True)

    def test_second_pass_starts_from_the_checkpoint(self, tmp_path):
        """The resumed eigenvector is the uninterrupted one bit for bit,
        whatever ``v0`` the resuming call passes."""
        basis = SpinBasis(12, hamming_weight=6)
        op = repro.Operator(repro.heisenberg_chain(12), basis)
        v0 = np.random.default_rng(0).standard_normal(basis.dim)
        reference = lanczos(op, v0, k=1, tol=1e-12, compute_eigenvectors=True)
        killed = _KillSwitch(op, survive=20)
        with pytest.raises(KeyboardInterrupt):
            lanczos(killed.matvec, v0, k=1, tol=1e-12,
                    checkpoint_dir=tmp_path, checkpoint_every=5)
        resumed = lanczos(op, np.ones(basis.dim), k=1, tol=1e-12,
                          checkpoint_dir=tmp_path, resume=True,
                          compute_eigenvectors=True)
        assert resumed.n_iterations == reference.n_iterations
        np.testing.assert_array_equal(
            resumed.eigenvectors[0], reference.eigenvectors[0]
        )

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
            newest = list_checkpoints(tmp_path)[-1]
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
            path = list_checkpoints(tmp_path)[-1] / "manifest.json"
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
        newest = list_checkpoints(tmp_path)[-1]
        (newest / "manifest.json").write_text("{ not json")
        with pytest.raises(CheckpointError, match="no loadable checkpoint"):
            load_latest_checkpoint(tmp_path)

    def test_missing_file_detected(self, tmp_path):
        write_checkpoint(tmp_path, 3, arrays={"x": np.arange(4.0)})
        newest = list_checkpoints(tmp_path)[-1]
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
    """Checkpoint/resume driven through the real threads backend: the
    run fails mid-Lanczos with the backend's typed error, and the resumed
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
        armed = _KillSwitch(
            DistributedOperator(expr, tbasis, method="pc"),
            survive=12, error=BackendError,
        )
        ckpt = tmp_path / "krylov"
        with pytest.raises(BackendError):
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
        newest = list_checkpoints(tmp_path)[-1]
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

    def test_deadlock_error_is_a_backend_error(self):
        from repro.errors import DeadlockError, ReproError

        assert issubclass(BackendError, ReproError)
        assert issubclass(DeadlockError, BackendError)
        assert issubclass(DeadlockError, RuntimeError)


class TestConfigIntegration:
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
