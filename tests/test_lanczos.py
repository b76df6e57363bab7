"""Tests for the Lanczos eigensolver and its distributed variant."""

import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import repro
from repro.basis import SpinBasis, SymmetricBasis
from repro.errors import ConfigError, ConvergenceError
from repro.linalg import lanczos, lanczos_distributed
from repro.symmetry import chain_symmetries


@pytest.fixture
def operator():
    group = chain_symmetries(14, momentum=0, parity=0, inversion=0)
    basis = SymmetricBasis(group, hamming_weight=7)
    return repro.Operator(repro.heisenberg_chain(14), basis)


class TestEigenvalues:
    def test_lowest_eigenvalue_matches_dense(self, operator, rng):
        ref = np.linalg.eigvalsh(operator.to_dense())[0]
        res = lanczos(
            operator.matvec, rng.standard_normal(operator.dim), k=1, tol=1e-12
        )
        assert res.eigenvalues[0] == pytest.approx(ref, abs=1e-9)
        assert res.converged

    def test_multiple_eigenvalues(self, operator, rng):
        ref = np.linalg.eigvalsh(operator.to_dense())[:4]
        res = lanczos(
            operator.matvec, rng.standard_normal(operator.dim), k=4, tol=1e-12
        )
        assert np.allclose(res.eigenvalues, ref, atol=1e-8)

    def test_matches_scipy_eigsh(self, operator, rng):
        ref = spla.eigsh(operator.as_linear_operator(), k=2, which="SA")[0]
        res = lanczos(
            operator.matvec, rng.standard_normal(operator.dim), k=2, tol=1e-12
        )
        assert np.allclose(np.sort(res.eigenvalues), np.sort(ref), atol=1e-8)

    def test_complex_sector(self, rng):
        group = chain_symmetries(10, momentum=3, parity=None, inversion=None)
        basis = SymmetricBasis(group, hamming_weight=5)
        op = repro.Operator(repro.heisenberg_chain(10), basis)
        ref = np.linalg.eigvalsh(op.to_dense())[0]
        v0 = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        res = lanczos(op.matvec, v0, k=1, tol=1e-12)
        assert res.eigenvalues[0] == pytest.approx(ref, abs=1e-9)

    def test_diagonal_matrix_exact(self):
        diag = np.array([3.0, -1.0, 5.0, 0.5])
        res = lanczos(lambda v: diag * v, np.ones(4), k=2, tol=1e-13)
        assert np.allclose(np.sort(res.eigenvalues), [-1.0, 0.5])


class TestDegenerateLevels:
    """The 12-site chain's U(1) sector has an exact 2-fold degeneracy among
    its lowest five levels (a momentum +-k pair)."""

    @pytest.fixture(scope="class")
    def chain12(self):
        op = repro.Operator(
            repro.heisenberg_chain(12), SpinBasis(12, hamming_weight=6)
        )
        return op, np.linalg.eigvalsh(op.to_dense())

    def test_lanczos_misses_degenerate_copy(self, chain12):
        # Lanczos from one vector returns only one Ritz value per
        # degenerate pair, so its 5th value is not the true 5th eigenvalue.
        op, dense_spectrum = chain12
        res = lanczos(
            op.matvec,
            np.random.default_rng(0).standard_normal(op.dim),
            k=5,
            tol=1e-10,
            max_iter=300,
        )
        assert res.eigenvalues[4] != pytest.approx(dense_spectrum[4], abs=1e-6)

    def test_lobpcg_resolves_exact_degeneracy(self, chain12):
        # A block method on the LinearOperator view finds both copies.
        op, dense_spectrum = chain12
        assert dense_spectrum[3] == pytest.approx(dense_spectrum[4], abs=1e-10)
        x = np.random.default_rng(0).standard_normal((op.dim, 7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # lobpcg warns when unconverged
            evals, _ = spla.lobpcg(
                op.as_linear_operator(), x, largest=False, tol=1e-8,
                maxiter=200,
            )
        np.testing.assert_allclose(
            np.sort(evals)[:5], dense_spectrum[:5], rtol=0, atol=1e-10
        )


class TestEigenvectors:
    def test_eigenvector_residual(self, operator, rng):
        res = lanczos(
            operator.matvec,
            rng.standard_normal(operator.dim),
            k=2,
            tol=1e-12,
            compute_eigenvectors=True,
        )
        for value, vector in zip(res.eigenvalues, res.eigenvectors):
            residual = operator.matvec(vector) - value * vector
            assert np.linalg.norm(residual) < 1e-7

    def test_eigenvectors_orthonormal(self, operator, rng):
        res = lanczos(
            operator.matvec,
            rng.standard_normal(operator.dim),
            k=3,
            tol=1e-12,
            compute_eigenvectors=True,
        )
        v = np.stack(res.eigenvectors, axis=1)
        assert np.allclose(v.T @ v, np.eye(3), atol=1e-8)


class TestRobustness:
    def test_ghost_eigenvalues_without_reorthogonalization(self, rng):
        # Without reorthogonalization, converged Ritz values reappear as
        # spurious duplicates ("ghosts") once orthogonality degrades; the
        # reorthogonalized run keeps the second eigenvalue distinct.
        rng_local = np.random.default_rng(0)
        diag = np.concatenate([[-10.0], np.linspace(0, 1, 399)])
        matvec = lambda v: diag * v  # noqa: E731
        v0 = rng_local.standard_normal(400)
        clean = lanczos(
            matvec, v0, k=2, tol=1e-12, max_iter=250, reorthogonalize=True
        )
        dirty = lanczos(
            matvec,
            v0,
            k=2,
            tol=1e-12,
            max_iter=250,
            reorthogonalize=False,
            raise_on_no_convergence=False,
        )
        gap_clean = clean.eigenvalues[1] - clean.eigenvalues[0]
        gap_dirty = dirty.eigenvalues[1] - dirty.eigenvalues[0]
        # the dirty run collapses the gap (ghost copy of -10 appears)
        assert gap_clean > 5.0
        assert gap_dirty < 1.0

    def test_zero_start_vector_rejected(self, operator):
        with pytest.raises(ConfigError):
            lanczos(operator.matvec, np.zeros(operator.dim), k=1)

    def test_convergence_error(self, operator, rng):
        with pytest.raises(ConvergenceError):
            lanczos(
                operator.matvec,
                rng.standard_normal(operator.dim),
                k=1,
                tol=1e-14,
                max_iter=3,
            )

    def test_no_raise_flag(self, operator, rng):
        res = lanczos(
            operator.matvec,
            rng.standard_normal(operator.dim),
            k=1,
            tol=1e-14,
            max_iter=5,
            raise_on_no_convergence=False,
        )
        assert not res.converged

    def test_invariant_subspace_early_exit(self):
        # Start exactly inside a 2-dimensional invariant subspace.
        diag = np.array([1.0, 2.0, 3.0, 4.0])
        v0 = np.array([1.0, 1.0, 0.0, 0.0])
        res = lanczos(lambda v: diag * v, v0, k=2, tol=1e-12)
        assert np.allclose(np.sort(res.eigenvalues), [1.0, 2.0])

    def test_k_larger_than_reachable_space(self):
        diag = np.array([1.0, 2.0])
        with pytest.raises(ConvergenceError):
            lanczos(lambda v: diag * v, np.array([1.0, 0.0]), k=2, max_iter=50)

    @pytest.mark.parametrize(
        "driver, argument, value",
        [
            ("lanczos", "k", 0),
            pytest.param("lanczos", "v0", np.zeros(8), id="lanczos-v0-zero"),
            pytest.param(
                "lanczos", "v0", np.r_[1.0, np.nan, np.zeros(6)],
                id="lanczos-v0-nan",
            ),
            pytest.param(
                "lanczos", "v0", np.r_[np.inf, np.zeros(7)], id="lanczos-v0-inf"
            ),
            ("ftlm_thermal", "n_samples", 0),
            ("ftlm_thermal", "krylov_dim", 0),
            ("ftlm_thermal", "temperatures", np.nan),
            ("ftlm_thermal", "temperatures", 0.0),
            ("ftlm_thermal", "temperatures", -1.0),
            ("ftlm_thermal", "dim", 0),
            ("ftlm_thermal", "dim", -5),
            ("ftlm_thermal", "dim", 2.5),
            ("spectral_function", "krylov_dim", 0),
            ("expm_krylov", "krylov_dim", 0),
            ("expm_krylov", "tol", -1.0),
            ("expm_krylov", "tol", np.nan),
        ],
    )
    def test_krylov_drivers_reject_what_they_cannot_use(
        self, driver, argument, value
    ):
        """Before the first product: ``dim`` 0, -5 or 2.5 gave a partition
        function of 0, -11.7 or 5.8, a negative or NaN ``tol`` ran
        silently, and a NaN in ``v0`` failed inside
        SciPy after the first product."""
        calls = []
        diag = np.linspace(-1.0, 1.0, 8)
        matvec = lambda v: calls.append(v) or diag * v  # noqa: E731
        kwargs = {"v0": np.ones(8), argument: value}
        v0 = kwargs.pop("v0")  # positional in every driver
        call = {
            "lanczos": lambda: lanczos(matvec, v0, **kwargs),
            "ftlm_thermal": lambda: repro.linalg.ftlm_thermal(
                matvec, v0, **{"temperatures": [1.0], **kwargs}
            ),
            "spectral_function": lambda: repro.linalg.spectral_function(
                matvec, v0, **kwargs
            ),
            "expm_krylov": lambda: repro.linalg.expm_krylov(
                matvec, v0, -0.1, **kwargs
            ),
        }[driver]
        with pytest.raises(ConfigError, match=rf"^{argument} must be"):
            call()
        assert not calls

    @pytest.mark.parametrize(
        "argument, value",
        [
            ("tol", -1.0),
            ("tol", np.nan),
            ("tol", np.inf),
            ("max_iter", 0),
            ("max_iter", -3),
            ("k", 2.5),
            ("checkpoint_every", 0),
            ("checkpoint_every", -1),
            ("checkpoint_keep", 0),
        ],
    )
    def test_rejects_a_bad_budget_or_tolerance(self, argument, value):
        """Before the first product: a negative or NaN ``tol`` would run to
        Krylov exhaustion, ``max_iter < 1`` end in a misleading
        ``ConvergenceError``, ``checkpoint_every=0`` divide by zero
        mid-solve, ``-1`` checkpoint every iteration, ``keep=0`` keep every
        checkpoint, and ``k=2.5`` raise ``TypeError``."""
        calls = []
        diag = np.linspace(-1.0, 1.0, 8)
        matvec = lambda v: calls.append(v) or diag * v  # noqa: E731
        with pytest.raises(ConfigError, match=rf"^{argument} must be"):
            lanczos(matvec, np.ones(8), **{argument: value})
        assert not calls

    def test_zero_tolerance_stays_allowed(self):
        diag = np.linspace(-1.0, 1.0, 8)
        res = lanczos(lambda v: diag * v, np.ones(8), tol=0.0, max_iter=8)
        assert res.eigenvalues[0] == pytest.approx(-1.0)

    def test_infinite_temperature_stays_allowed(self):
        diag = np.linspace(-1.0, 1.0, 8)
        est = repro.linalg.ftlm_thermal(
            lambda v: diag * v, np.ones(8), [np.inf], krylov_dim=8, n_samples=2
        )
        assert est.energy[0] == pytest.approx(0.0, abs=0.5)
        assert np.isfinite(est.partition_function[0])


class TestDistributed:
    def test_distributed_matches_serial(self, rng):
        group = chain_symmetries(12, momentum=0, parity=0, inversion=0)
        serial = SymmetricBasis(group, hamming_weight=6)
        ref = np.linalg.eigvalsh(
            repro.Operator(repro.heisenberg_chain(12), serial).to_dense()
        )[:2]
        cluster = repro.Cluster(3, repro.laptop_machine(cores=4))
        template = SymmetricBasis(group, hamming_weight=6, build=False)
        dbasis, _ = repro.enumerate_states(cluster, template)
        dop = repro.DistributedOperator(
            repro.heisenberg_chain(12), dbasis, batch_size=128
        )
        res, sim_time = lanczos_distributed(dop, k=2, tol=1e-10)
        assert np.allclose(res.eigenvalues, ref, atol=1e-8)
        assert sim_time > 0

    def test_distributed_u1(self):
        serial = SpinBasis(10, hamming_weight=5)
        ref = np.linalg.eigvalsh(
            repro.Operator(repro.heisenberg_chain(10), serial).to_dense()
        )[0]
        cluster = repro.Cluster(2, repro.laptop_machine(cores=4))
        dbasis, _ = repro.enumerate_states(
            cluster, SpinBasis(10, hamming_weight=5)
        )
        dop = repro.DistributedOperator(repro.heisenberg_chain(10), dbasis)
        res, _ = lanczos_distributed(dop, k=1, tol=1e-10)
        assert res.eigenvalues[0] == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize("kwargs", [{"tol": np.nan}, {"max_iter": 0}])
    def test_forwards_the_argument_checks(self, kwargs):
        cluster = repro.Cluster(2, repro.laptop_machine(cores=2))
        dbasis, _ = repro.enumerate_states(
            cluster, SpinBasis(8, hamming_weight=4)
        )
        dop = repro.DistributedOperator(repro.heisenberg_chain(8), dbasis)
        with pytest.raises(ConfigError):
            lanczos_distributed(dop, k=1, **kwargs)
        assert dop.total_sim_time == 0


class Forwarding:
    """A proxy that forwards every attribute to the space it wraps — what
    ``benchmarks/e2e/layers.py::TracedSpace`` is — and keeps the blocks the
    solver asked for."""

    def __init__(self, space) -> None:
        self._space = space
        self.blocks: list = []

    def __getattr__(self, name: str):
        attr = getattr(self._space, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            out = attr(*args, **kwargs)
            if name == "block":
                self.blocks.append(out)
            return out

        return call


def gram_defect(space, block, m: int) -> float:
    """``max |V†V - I|`` over the first ``m`` rows of a Krylov block."""
    rows = [space.row(block, j) for j in range(m)]
    gram = np.array([[space.dot(u, v) for v in rows] for u in rows])
    return float(np.abs(gram - np.eye(m)).max())


def sector(n: int, momentum: int, real: bool):
    """(expression, basis template) of a real or a complex chain sector."""
    group = (
        chain_symmetries(n, momentum=0, parity=0, inversion=0)
        if real
        else chain_symmetries(n, momentum, None, None)
    )
    return repro.heisenberg_chain(n), group


class TestKrylovBlock:
    @pytest.mark.parametrize(
        "real_sector, real_v0", [(True, True), (False, False), (False, True)]
    )
    def test_numpy_basis_orthonormal_after_convergence(
        self, rng, real_sector, real_v0
    ):
        expr, group = sector(14, 3, real_sector)
        op = repro.Operator(expr, SymmetricBasis(group, hamming_weight=7))
        v0 = rng.standard_normal(op.dim)
        if not real_v0:
            v0 = v0 + 1j * rng.standard_normal(op.dim)
        space = Forwarding(repro.linalg.NumpyVectorSpace())
        res = lanczos(op, v0, k=2, tol=1e-12, space=space)
        assert res.converged
        (block,) = space.blocks
        assert block.arrays[0].dtype == op.dtype
        assert gram_defect(space, block, res.n_iterations) <= 1e-12

    @pytest.mark.parametrize(
        "backend, n_locales", [("sim", 1), ("sim", 3), ("sim", 4), ("threads", 2)]
    )
    @pytest.mark.parametrize("real_sector", [True, False])
    def test_distributed_basis_orthonormal_after_convergence(
        self, backend, n_locales, real_sector
    ):
        expr, group = sector(12, 2, real_sector)
        cluster = repro.Cluster(
            n_locales, repro.laptop_machine(cores=2), backend=backend
        )
        dbasis, _ = repro.enumerate_states(
            cluster, SymmetricBasis(group, hamming_weight=6, build=False)
        )
        dop = repro.DistributedOperator(expr, dbasis)
        space = Forwarding(repro.DistributedVectorSpace(dbasis))
        # A real start vector: on the complex sector the block turns
        # complex with the first matvec result.
        v0 = repro.DistributedVector.full_random(dbasis, seed=5, dtype=float)
        res = lanczos(dop, v0, k=1, tol=1e-11, space=space)
        assert res.converged
        (block,) = space.blocks
        assert len(block.arrays) == n_locales
        assert block.arrays[0].dtype == dop.dtype
        assert gram_defect(space, block, res.n_iterations) <= 1e-12

    def test_forwarding_proxy_runs_the_same_path(self, operator, rng):
        v0 = rng.standard_normal(operator.dim)
        direct = lanczos(operator, v0, k=2, tol=1e-12)
        proxied = lanczos(
            operator,
            v0,
            k=2,
            tol=1e-12,
            space=Forwarding(repro.linalg.NumpyVectorSpace()),
        )
        assert proxied.n_iterations == direct.n_iterations
        np.testing.assert_array_equal(proxied.alphas, direct.alphas)
        np.testing.assert_array_equal(proxied.betas, direct.betas)
        np.testing.assert_array_equal(proxied.eigenvalues, direct.eigenvalues)

    def test_block_grows_without_changing_the_result(self, monkeypatch):
        from repro.linalg import spaces

        diag = np.concatenate([[-10.0], np.linspace(0, 1, 399)])
        v0 = np.random.default_rng(0).standard_normal(400)

        def solve():
            space = Forwarding(spaces.NumpyVectorSpace())
            res = lanczos(
                lambda v: diag * v, v0, k=2, tol=1e-12, max_iter=250,
                space=space, compute_eigenvectors=True,
            )
            return res, space.blocks[0]

        grown, block = solve()
        assert grown.n_iterations > spaces.BLOCK_ROWS
        assert len(block.arrays[0]) >= 2 * spaces.BLOCK_ROWS
        monkeypatch.setattr(spaces, "BLOCK_ROWS", 512)
        roomy, block = solve()
        assert len(block.arrays[0]) == 512
        assert grown.n_iterations == roomy.n_iterations
        np.testing.assert_array_equal(grown.alphas, roomy.alphas)
        np.testing.assert_array_equal(grown.betas, roomy.betas)
        for u, v in zip(grown.eigenvectors, roomy.eigenvectors):
            np.testing.assert_array_equal(u, v)


class TestStepShape:
    """One step streams the block once: the three-term recurrence over the
    last two rows, then (with ``reorthogonalize``) one full pass."""

    @staticmethod
    def spy(monkeypatch, space) -> list:
        """``(block.m, start)`` of every ``space.project`` call."""
        calls, project = [], space.project

        def spied(block, w, start=0):
            calls.append((block.m, start))
            return project(block, w, start)

        monkeypatch.setattr(space, "project", spied)
        return calls

    @pytest.mark.parametrize("reorthogonalize", [True, False])
    @pytest.mark.parametrize("distributed", [False, True])
    def test_local_pass_then_one_full_pass(
        self, monkeypatch, rng, distributed, reorthogonalize
    ):
        expr, group = sector(12, 0, real=True)
        if distributed:
            dbasis, _ = repro.enumerate_states(
                repro.Cluster(3, repro.laptop_machine(cores=2)),
                SymmetricBasis(group, hamming_weight=6, build=False),
            )
            op = repro.DistributedOperator(expr, dbasis)
            space = repro.DistributedVectorSpace(dbasis)
            v0 = repro.DistributedVector.full_random(dbasis, seed=5)
        else:
            op = repro.Operator(expr, SymmetricBasis(group, hamming_weight=6))
            space = repro.linalg.NumpyVectorSpace()
            v0 = rng.standard_normal(op.dim)
        calls = self.spy(monkeypatch, space)
        res = lanczos(
            op, v0, k=1, tol=1e-10, space=space,
            reorthogonalize=reorthogonalize, raise_on_no_convergence=False,
        )
        expected = []
        for m in range(1, res.n_iterations + 1):
            expected.append((m, max(m - 2, 0)))
            if reorthogonalize:
                expected.append((m, 0))
        assert res.n_iterations > 2 and calls == expected

    def test_orthonormal_on_the_ghost_spectrum(self):
        # Where one full pass on the raw product loses orthogonality
        # (|V†V - I| ~ 1e-4 after 139 iterations): the local pass removes
        # the large components first.
        diag = np.concatenate([[-10.0], np.linspace(0, 1, 399)])
        v0 = np.random.default_rng(0).standard_normal(400)
        space = Forwarding(repro.linalg.NumpyVectorSpace())
        res = lanczos(
            lambda v: diag * v, v0, k=2, tol=1e-12, max_iter=250, space=space
        )
        assert res.n_iterations > 100
        (block,) = space.blocks
        assert gram_defect(space, block, res.n_iterations) <= 1e-12


class TestComplexSectorRealStart:
    """Both failed before the Krylov block: a real ``v0`` on a complex
    momentum sector."""

    def test_dot_keeps_the_imaginary_part_of_either_operand(self):
        space = repro.linalg.NumpyVectorSpace()
        x, y = np.array([1.0, 2.0]), np.array([1j, 1 + 2j])
        assert space.dot(x, y) == np.vdot(x, y) == 2 + 5j
        assert space.dot(y, x) == np.vdot(y, x) == 2 - 5j
        assert isinstance(space.dot(x, x), float)

    def test_eigenvectors_from_a_real_start_vector(self, rng):
        basis = SymmetricBasis(
            chain_symmetries(16, 3, None, None), hamming_weight=8
        )
        op = repro.Operator(repro.heisenberg_chain(16), basis)
        assert op.dtype == np.complex128
        res = lanczos(
            op, rng.standard_normal(op.dim), k=1, tol=1e-12,
            compute_eigenvectors=True,
        )
        (vector,) = res.eigenvectors
        assert vector.dtype == np.complex128
        residual = op.matvec(vector) - res.eigenvalues[0] * vector
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(vector)
        reference = spla.eigsh(op.to_sparse(), k=1, which="SA")[0][0]
        assert res.eigenvalues[0] == pytest.approx(reference, abs=1e-9)
