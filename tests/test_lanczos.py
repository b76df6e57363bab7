"""Tests for the Lanczos eigensolver and its distributed variant."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.linalg import eigvalsh_tridiagonal

import repro
from repro.basis import SpinBasis, SymmetricBasis
from repro.errors import ConfigError, ConvergenceError
from repro.linalg import lanczos, lanczos_distributed
from repro.linalg.lanczos import lanczos_step
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
    def test_ghosts_at_k1_and_none_at_k2(self):
        # The bare recurrence (k = 1's) loses orthogonality once -10 has
        # converged, and its T then holds a spurious duplicate (a "ghost")
        # that would pose as the second level; a k = 1 solve stops at
        # convergence, before it, and k = 2 projects on the whole block.
        diag = np.concatenate([[-10.0], np.linspace(0, 1, 399)])
        matvec = lambda v: diag * v  # noqa: E731
        v0 = np.random.default_rng(0).standard_normal(400)
        space = repro.linalg.NumpyVectorSpace()
        block = space.block([v0 / np.linalg.norm(v0)], window=2)
        alphas, betas = [], []
        for _ in range(40):
            w = matvec(space.row(block, block.m - 1))
            alpha, beta = lanczos_step(space, block, w, reorthogonalize=False)
            alphas.append(alpha)
            betas.append(beta)
            space.scale(1.0 / beta, w)
            space.push(block, w)
        ritz = eigvalsh_tridiagonal(alphas, betas[:-1])
        assert np.sum(np.abs(ritz + 10.0) < 1e-8) >= 2
        lone = lanczos(matvec, v0, k=1, tol=0.0, max_iter=250)
        ritz = eigvalsh_tridiagonal(lone.alphas, lone.betas)  # n - 1 betas
        assert lone.converged and np.sum(np.abs(ritz + 10.0) < 1e-8) == 1
        assert lone.eigenvalues[0] == pytest.approx(-10.0, abs=1e-12)
        clean = lanczos(matvec, v0, k=2, tol=1e-12, max_iter=250)
        assert clean.eigenvalues[1] - clean.eigenvalues[0] > 5.0

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
        res = lanczos(dop, v0, k=2, tol=1e-11, space=space)
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


def spy(monkeypatch, space) -> tuple[list, list]:
    """``(block.m, start)`` of every ``space.project`` call, and the
    ``(block.m, allocated rows)`` after every ``space.push``."""
    projects, pushes = [], []
    project, push = space.project, space.push

    def spied_project(block, w, start=0):
        projects.append((block.m, start))
        return project(block, w, start)

    def spied_push(block, x):
        row = push(block, x)
        pushes.append((block.m, len(block.arrays[0])))
        return row

    monkeypatch.setattr(space, "project", spied_project)
    monkeypatch.setattr(space, "push", spied_push)
    return projects, pushes


def chain12(distributed: bool, backend: str = "sim"):
    """(operator, space, v0) of the real chain-12 sector."""
    expr, group = sector(12, 0, real=True)
    if not distributed:
        op = repro.Operator(expr, SymmetricBasis(group, hamming_weight=6))
        v0 = np.random.default_rng(5).standard_normal(op.dim)
        return op, repro.linalg.NumpyVectorSpace(), v0
    dbasis, _ = repro.enumerate_states(
        repro.Cluster(3, repro.laptop_machine(cores=2), backend=backend),
        SymmetricBasis(group, hamming_weight=6, build=False),
    )
    return (
        repro.DistributedOperator(expr, dbasis),
        repro.DistributedVectorSpace(dbasis),
        repro.DistributedVector.full_random(dbasis, seed=5),
    )


def even_spectrum(distributed: bool):
    """(matvec, space, v0) of ``diag(linspace(0, 1, 3432))``, on NumPy
    vectors or a three-locale basis: its lowest residual stays above
    rounding for 250 iterations, where 400 points converge by the 167th."""
    if not distributed:
        diag = np.linspace(0, 1, 3432)
        v0 = np.random.default_rng(0).standard_normal(3432)
        return (lambda v: diag * v), repro.linalg.NumpyVectorSpace(), v0
    dbasis, _ = repro.enumerate_states(
        repro.Cluster(3, repro.laptop_machine(cores=2)),
        SpinBasis(14, hamming_weight=7),
    )
    diag = np.linspace(0, 1, dbasis.dim)
    parts = np.split(diag, np.cumsum(dbasis.counts)[:-1])

    def matvec(v):
        return repro.DistributedVector(
            dbasis, [d * p for d, p in zip(parts, v.parts)]
        )

    v0 = repro.DistributedVector.full_random(dbasis, seed=0)
    return matvec, repro.DistributedVectorSpace(dbasis), v0


class TestStepShape:
    """k = 1 runs the three-term recurrence in a window of two rows; k > 1
    streams the block once more: the local pass, then one full pass."""

    @pytest.mark.parametrize("distributed", [False, True])
    def test_k2_local_pass_then_one_full_pass(self, monkeypatch, distributed):
        op, space, v0 = chain12(distributed)
        projects, _ = spy(monkeypatch, space)
        res = lanczos(op, v0, k=2, tol=1e-10, space=space)
        expected = []
        for m in range(1, res.n_iterations + 1):
            expected += [(m, max(m - 2, 0)), (m, 0)]
        assert res.n_iterations > 2 and projects == expected

    @pytest.mark.parametrize("distributed", [False, True])
    def test_k1_holds_two_rows_whatever_the_iteration_count(
        self, monkeypatch, distributed
    ):
        matvec, space, v0 = even_spectrum(distributed)
        projects, pushes = spy(monkeypatch, space)
        res = lanczos(
            matvec, v0, k=1, tol=0.0, max_iter=250, space=space,
            raise_on_no_convergence=False,
        )
        assert res.n_iterations == 250 and not res.converged
        # The start vector, then one row per iteration.
        assert len(pushes) == 251 and max(pushes) == (2, 2)
        assert projects == [(1, 0)] + [(2, 0)] * 249

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


class TestSecondPass:
    """At k = 1 the eigenvector is the recurrence rerun from the start
    vector, its Krylov vectors added up with the Ritz vector's weights."""

    @staticmethod
    def check(op, space, res) -> None:
        (vector,) = res.eigenvectors
        energy = res.eigenvalues[0]
        residual = op.matvec(vector)
        space.axpy(-energy, vector, residual)
        assert space.norm(residual) <= 1e-8 * abs(energy)
        assert space.norm(vector) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "distributed, backend",
        [(False, None), (True, "sim"), (True, "threads")],
    )
    def test_real_sector(self, distributed, backend):
        op, space, v0 = chain12(distributed, backend)
        res = lanczos(
            op, v0, k=1, tol=1e-10, space=space, compute_eigenvectors=True
        )
        self.check(op, space, res)

    def test_complex_momentum_sector(self, rng):
        expr, group = sector(12, 2, real=False)
        op = repro.Operator(expr, SymmetricBasis(group, hamming_weight=6))
        assert op.dtype == np.complex128
        v0 = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        space = repro.linalg.NumpyVectorSpace()
        res = lanczos(
            op, v0, k=1, tol=1e-10, space=space, compute_eigenvectors=True
        )
        self.check(op, space, res)

    def test_complex_sector_from_a_real_start_vector(self):
        # The window turns complex with the first product, on each locale.
        expr, group = sector(12, 2, real=False)
        dbasis, _ = repro.enumerate_states(
            repro.Cluster(3, repro.laptop_machine(cores=2)),
            SymmetricBasis(group, hamming_weight=6, build=False),
        )
        op = repro.DistributedOperator(expr, dbasis)
        space = repro.DistributedVectorSpace(dbasis)
        v0 = repro.DistributedVector.full_random(dbasis, seed=5, dtype=float)
        res = lanczos(
            op, v0, k=1, tol=1e-10, space=space, compute_eigenvectors=True
        )
        assert res.converged
        assert all(np.iscomplexobj(p) for p in res.eigenvectors[0].parts)
        self.check(op, space, res)

    def test_ghost_spectrum_at_zero_tolerance(self):
        diag = np.concatenate([[-10.0], np.linspace(0, 1, 399)])
        op = SimpleNamespace(matvec=lambda v: diag * v)
        v0 = np.random.default_rng(0).standard_normal(400)
        res = lanczos(op, v0, k=1, tol=0.0, compute_eigenvectors=True)
        assert res.converged
        self.check(op, repro.linalg.NumpyVectorSpace(), res)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n, momentum, up", [(10, 5, 4), (12, 3, 6)])
    def test_small_sector_at_zero_tolerance(self, n, momentum, up, seed):
        # A Krylov space smaller than max_iter: the bare recurrence does
        # not break down there, so the solve ends on its residual reaching
        # rounding (the first sector's start vectors span 13 of 20 states).
        group = chain_symmetries(n, momentum, None, None)
        op = repro.Operator(
            repro.heisenberg_chain(n), SymmetricBasis(group, hamming_weight=up)
        )
        assert op.dim < 100
        v0 = np.random.default_rng(seed).standard_normal(op.dim)
        res = lanczos(op, v0, k=1, tol=0.0, compute_eigenvectors=True)
        assert res.converged and res.n_iterations <= op.dim
        self.check(op, repro.linalg.NumpyVectorSpace(), res)
        dense = np.linalg.eigvalsh(op.to_sparse().toarray())[0]
        assert res.eigenvalues[0] == pytest.approx(dense, abs=1e-12)

    def test_rerun_is_the_first_pass(self):
        # The second pass repeats the first pass's products bit for bit.
        op, space, v0 = chain12(distributed=False)
        seen = []
        matvec = lambda v: seen.append(v.copy()) or op.matvec(v)  # noqa: E731
        res = lanczos(matvec, v0, k=1, tol=1e-10, compute_eigenvectors=True)
        first, second = seen[: res.n_iterations], seen[res.n_iterations :]
        assert len(second) == res.n_iterations - 1
        for u, v in zip(first, second):
            np.testing.assert_array_equal(u, v)


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
