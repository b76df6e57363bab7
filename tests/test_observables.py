"""Tests for operator symmetrization and sector observables."""

import numpy as np
import pytest

import repro
from repro.basis import SpinBasis, SymmetricBasis
from repro.operators import (
    expectation,
    spin_correlation,
    symmetrize_expression,
    transform_expression,
)
from repro.operators.matrix import expression_to_dense
from repro.symmetry import Permutation, chain_symmetries


class TestTransformExpression:
    def test_permutation_moves_sites(self):
        perm = Permutation([1, 2, 0])
        moved = transform_expression(repro.sigma_z(0), perm)
        assert moved.isclose(repro.sigma_z(1))

    def test_matches_dense_conjugation(self, rng):
        n = 4
        perm = Permutation([2, 3, 1, 0])
        expr = (
            repro.spin_plus(0) * repro.spin_minus(2)
            + 0.3 * repro.sigma_z(1) * repro.sigma_z(3)
        )
        moved = transform_expression(expr, perm)
        # dense: U O U^dag with U the permutation operator on states
        states = np.arange(1 << n, dtype=np.uint64)
        rows = perm(states).astype(np.int64)
        u = np.zeros((1 << n, 1 << n))
        u[rows, np.arange(1 << n)] = 1.0
        lhs = expression_to_dense(moved, n)
        rhs = u @ expression_to_dense(expr, n) @ u.T
        assert np.allclose(lhs, rhs)

    def test_flip_conjugation_ladder(self):
        perm = Permutation.identity(2)
        flipped = transform_expression(repro.sigma_plus(0), perm, flip=True)
        assert flipped.isclose(repro.sigma_minus(0))

    def test_flip_conjugation_number(self):
        from repro.operators.expression import identity

        perm = Permutation.identity(1)
        flipped = transform_expression(repro.number(0), perm, flip=True)
        assert flipped.isclose(identity() - repro.number(0))

    def test_flip_matches_dense(self):
        from repro.bits import flip_all

        n = 3
        expr = repro.spin_z(0) * repro.spin_z(1) + repro.spin_x(2)
        moved = transform_expression(expr, Permutation.identity(n), flip=True)
        states = np.arange(1 << n, dtype=np.uint64)
        rows = flip_all(states, n).astype(np.int64)
        u = np.zeros((1 << n, 1 << n))
        u[rows, np.arange(1 << n)] = 1.0
        assert np.allclose(
            expression_to_dense(moved, n),
            u @ expression_to_dense(expr, n) @ u.T,
        )


class TestSymmetrize:
    def test_result_commutes_with_group(self):
        n = 6
        group = chain_symmetries(n, momentum=0, parity=0, inversion=0)
        bar = symmetrize_expression(repro.spin_z(0) * repro.spin_z(2), group)
        dense = expression_to_dense(bar, n)
        states = np.arange(1 << n, dtype=np.uint64)
        for i in range(len(group)):
            rows = group.apply_element(i, states).astype(np.int64)
            u = np.zeros_like(dense)
            u[rows, np.arange(1 << n)] = 1.0
            assert np.allclose(u @ dense, dense @ u)

    def test_invariant_operator_unchanged(self):
        n = 6
        group = chain_symmetries(n, momentum=0, parity=0, inversion=0)
        h = repro.heisenberg_chain(n)
        assert symmetrize_expression(h, group).isclose(h)

    def test_average_of_translations(self):
        n = 4
        group = chain_symmetries(n, momentum=0, parity=None, inversion=None)
        bar = symmetrize_expression(repro.sigma_z(0), group)
        expected = sum(repro.sigma_z(i) for i in range(n)) * (1.0 / n)
        assert bar.isclose(expected)


class TestSectorExpectation:
    @pytest.fixture(scope="class")
    def ground_states(self):
        n, w = 12, 6
        group = chain_symmetries(n, momentum=0, parity=0, inversion=0)
        sb = SymmetricBasis(group, hamming_weight=w)
        sop = repro.Operator(repro.heisenberg_chain(n), sb)
        sres = repro.lanczos(
            sop.matvec,
            np.random.default_rng(0).standard_normal(sb.dim),
            k=1,
            compute_eigenvectors=True,
        )
        ub = SpinBasis(n, hamming_weight=w)
        uop = repro.Operator(repro.heisenberg_chain(n), ub)
        ures = repro.lanczos(
            uop.matvec,
            np.random.default_rng(1).standard_normal(ub.dim),
            k=1,
            compute_eigenvectors=True,
            max_iter=400,
        )
        return n, sb, sres.eigenvectors[0], ub, ures.eigenvectors[0], sres.eigenvalues[0]

    @pytest.mark.parametrize("distance", [1, 2, 3, 4, 5, 6])
    def test_correlators_match_plain_basis(self, ground_states, distance):
        n, sb, gs_symm, ub, gs_u1, _ = ground_states
        c_symm = spin_correlation(sb, gs_symm, distance)
        c_u1 = spin_correlation(ub, gs_u1, distance)
        assert c_symm == pytest.approx(c_u1, abs=1e-8)

    def test_correlations_alternate_in_sign(self, ground_states):
        # antiferromagnet: <S_0 . S_r> alternates with distance
        n, sb, gs, *_ = ground_states
        signs = [np.sign(spin_correlation(sb, gs, r)) for r in range(1, 6)]
        assert signs == [-1, 1, -1, 1, -1]

    def test_bond_energy_sums_to_ground_energy(self, ground_states):
        n, sb, gs, _, _, e0 = ground_states
        assert n * spin_correlation(sb, gs, 1) == pytest.approx(e0, abs=1e-8)

    @pytest.mark.parametrize("backend", ["sim", "threads"])
    def test_distributed_state_gives_the_serial_value(self, ground_states, backend):
        """The same function takes the ground state hash-distributed: the
        symmetrized observable in one distributed product, the inner
        products in the distributed vector space."""
        n, sb, gs, *_ = ground_states
        cluster = repro.Cluster(3, repro.laptop_machine(cores=2), backend=backend)
        template = SymmetricBasis(sb.group, hamming_weight=6, build=False)
        dbasis, _ = repro.enumerate_states(cluster, template)
        state = repro.DistributedVector.from_serial(dbasis, sb, gs)
        for observable in (
            repro.heisenberg_chain(n), repro.sigma_z(0) * repro.sigma_z(3),
        ):
            assert expectation(observable, dbasis, state) == pytest.approx(
                expectation(observable, sb, gs), abs=1e-12
            )

    def test_expectation_plain_basis_no_symmetrization(self, rng):
        basis = SpinBasis(8, hamming_weight=4)
        op = repro.Operator(repro.heisenberg_chain(8), basis)
        x = rng.standard_normal(basis.dim)
        val = expectation(repro.heisenberg_chain(8), basis, x)
        assert val == pytest.approx(np.vdot(x, op.matvec(x)) / np.vdot(x, x))
