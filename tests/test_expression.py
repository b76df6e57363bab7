"""Tests for the symbolic spin-operator algebra."""

import numpy as np
import pytest

from repro.operators import (
    Expression,
    identity,
    number,
    sigma_minus,
    sigma_plus,
    sigma_x,
    sigma_y,
    sigma_z,
    spin_x,
    spin_y,
    spin_z,
)
from repro.operators.matrix import expression_to_dense


def dense(expr, n):
    return expression_to_dense(expr, n)


class TestSingleSiteAlgebra:
    def test_pauli_squares_are_identity(self):
        for op in (sigma_x, sigma_y, sigma_z):
            assert (op(0) * op(0)).isclose(identity())

    def test_pauli_commutator(self):
        # [sx, sy] = 2i sz
        lhs = sigma_x(0) * sigma_y(0) - sigma_y(0) * sigma_x(0)
        assert lhs.isclose(2j * sigma_z(0))

    def test_anticommutator_vanishes(self):
        lhs = sigma_x(0) * sigma_y(0) + sigma_y(0) * sigma_x(0)
        assert lhs.n_terms == 0

    def test_raising_lowering(self):
        # s+ s- = P1 = number operator
        assert (sigma_plus(0) * sigma_minus(0)).isclose(number(0))
        # s- s+ = P0 = 1 - number
        assert (sigma_minus(0) * sigma_plus(0)).isclose(identity() - number(0))

    def test_raising_squared_is_zero(self):
        assert (sigma_plus(0) * sigma_plus(0)).n_terms == 0

    def test_sz_from_projectors(self):
        assert sigma_z(0).isclose(2 * number(0) - identity())

    def test_spin_half_commutator(self):
        # [Sx, Sy] = i Sz
        lhs = spin_x(0) * spin_y(0) - spin_y(0) * spin_x(0)
        assert lhs.isclose(1j * spin_z(0))

    def test_casimir(self):
        # S^2 = 3/4 for spin-1/2
        s2 = (
            spin_x(0) * spin_x(0)
            + spin_y(0) * spin_y(0)
            + spin_z(0) * spin_z(0)
        )
        assert s2.isclose(0.75 * identity())


class TestMultiSite:
    def test_different_sites_commute(self):
        a = sigma_x(0) * sigma_y(3)
        b = sigma_y(3) * sigma_x(0)
        assert a.isclose(b)

    def test_heisenberg_term_canonical_form(self):
        term = (
            spin_z(0) * spin_z(1)
            + 0.5 * (sigma_plus(0) * sigma_minus(1) + sigma_minus(0) * sigma_plus(1))
        )
        # szsz expands to 4 projector strings; the ladder part to 2 strings
        assert term.n_terms == 6

    def test_sites_property(self):
        expr = sigma_x(1) * sigma_x(4) + sigma_z(2)
        assert expr.sites == {1, 2, 4}
        assert expr.min_sites == 5


class TestAlgebraLaws:
    def test_addition_collects_terms(self):
        assert (sigma_x(0) + sigma_x(0)).isclose(2 * sigma_x(0))

    def test_subtraction_cancels(self):
        assert (sigma_x(0) - sigma_x(0)).n_terms == 0

    def test_scalar_multiplication(self):
        assert ((2.5 * sigma_z(1)) / 2.5).isclose(sigma_z(1))

    def test_sum_builtin_works(self):
        total = sum(sigma_z(i) for i in range(4))
        # four N strings plus one collected identity term (-4 I)
        assert total.n_terms == 5

    def test_distributivity_via_dense(self):
        a, b, c = sigma_x(0), sigma_y(1), sigma_z(0)
        n = 2
        lhs = dense(a * (b + c), n)
        rhs = dense(a * b + a * c, n)
        assert np.allclose(lhs, rhs)

    def test_associativity_via_dense(self):
        a, b, c = sigma_plus(0), sigma_minus(1), sigma_z(2)
        n = 3
        assert np.allclose(dense((a * b) * c, n), dense(a * (b * c), n))

    def test_matmul_alias(self):
        assert (sigma_x(0) @ sigma_x(0)).isclose(identity())

    def test_scalar_addition(self):
        expr = sigma_z(0) + 1.0
        assert np.allclose(dense(expr, 1), dense(sigma_z(0), 1) + np.eye(2))

    def test_rsub(self):
        expr = 1.0 - number(0)
        assert expr.isclose(sigma_minus(0) * sigma_plus(0))


class TestAdjoint:
    def test_pauli_are_hermitian(self):
        for op in (sigma_x, sigma_y, sigma_z):
            assert op(0).is_hermitian()

    def test_ladder_adjoint(self):
        assert sigma_plus(0).adjoint().isclose(sigma_minus(0))

    def test_product_adjoint_via_dense(self):
        expr = (1 + 2j) * sigma_plus(0) * sigma_z(1)
        n = 2
        assert np.allclose(dense(expr.adjoint(), n), dense(expr, n).conj().T)

    def test_heisenberg_is_hermitian(self):
        from repro.operators import heisenberg_chain

        assert heisenberg_chain(8).is_hermitian()

    def test_non_hermitian_detected(self):
        assert not sigma_plus(0).is_hermitian()


class TestDenseAgainstKron:
    def test_sigma_z_matrix(self):
        m = dense(sigma_z(0), 1)
        # basis order |down>=index 0, |up>=index 1 (bit set = up)
        assert np.allclose(m, np.diag([-1.0, 1.0]))

    def test_sigma_x_matrix(self):
        assert np.allclose(dense(sigma_x(0), 1), np.array([[0, 1], [1, 0]]))

    def test_sigma_y_matrix(self):
        # In (down, up) index order with sigma_z = diag(-1, 1), sigma_y is
        # [[0, i], [-i, 0]] so that the Pauli commutation relations hold.
        assert np.allclose(
            dense(sigma_y(0), 1), np.array([[0, 1j], [-1j, 0]])
        )

    def test_site_ordering_in_kron(self):
        # sigma_z on site 1 of 2: acts on bit 1 (slow index)
        m = dense(sigma_z(1), 2)
        assert np.allclose(np.diag(m), [-1, -1, 1, 1])

    def test_repr_smoke(self):
        assert "Expression" in repr(sigma_x(0) + 2.0)
        assert repr(Expression()) == "Expression(0)"


class TestValidation:
    def test_site_range(self):
        with pytest.raises(ValueError):
            sigma_x(-1)
        with pytest.raises(ValueError):
            sigma_x(64)

    def test_is_real_canonical(self):
        assert (sigma_y(0) * sigma_y(1)).is_real
        assert not sigma_y(0).is_real
