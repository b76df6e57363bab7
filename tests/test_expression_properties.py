"""Property-based tests of the operator algebra.

A random-expression generator drives Hypothesis checks that the symbolic
algebra is an exact homomorphism onto dense matrices — the strongest
possible statement about the canonicalization (term collection, the
``S- S+`` branching rule, adjoints, transforms).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import repro
from repro.operators.expression import Expression
from repro.operators.matrix import expression_to_dense

N_SITES = 4

_LEAVES = [
    repro.sigma_x,
    repro.sigma_y,
    repro.sigma_z,
    repro.sigma_plus,
    repro.sigma_minus,
    repro.number,
]


@st.composite
def expressions(draw, max_terms=4, max_factors=3):
    """A random expression: sum of products of random single-site leaves."""
    n_terms = draw(st.integers(min_value=1, max_value=max_terms))
    total = Expression()
    for _ in range(n_terms):
        coeff = complex(
            draw(st.integers(min_value=-3, max_value=3)),
            draw(st.integers(min_value=-3, max_value=3)),
        )
        term = repro.Expression({(): coeff})
        n_factors = draw(st.integers(min_value=1, max_value=max_factors))
        for _ in range(n_factors):
            leaf = draw(st.sampled_from(_LEAVES))
            site = draw(st.integers(min_value=0, max_value=N_SITES - 1))
            term = term * leaf(site)
        total = total + term
    return total


def dense(expr):
    return expression_to_dense(expr, N_SITES)


SETTINGS = settings(max_examples=60, deadline=None)


class TestDenseHomomorphism:
    @given(expressions(), expressions())
    @SETTINGS
    def test_addition(self, a, b):
        assert np.allclose(dense(a + b), dense(a) + dense(b))

    @given(expressions(), expressions())
    @SETTINGS
    def test_multiplication(self, a, b):
        assert np.allclose(dense(a * b), dense(a) @ dense(b))

    @given(expressions())
    @SETTINGS
    def test_adjoint(self, a):
        assert np.allclose(dense(a.adjoint()), dense(a).conj().T)

    @given(expressions(), st.integers(min_value=-3, max_value=3))
    @SETTINGS
    def test_scalar_multiplication(self, a, c):
        assert np.allclose(dense(c * a), c * dense(a))

    @given(expressions())
    @SETTINGS
    def test_subtraction_from_self_is_zero(self, a):
        assert (a - a).n_terms == 0

    @given(expressions())
    @SETTINGS
    def test_hermitian_combination(self, a):
        h = a + a.adjoint()
        assert h.is_hermitian()
        m = dense(h)
        assert np.allclose(m, m.conj().T)

    @given(expressions())
    @SETTINGS
    def test_norm_zero_iff_zero_matrix(self, a):
        # canonical uniqueness: the 1-norm surrogate vanishes exactly when
        # the dense matrix vanishes
        assert (a.norm() < 1e-12) == np.allclose(dense(a), 0.0)

    @given(expressions())
    @SETTINGS
    def test_translation_conjugation(self, a):
        from repro.symmetry import translation

        t = translation(N_SITES).permutation
        moved = repro.transform_expression(a, t)
        states = np.arange(1 << N_SITES, dtype=np.uint64)
        rows = t(states).astype(np.int64)
        u = np.zeros((1 << N_SITES, 1 << N_SITES))
        u[rows, np.arange(1 << N_SITES)] = 1.0
        assert np.allclose(dense(moved), u @ dense(a) @ u.T)


class TestCompiledAgainstDense:
    @given(expressions())
    @SETTINGS
    def test_compiled_matvec_matches_dense(self, a):
        from repro.basis import SpinBasis
        from repro.operators import compile_expression

        compiled = compile_expression(a, N_SITES)
        basis = SpinBasis(N_SITES)
        m = dense(a)
        # rebuild the matrix from the kernels
        rebuilt = np.zeros_like(m)
        np.fill_diagonal(rebuilt, compiled.diagonal_values(basis.states))
        sources, betas, coeffs = compiled.apply_off_diag(basis.states)
        np.add.at(
            rebuilt, (betas.astype(np.int64), sources), coeffs.astype(complex)
        )
        assert np.allclose(rebuilt, m)

    @given(expressions())
    @SETTINGS
    def test_magnetization_conservation_detection(self, a):
        from repro.basis import SpinBasis
        from repro.operators import compile_expression

        compiled = compile_expression(a, N_SITES)
        # ground truth: does dense matrix mix different Sz sectors?
        m = dense(a)
        weights = np.array(
            [bin(s).count("1") for s in range(1 << N_SITES)]
        )
        mixes = False
        rows, cols = np.nonzero(np.abs(m) > 1e-12)
        if rows.size:
            mixes = bool(np.any(weights[rows] != weights[cols]))
        assert compiled.conserves_magnetization == (not mixes)
