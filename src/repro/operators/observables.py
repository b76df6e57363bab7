"""Measuring observables in symmetry-adapted sectors.

A bare observable like :math:`S^z_0 S^z_r` does not commute with the
lattice symmetries, so it cannot be evaluated directly in a
symmetry-adapted basis.  But for any state :math:`|\\psi\\rangle` inside the
sector (:math:`P|\\psi\\rangle = |\\psi\\rangle`),

.. math:: \\langle\\psi| O |\\psi\\rangle
          = \\langle\\psi| P O P |\\psi\\rangle
          = \\langle\\psi| \\bar O |\\psi\\rangle,
          \\qquad \\bar O = \\frac{1}{|G|}\\sum_g U_g O U_g^\\dagger,

because :math:`P U_g = \\chi(g) P` for every group element.  The
symmetrized operator :math:`\\bar O` *does* commute with the group, so it
compiles into the sector like any Hamiltonian.  This module provides the
symmetrization, :func:`expectation` — the one evaluation of
:math:`\\langle\\psi| O |\\psi\\rangle` for serial and distributed states,
which the input-file runner's ``observables`` call too — and a helper for
correlation functions.
"""

from __future__ import annotations

import numpy as np

from repro.basis.spin_basis import Basis
from repro.operators.expression import N, UP, Expression, number, scalar, sigma_minus, sigma_plus
from repro.operators.operator import Operator
from repro.symmetry.group import SymmetryGroup
from repro.symmetry.permutation import Permutation

__all__ = [
    "transform_expression",
    "symmetrize_expression",
    "expectation",
    "spin_correlation",
]


def _transformed_factor(site: int, op: str, flip: bool) -> Expression:
    """One single-site factor conjugated by an (optional) spin flip.

    Spin inversion X satisfies ``X S+ X = S-``, ``X S- X = S+`` and
    ``X N X = I - N``.
    """
    if not flip:
        if op == N:
            return number(site)
        return sigma_plus(site) if op == UP else sigma_minus(site)
    if op == N:
        return scalar(1.0) - number(site)
    return sigma_minus(site) if op == UP else sigma_plus(site)


def transform_expression(
    expression: Expression, permutation: Permutation, flip: bool = False
) -> Expression:
    """Conjugate an expression by a symmetry element: ``U O U^dagger``.

    Sites move with the permutation; with ``flip`` every factor is
    additionally conjugated by global spin inversion.
    """
    sites = permutation.sites
    out = Expression()
    for term, coeff in expression.terms.items():
        product = scalar(coeff)
        for site, op in term:
            product = product * _transformed_factor(int(sites[site]), op, flip)
        out = out + product
    return out


def symmetrize_expression(
    expression: Expression, group: SymmetryGroup
) -> Expression:
    """Group-average an expression: ``(1/|G|) sum_g U_g O U_g^dagger``.

    The result commutes with every element of ``group`` and has the same
    expectation value as ``expression`` in any state of any sector of the
    group (see module docstring).
    """
    total = Expression()
    for perm, flip in zip(group.permutations, group.flips):
        total = total + transform_expression(expression, perm, bool(flip))
    return total * (1.0 / group.size)


def expectation(observable: Expression, basis, state) -> float:
    """``Re <state| O |state> / <state|state>`` in any basis, serial or
    distributed.

    The observable is symmetrized in the sector's group (a plain basis
    evaluates it as-is), applied in one product of an operator without a
    plan (a plan would be recorded for nothing), and the real parts of
    the two inner products are taken in the basis's vector space: NumPy
    arrays for a :class:`~repro.basis.Basis`,
    :class:`~repro.distributed.DistributedVector` for a
    :class:`~repro.distributed.DistributedBasis`.
    """
    # Imported here: ``repro.distributed`` imports this package.
    from repro.distributed.dist_basis import DistributedBasis
    from repro.distributed.operator import DistributedOperator
    from repro.distributed.vector import DistributedVectorSpace
    from repro.linalg.spaces import NumpyVectorSpace

    group = getattr(getattr(basis, "template", basis), "group", None)
    if group is not None and group.size > 1:
        observable = symmetrize_expression(observable, group)
    if isinstance(basis, DistributedBasis):
        operator = DistributedOperator(observable, basis, plan=False)
        space = DistributedVectorSpace(basis)
    else:
        operator, space = Operator(observable, basis, plan=False), NumpyVectorSpace()
    image = operator.matvec(state)
    return float(np.real(space.dot(state, image)) / np.real(space.dot(state, state)))


def spin_correlation(
    basis: Basis, state: np.ndarray, distance: int
) -> float:
    """Ground-state correlator ``<S_0 . S_r>`` on a periodic chain."""
    n = basis.n_sites
    from repro.operators.hamiltonians import heisenberg

    observable = heisenberg([(0, distance % n)])
    value = expectation(observable, basis, state)
    return float(np.real(value))
