"""The serial product reads each destination's norm from the basis.

``SymmetricBasis.locate`` ranks the representatives that
``GroupKernel.orbit_info`` finds and reads their stabilizer sums from
``stabilizer_sums``, where ``project`` sums them over each raw state's
stabilizer.  The serial product (``plan=False`` and the plan-recording
pass) goes through the first, ``get_many_rows`` and ``to_sparse`` /
``to_dense`` through the second; the two must give the same numbers to
the last bit.  (The distributed producers read the norm at the owner:
``tests/test_norm_at_owner.py``.)
"""

import numpy as np
import pytest

import kernel_snapshot
import repro
from repro.basis import SymmetricBasis
from repro.errors import BasisError
from repro.operators import get_many_rows
from repro.operators.kernels import many_rows
from repro.symmetry import chain_symmetries
from repro.symmetry.kernels import STAB_TOL

#: Every kernel-snapshot sector at half filling, and one below where no
#: spin inversion forbids it.
SECTORS = [
    (name, weight)
    for name, (group, _) in kernel_snapshot.CASES.items()
    for weight in (group.n_sites // 2, group.n_sites // 2 - 1)
    if weight == group.n_sites // 2 or not group.flips.any()
]


def projected_product(op, x):
    """The serial product through ``get_many_rows`` (``project``) and
    ``index``, batch by batch in the operator's order; each batch's
    ``(sources, rows, amplitudes)`` is checked against the lookup path."""
    basis = op.basis
    y = op.diagonal().astype(x.dtype) * x
    for start in range(0, basis.dim, op.batch_size):
        alphas = basis.states[start : start + op.batch_size]
        scale = basis.source_scale[start : start + alphas.size]
        sources, members, amplitudes = get_many_rows(op.compiled, basis, alphas, scale)
        rows = basis.index(members)
        looked_up = many_rows(op.compiled, basis.locate, alphas, scale)
        for got, expected in zip(looked_up, (sources, rows, amplitudes)):
            np.testing.assert_array_equal(got, expected)
        np.add.at(y, rows, amplitudes * x[start + sources])
    return y


@pytest.mark.parametrize("name, weight", SECTORS, ids=[f"{n}/w{w}" for n, w in SECTORS])
def test_serial_product_equals_the_projection_bit_for_bit(name, weight):
    group, expression = kernel_snapshot.CASES[name]
    basis = SymmetricBasis(group, hamming_weight=weight)
    rng = np.random.default_rng(weight)
    for plan in (False, True):  # cold, and the plan-recording pass
        op = repro.Operator(expression, basis, batch_size=64, plan=plan)
        x = rng.standard_normal(basis.dim).astype(op.dtype)
        if op.dtype.kind == "c":
            x += 1j * rng.standard_normal(basis.dim)
        y = op.matvec(x)
        np.testing.assert_array_equal(y, projected_product(op, x))
        np.testing.assert_allclose(y, op.to_sparse() @ x, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "sector, weight, raw",
    [((10, 5, 1, 0), 5, "every state"), ((14, 7, 0, None), 7, "the product's")],
)
def test_vanishing_orbits_drop_out(sector, weight, raw):
    """``valid`` is ``state_info``'s ``stab > STAB_TOL``, and the survivors'
    rows and factors are ``project`` + ``index``'s."""
    group = chain_symmetries(*sector)
    basis = SymmetricBasis(group, hamming_weight=weight)
    states = repro.bits.states_with_weight(group.n_sites, weight)
    if raw == "the product's":
        n = group.n_sites
        compiled = repro.compile_expression(repro.heisenberg_chain(n), n)
        _, states, _ = compiled.apply_off_diag(basis.states)
    rows, factors, valid = basis.locate(states)
    np.testing.assert_array_equal(valid, group.state_info(states)[2] > STAB_TOL)
    assert 0 < np.count_nonzero(valid) < valid.size
    members, expected, _ = basis.surviving(states)
    np.testing.assert_array_equal(rows, basis.index(members))
    np.testing.assert_array_equal(factors, expected)


@pytest.mark.parametrize("plan", [False, True])
def test_a_missing_destination_still_raises(plan):
    group = chain_symmetries(12, 0, 0, 0)
    full = SymmetricBasis(group, hamming_weight=6)
    partial = SymmetricBasis.from_representatives(group, full.states[::2], 6)
    op = repro.Operator(repro.heisenberg_chain(12), partial, plan=plan)
    with pytest.raises(BasisError, match="not found in the basis"):
        op.matvec(np.ones(partial.dim))
