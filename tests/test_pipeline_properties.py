"""End-to-end property test of the headline algorithm.

Hypothesis draws a random U(1)-conserving Hermitian Hamiltonian, a random
symmetry sector, and a random cluster shape; the producer-consumer
matrix-vector product on the simulated cluster must agree exactly with the
serial reference operator.  This is the strongest single statement the
test suite makes about the paper's contribution.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.basis import SymmetricBasis
from repro.distributed import (
    DistributedOperator,
    DistributedVector,
    enumerate_states,
)
from repro.errors import InvalidSectorError
from repro.runtime import Cluster, laptop_machine
from repro.symmetry import chain_symmetries

coupling_st = st.integers(min_value=-2, max_value=2).map(float)


@st.composite
def u1_hamiltonians(draw, n_sites):
    """A random Hermitian, U(1)-conserving, translation-invariant model."""
    h = repro.Expression()
    # translation-invariant exchange at random ranges keeps every chain
    # symmetry intact, so any sector is valid
    for offset in (1, 2, 3):
        jz = draw(coupling_st)
        jxy = draw(coupling_st)
        for i in range(n_sites):
            j = (i + offset) % n_sites
            h = h + jz * (repro.spin_z(i) * repro.spin_z(j))
            h = h + 0.5 * jxy * (
                repro.spin_plus(i) * repro.spin_minus(j)
                + repro.spin_minus(i) * repro.spin_plus(j)
            )
    return h


@given(
    data=st.data(),
    n_sites=st.sampled_from([8, 10, 12]),
    n_locales=st.integers(min_value=1, max_value=4),
    momentum=st.integers(min_value=0, max_value=11),
    batch_size=st.sampled_from([8, 64, 1024]),
    work_stealing=st.booleans(),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_distributed_pc_matvec_equals_serial(
    data, n_sites, n_locales, momentum, batch_size, work_stealing
):
    momentum %= n_sites
    weight = n_sites // 2
    try:
        group = chain_symmetries(
            n_sites, momentum=momentum, parity=None, inversion=None
        )
    except InvalidSectorError:
        return
    serial = SymmetricBasis(group, hamming_weight=weight)
    if serial.dim == 0:
        return
    expression = data.draw(u1_hamiltonians(n_sites))
    if expression.n_terms == 0:
        return

    cluster = Cluster(n_locales, laptop_machine(cores=4))
    template = SymmetricBasis(group, hamming_weight=weight, build=False)
    dbasis, _ = enumerate_states(
        cluster, template, chunks_per_core=2, use_weight_shortcut=True
    )
    assert dbasis.dim == serial.dim

    rng = np.random.default_rng(abs(hash((n_sites, momentum))) % 2**32)
    xs = rng.standard_normal(serial.dim).astype(serial.scalar_dtype)
    if serial.scalar_dtype == np.complex128:
        xs = xs + 1j * rng.standard_normal(serial.dim)

    serial_op = repro.Operator(expression, serial)
    y_ref = serial_op.matvec(xs)

    dop = DistributedOperator(
        expression,
        dbasis,
        batch_size=batch_size,
        work_stealing=work_stealing,
    )
    dx = DistributedVector.from_serial(dbasis, serial, xs)
    dy = dop.matvec(dx)
    np.testing.assert_allclose(dy.to_serial(serial), y_ref, atol=1e-12)
