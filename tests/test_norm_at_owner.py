"""The distributed product reads each destination's norm where it is owned.

A producer projects its raw states with ``GroupKernel.orbit_info`` (no
stabilizer sums) and ships ``coeff * phase * x / sqrt(N_alpha)``; the
consumer that ranks the destination row multiplies in ``sqrt(N_r)`` from
``DistributedBasis.norms``, and the fold puts the same factor into the
replayed matrices.  So no distributed product sums a stabilizer, every
method, backend, sector and plan state gives the serial product, and the
source scales the basis still hands out are the ones its sums give.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import kernel_snapshot
import repro
from repro.basis import SymmetricBasis
from repro.basis.symm_basis import sector_sums, source_scales
from repro.distributed import DistributedOperator, DistributedVector, enumerate_states
from repro.runtime import Cluster, laptop_machine
from repro.symmetry.kernels import GroupKernel

#: Every (method, backend) pair that runs.
RUNS = [("naive", "sim"), ("batched", "sim"), ("pc", "sim"), ("pc", "threads")]

#: Real and complex characters, on a chain and on the 4x4 torus.
SECTORS = ["chain12/k0/p0/z0", "chain12/k5/pNone/z1", "torus4x4/k00/z0", "torus4x4/k12"]


@lru_cache(maxsize=None)
def bases(sector: str, backend: str, n_locales: int):
    """``(serial basis, distributed basis, expression)`` at half filling."""
    group, expression = kernel_snapshot.CASES[sector]
    n = group.n_sites
    serial = SymmetricBasis(group, hamming_weight=n // 2)
    cluster = Cluster(n_locales, laptop_machine(cores=4), backend=backend)
    template = SymmetricBasis(group, hamming_weight=n // 2, build=False)
    return serial, enumerate_states(cluster, template)[0], expression


def serial_input(rng, serial, dtype, k):
    shape = (serial.dim,) if k == 1 else (serial.dim, k)
    x = rng.standard_normal(shape).astype(dtype)
    if dtype.kind == "c":
        x += 1j * rng.standard_normal(shape)
    return x


@pytest.mark.parametrize("method, backend", RUNS)
@pytest.mark.parametrize("plan", [False, True])
def test_a_distributed_product_never_sums_a_stabilizer(method, backend, plan, monkeypatch):
    """The cold product and the plan-recording pass generate every
    element without ``state_info``: the producers run ``orbit_info`` and
    the norms come from the basis."""
    serial, dbasis, expression = bases("chain12/k0/p0/z0", backend, 3)
    op = repro.Operator(expression, serial, plan=False)
    x = serial_input(np.random.default_rng(1), serial, op.dtype, 1)
    expected = op.matvec(x)

    def refuse(self, states):
        raise AssertionError("a distributed product summed a stabilizer")

    monkeypatch.setattr(GroupKernel, "state_info", refuse)
    dop = DistributedOperator(expression, dbasis, method=method, plan=plan, batch_size=32)
    y = dop.matvec(DistributedVector.from_serial(dbasis, serial, x))
    np.testing.assert_allclose(y.to_serial(serial), expected, rtol=1e-13, atol=1e-13)


@given(
    run=st.sampled_from(RUNS),
    sector=st.sampled_from(SECTORS),
    n_locales=st.integers(min_value=1, max_value=3),
    k=st.sampled_from([1, 3]),
    batch_size=st.sampled_from([16, 64, 1 << 13]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_product_is_the_serial_product(
    run, sector, n_locales, k, batch_size, seed, plan_budget
):
    """Plan off, the recording pass, a warm replay and a plan whose budget
    holds only some chunks: each ``y`` equals the serial ``Operator``'s to
    1e-13, for one column and for a block of three."""
    method, backend = run
    serial, dbasis, expression = bases(sector, backend, n_locales)
    op = repro.Operator(expression, serial, plan=False)
    x = serial_input(np.random.default_rng(seed), serial, op.dtype, k)
    expected = op.matvec(x)
    dx = DistributedVector.from_serial(dbasis, serial, x)

    def check(dop, products):
        for _ in range(products):
            y = dop.matvec(dx)
            np.testing.assert_allclose(y.to_serial(serial), expected, rtol=1e-13, atol=1e-13)
        return dop

    options = dict(method=method, batch_size=batch_size)
    check(DistributedOperator(expression, dbasis, plan=False, **options), 1)
    planned = check(DistributedOperator(expression, dbasis, **options), 3)
    with plan_budget(planned.plan.nbytes // 3):
        partial = DistributedOperator(expression, dbasis, **options)
    check(partial, 2)


@pytest.mark.parametrize("sector", SECTORS)
def test_scales_are_the_source_scales_of_the_sums(sector):
    """``scales`` is derived from the stored ``norms`` and still equals
    ``source_scales`` of the parts' stabilizer sums bit for bit."""
    _, dbasis, _ = bases(sector, "sim", 3)
    for part, norms, scales in zip(dbasis.parts, dbasis.norms, dbasis.scales):
        sums = sector_sums(dbasis.template, part)
        assert norms.tobytes() == np.sqrt(sums).tobytes()
        assert scales.tobytes() == source_scales(sums).tobytes()


@pytest.mark.parametrize("sector", SECTORS)
def test_serial_source_scale_is_one_over_root_of_the_sums(sector):
    """The serial basis derives ``source_scale`` from its stabilizer sums
    on each access, bit for bit ``1/sqrt(N_r)``."""
    serial, _, _ = bases(sector, "sim", 3)
    expected = 1 / np.sqrt(serial.stabilizer_sums)
    assert serial.source_scale.tobytes() == expected.tobytes()
