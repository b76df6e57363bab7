"""Distributed Krylov workloads beyond the eigensolver: time evolution and
spectral functions running on the simulated cluster's vector space."""

import numpy as np
import pytest
import scipy.linalg as sla

import repro
from repro.basis import SymmetricBasis
from repro.distributed import (
    DistributedOperator,
    DistributedVector,
    DistributedVectorSpace,
    enumerate_states,
)
from repro.linalg import expm_krylov, ftlm_thermal, spectral_function
from repro.runtime import Cluster, laptop_machine
from repro.symmetry import chain_symmetries


@pytest.fixture(scope="module")
def setup():
    n, w = 12, 6
    group = chain_symmetries(n, momentum=0, parity=0, inversion=0)
    serial = SymmetricBasis(group, hamming_weight=w)
    cluster = Cluster(3, laptop_machine(cores=4))
    template = SymmetricBasis(group, hamming_weight=w, build=False)
    dbasis, _ = enumerate_states(cluster, template, use_weight_shortcut=True)
    dop = DistributedOperator(
        repro.heisenberg_chain(n), dbasis, batch_size=128
    )
    serial_op = repro.Operator(repro.heisenberg_chain(n), serial)
    return serial, serial_op, dbasis, dop


class TestDistributedTimeEvolution:
    def test_matches_dense_expm(self, setup, rng):
        serial, serial_op, dbasis, dop = setup
        space = DistributedVectorSpace(dbasis)
        xs = rng.standard_normal(serial.dim).astype(np.complex128)
        xs /= np.linalg.norm(xs)
        x = DistributedVector.from_serial(dbasis, serial, xs)
        y = expm_krylov(dop.matvec, x, scale=-0.3j, krylov_dim=35, space=space)
        y_ref = sla.expm(-0.3j * serial_op.to_dense()) @ xs
        assert np.allclose(y.to_serial(serial), y_ref, atol=1e-8)

    def test_real_dtype_promoted_to_complex(self, setup, rng):
        serial, _, dbasis, dop = setup
        space = DistributedVectorSpace(dbasis)
        x = DistributedVector.full_random(dbasis, seed=0)
        y = expm_krylov(dop.matvec, x, scale=-0.1j, krylov_dim=20, space=space)
        assert y.dtype == np.complex128

    def test_simulated_time_accumulates(self, setup):
        serial, _, dbasis, dop = setup
        space = DistributedVectorSpace(dbasis)
        x = DistributedVector.full_random(dbasis, seed=1)
        before = dop.total_sim_time
        expm_krylov(dop.matvec, x, scale=-0.1j, krylov_dim=10, space=space)
        assert dop.total_sim_time > before
        assert space.report.elapsed > 0


class TestDistributedThermal:
    def test_dim_defaults_to_the_basis_dimension(self, setup):
        """A distributed prototype without ``dim`` used to end in
        ``AttributeError`` (no ``shape``)."""
        _, _, dbasis, dop = setup
        temperatures = np.array([0.5, 2.0])
        given, default = [
            ftlm_thermal(
                dop.matvec, DistributedVector.zeros(dbasis), temperatures,
                krylov_dim=10, n_samples=2, seed=3,
                space=DistributedVectorSpace(dbasis), **dim,
            )
            for dim in ({"dim": dbasis.dim}, {})
        ]
        for field in ("energy", "specific_heat", "partition_function"):
            np.testing.assert_allclose(
                getattr(default, field), getattr(given, field), rtol=1e-12, atol=0
            )


class TestDistributedSpectralFunction:
    def test_matches_serial_spectral_function(self, setup, rng):
        serial, serial_op, dbasis, dop = setup
        space = DistributedVectorSpace(dbasis)
        # seed both computations with the same vector
        seed_serial = rng.standard_normal(serial.dim)
        seed_dist = DistributedVector.from_serial(dbasis, serial, seed_serial)
        sf_serial = spectral_function(
            serial_op.matvec, seed_serial, krylov_dim=60
        )
        sf_dist = spectral_function(
            dop.matvec, seed_dist, krylov_dim=60, space=space
        )
        assert sf_dist.total_weight == pytest.approx(
            sf_serial.total_weight, rel=1e-10
        )
        omega = np.linspace(-8, 2, 100)
        assert np.allclose(
            sf_dist(omega, 0.1), sf_serial(omega, 0.1), atol=1e-8
        )
