"""Tests for distributed vectors and the distributed vector space."""

import numpy as np
import pytest

import repro
from repro.basis import SpinBasis
from repro.distributed import (
    DistributedVector,
    DistributedVectorSpace,
    enumerate_states,
)
from repro.errors import DistributionError
from repro.runtime import Cluster, laptop_machine


@pytest.fixture
def setup():
    serial = SpinBasis(10, hamming_weight=5)
    cluster = Cluster(3, laptop_machine(cores=4))
    dbasis, _ = enumerate_states(cluster, SpinBasis(10, hamming_weight=5))
    return serial, dbasis


class TestDistributedVector:
    def test_serial_roundtrip(self, setup, rng):
        serial, dbasis = setup
        x = rng.standard_normal(serial.dim)
        dv = DistributedVector.from_serial(dbasis, serial, x)
        assert np.array_equal(dv.to_serial(serial), x)

    def test_zeros(self, setup):
        _, dbasis = setup
        z = DistributedVector.zeros(dbasis)
        assert z.dim == dbasis.dim
        assert all(np.all(p == 0) for p in z.parts)

    def test_full_random_deterministic(self, setup):
        _, dbasis = setup
        a = DistributedVector.full_random(dbasis, seed=7)
        b = DistributedVector.full_random(dbasis, seed=7)
        for pa, pb in zip(a.parts, b.parts):
            assert np.array_equal(pa, pb)

    def test_full_random_complex(self, setup):
        _, dbasis = setup
        v = DistributedVector.full_random(dbasis, seed=1, dtype=np.complex128)
        assert v.dtype == np.complex128
        assert any(np.any(p.imag != 0) for p in v.parts)

    def test_copy_independent(self, setup):
        _, dbasis = setup
        a = DistributedVector.full_random(dbasis, seed=0)
        b = a.copy()
        b.parts[0][:] = 0
        assert not np.array_equal(a.parts[0], b.parts[0])

    def test_fill(self, setup):
        _, dbasis = setup
        v = DistributedVector.zeros(dbasis)
        v.fill(2.5)
        assert all(np.all(p == 2.5) for p in v.parts)

    def test_nbytes_sums_the_parts(self, setup):
        _, dbasis = setup
        v = DistributedVector.full_random(dbasis, seed=0, columns=3)
        assert v.nbytes == 8 * 3 * dbasis.dim

    def test_shape_validation(self, setup):
        _, dbasis = setup
        parts = [np.zeros(int(c) + 1) for c in dbasis.counts]
        with pytest.raises(DistributionError):
            DistributedVector(dbasis, parts)

    def test_length_validation_from_serial(self, setup):
        serial, dbasis = setup
        with pytest.raises(DistributionError):
            DistributedVector.from_serial(dbasis, serial, np.zeros(3))


class TestDistributedVectorSpace:
    def test_dot_matches_numpy(self, setup, rng):
        serial, dbasis = setup
        x = rng.standard_normal(serial.dim)
        y = rng.standard_normal(serial.dim)
        dx = DistributedVector.from_serial(dbasis, serial, x)
        dy = DistributedVector.from_serial(dbasis, serial, y)
        space = DistributedVectorSpace(dbasis)
        assert space.dot(dx, dy) == pytest.approx(float(x @ y))

    def test_dot_complex_conjugates_first_argument(self, setup, rng):
        serial, dbasis = setup
        x = rng.standard_normal(serial.dim) + 1j * rng.standard_normal(serial.dim)
        y = rng.standard_normal(serial.dim) + 1j * rng.standard_normal(serial.dim)
        dx = DistributedVector.from_serial(dbasis, serial, x)
        dy = DistributedVector.from_serial(dbasis, serial, y)
        space = DistributedVectorSpace(dbasis)
        assert space.dot(dx, dy) == pytest.approx(complex(np.vdot(x, y)))

    def test_norm(self, setup, rng):
        serial, dbasis = setup
        x = rng.standard_normal(serial.dim)
        dx = DistributedVector.from_serial(dbasis, serial, x)
        space = DistributedVectorSpace(dbasis)
        assert space.norm(dx) == pytest.approx(float(np.linalg.norm(x)))

    def test_scale(self, setup, rng):
        serial, dbasis = setup
        x = rng.standard_normal(serial.dim)
        dx = DistributedVector.from_serial(dbasis, serial, x)
        space = DistributedVectorSpace(dbasis)
        space.scale(-2.0, dx)
        assert np.allclose(dx.to_serial(serial), -2.0 * x)

    def test_operations_accumulate_simulated_time(self, setup):
        _, dbasis = setup
        space = DistributedVectorSpace(dbasis)
        x = DistributedVector.full_random(dbasis, seed=0)
        assert space.report.elapsed == 0.0
        space.dot(x, x)
        t1 = space.report.elapsed
        assert t1 > 0
        space.norm(x)
        assert space.report.elapsed > t1
        assert "allreduce" in space.report.phase_elapsed
