"""Tests for the SPINPACK-like bulk-synchronous baseline."""

import numpy as np
import pytest

import repro
from repro.baselines import SpinpackBasis, SpinpackOperator
from repro.basis import SpinBasis, SymmetricBasis
from repro.errors import BasisError
from repro.runtime import Cluster, laptop_machine
from repro.symmetry import chain_symmetries


def make(n=12, w=6, n_locales=3, sector=dict(momentum=0, parity=0, inversion=0)):
    group = chain_symmetries(n, **sector)
    serial = SymmetricBasis(group, hamming_weight=w)
    cluster = Cluster(n_locales, laptop_machine(cores=4))
    basis = SpinpackBasis.from_serial(cluster, serial)
    return serial, basis


class TestSpinpackBasis:
    def test_parts_cover_serial_states(self):
        serial, basis = make()
        assert np.array_equal(np.concatenate(basis.parts), serial.states)
        assert basis.dim == serial.dim

    def test_rank_of_matches_ownership(self):
        serial, basis = make()
        for locale, part in enumerate(basis.parts):
            assert np.all(basis.rank_of(part) == locale)

    def test_vector_roundtrip(self, rng):
        serial, basis = make()
        x = rng.standard_normal(serial.dim)
        v = basis.vector_from_serial(serial, x)
        assert np.allclose(basis.vector_to_serial(serial, v), x)

    def test_rejects_unsorted_states(self):
        serial, _ = make(n=8, w=4)
        cluster = Cluster(2, laptop_machine())
        states = serial.states[::-1].copy()
        with pytest.raises(BasisError, match="not above the state before it"):
            SpinpackBasis(cluster, serial, states)

    def test_scales_present_for_symmetric_basis(self):
        _, basis = make()
        assert basis.scales is not None

    def test_no_scales_for_plain_basis(self):
        serial = SpinBasis(8, hamming_weight=4)
        cluster = Cluster(2, laptop_machine())
        basis = SpinpackBasis.from_serial(cluster, serial)
        assert basis.scales is None


class TestSpinpackMatvec:
    @pytest.mark.parametrize("n_locales", [1, 2, 4])
    def test_matches_serial(self, n_locales, rng):
        serial, basis = make(n_locales=n_locales)
        expr = repro.heisenberg_chain(12)
        op = SpinpackOperator(expr, basis, batch_size=32)
        serial_op = repro.Operator(expr, serial)
        x = rng.standard_normal(serial.dim)
        y, report = op.matvec(basis.vector_from_serial(serial, x))
        assert np.allclose(
            basis.vector_to_serial(serial, y), serial_op.matvec(x)
        )
        assert report.elapsed > 0

    def test_u1_basis(self, rng):
        serial = SpinBasis(10, hamming_weight=5)
        cluster = Cluster(3, laptop_machine(cores=4))
        basis = SpinpackBasis.from_serial(cluster, serial)
        expr = repro.xxz_chain(10, jz=0.5)
        op = SpinpackOperator(expr, basis, batch_size=16)
        serial_op = repro.Operator(expr, serial)
        x = rng.standard_normal(serial.dim)
        y, _ = op.matvec(basis.vector_from_serial(serial, x))
        assert np.allclose(basis.vector_to_serial(serial, y), serial_op.matvec(x))

    def test_phases_are_bulk_synchronous(self, rng):
        serial, basis = make()
        op = SpinpackOperator(repro.heisenberg_chain(12), basis, batch_size=16)
        x = basis.vector_from_serial(serial, rng.standard_normal(serial.dim))
        _, report = op.matvec(x)
        # elapsed is the *sum* of the synchronized phases (no overlap)
        total = sum(report.phase_elapsed.values())
        assert report.elapsed == pytest.approx(total)
        assert set(report.phase_elapsed) >= {"generate", "alltoallv", "accumulate"}

    def test_total_sim_time_accumulates(self, rng):
        serial, basis = make()
        op = SpinpackOperator(repro.heisenberg_chain(12), basis)
        x = basis.vector_from_serial(serial, rng.standard_normal(serial.dim))
        op.matvec(x)
        t1 = op.total_sim_time
        op.matvec(x)
        assert op.total_sim_time > t1

    def test_partial_basis_raises_like_the_serial_product(self):
        """A partial representative list is a valid basis whose products
        meet states outside it: a BasisError, as from the serial product
        (SpinPack's bare ``searchsorted`` used to run off its block or add
        into a neighbour's row)."""
        group = chain_symmetries(12, momentum=0, parity=0, inversion=0)
        full = SymmetricBasis(group, hamming_weight=6).states
        partial = SymmetricBasis.from_representatives(group, full[::2], 6)
        expr = repro.heisenberg_chain(12)
        x = np.ones(partial.dim)
        with pytest.raises(BasisError, match="not found in the basis"):
            repro.Operator(expr, partial).matvec(x)
        basis = SpinpackBasis.from_serial(
            Cluster(3, laptop_machine(cores=4)), partial
        )
        with pytest.raises(BasisError, match="not found in the basis"):
            SpinpackOperator(expr, basis).matvec(
                basis.vector_from_serial(partial, x)
            )

    def test_batch_size_does_not_change_result(self, rng):
        serial, basis = make()
        expr = repro.heisenberg_chain(12)
        x = basis.vector_from_serial(serial, rng.standard_normal(serial.dim))
        y1, _ = SpinpackOperator(expr, basis, batch_size=8).matvec(x)
        y2, _ = SpinpackOperator(expr, basis, batch_size=1024).matvec(x)
        for a, b in zip(y1.blocks, y2.blocks):
            assert np.allclose(a, b)
