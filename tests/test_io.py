"""Tests for vector I/O through the block distribution."""

import json

import numpy as np
import pytest

import repro
from repro.basis import SpinBasis, SymmetricBasis
from repro.distributed import (
    BlockArray,
    DistributedVector,
    enumerate_states,
)
from repro.errors import CheckpointError, DistributionError
from repro.io import (
    load_distributed_vector,
    save_block_array,
    save_distributed_vector,
)
from repro.runtime import Cluster, laptop_machine
from repro.symmetry import chain_symmetries


class TestBlockArrayIO:
    def test_roundtrip(self, tmp_path, rng):
        """A block array in sorted basis-state order, saved as it is, loads
        as the distributed vector of those amplitudes."""
        template = SpinBasis(10, hamming_weight=5)
        dbasis, _ = enumerate_states(Cluster(3, laptop_machine()), template)
        data = rng.standard_normal(dbasis.dim)
        arr = BlockArray.from_global(dbasis.cluster, data)
        save_block_array(tmp_path, arr, name="x")
        loaded = load_distributed_vector(tmp_path, dbasis, name="x")
        assert np.array_equal(loaded.to_serial(template), data)

    def test_manifest_written(self, tmp_path):
        cluster = Cluster(2, laptop_machine())
        arr = BlockArray.from_global(cluster, np.arange(10.0))
        manifest = save_block_array(tmp_path, arr)
        assert manifest.exists()
        assert "global_length" in manifest.read_text()

    def test_dtype_preserved(self, tmp_path, rng):
        """A complex vector of a complex sector saved through the block
        layout loads complex, bit for bit."""
        group = chain_symmetries(10, momentum=1, parity=None, inversion=None)
        serial = SymmetricBasis(group, hamming_weight=5)
        template = SymmetricBasis(group, hamming_weight=5, build=False)
        dbasis, _ = enumerate_states(Cluster(2, laptop_machine()), template)
        x = rng.standard_normal(serial.dim) + 1j * rng.standard_normal(serial.dim)
        vec = DistributedVector.from_serial(dbasis, serial, x)
        save_distributed_vector(tmp_path, vec, name="c")
        loaded = load_distributed_vector(tmp_path, dbasis, name="c")
        assert all(part.dtype == np.complex128 for part in loaded.parts)
        assert np.array_equal(loaded.to_serial(serial), x)


class TestDistributedVectorIO:
    @pytest.fixture
    def setup(self):
        group = chain_symmetries(12, momentum=0, parity=0, inversion=0)
        serial = SymmetricBasis(group, hamming_weight=6)
        cluster = Cluster(3, laptop_machine(cores=2))
        template = SymmetricBasis(group, hamming_weight=6, build=False)
        dbasis, _ = enumerate_states(cluster, template)
        return serial, dbasis

    def test_roundtrip_same_cluster(self, setup, tmp_path, rng):
        serial, dbasis = setup
        x = rng.standard_normal(serial.dim)
        vec = DistributedVector.from_serial(dbasis, serial, x)
        save_distributed_vector(tmp_path, vec, name="gs")
        loaded = load_distributed_vector(tmp_path, dbasis, name="gs")
        assert np.allclose(loaded.to_serial(serial), x)

    def test_roundtrip_different_locale_count(self, setup, tmp_path, rng):
        # Written from 3 locales, read into 2 — the block file format is
        # locale-count independent (sorted basis-state order on disk).
        serial, dbasis3 = setup
        x = rng.standard_normal(serial.dim)
        vec = DistributedVector.from_serial(dbasis3, serial, x)
        save_distributed_vector(tmp_path, vec, name="v")

        cluster2 = Cluster(2, laptop_machine(cores=2))
        group = dbasis3.template.group
        template = SymmetricBasis(group, hamming_weight=6, build=False)
        dbasis2, _ = enumerate_states(cluster2, template)
        loaded = load_distributed_vector(tmp_path, dbasis2, name="v")
        assert np.allclose(loaded.to_serial(serial), x)

    def test_dimension_mismatch_rejected(self, setup, tmp_path, rng):
        serial, dbasis = setup
        vec = DistributedVector.from_serial(
            dbasis, serial, rng.standard_normal(serial.dim)
        )
        save_distributed_vector(tmp_path, vec, name="v")
        other_cluster = Cluster(3, laptop_machine(cores=2))
        other_dbasis, _ = enumerate_states(
            other_cluster, SpinBasis(10, hamming_weight=5)
        )
        with pytest.raises(DistributionError):
            load_distributed_vector(tmp_path, other_dbasis, name="v")

    def test_ground_state_persists(self, setup, tmp_path):
        # end-to-end: solve, save, load, verify energy unchanged
        serial, dbasis = setup
        dop = repro.DistributedOperator(
            repro.heisenberg_chain(12), dbasis, batch_size=128
        )
        result, _ = repro.lanczos_distributed(
            dop, k=1, tol=1e-10, compute_eigenvectors=True
        )
        ground = result.eigenvectors[0]
        save_distributed_vector(tmp_path, ground, name="gs")
        loaded = load_distributed_vector(tmp_path, dbasis, name="gs")
        from repro.distributed import DistributedVectorSpace

        space = DistributedVectorSpace(dbasis)
        hx = dop.matvec(loaded)
        energy = space.dot(loaded, hx) / space.dot(loaded, loaded)
        assert energy == pytest.approx(result.eigenvalues[0], abs=1e-8)


class TestManifestValidation:
    """Only a complete, well-typed manifest loads, and every chunk is
    checked against it: a bad one is a CheckpointError, never a silently
    wrong vector or another exception."""

    @pytest.fixture
    def saved(self, tmp_path):
        group = chain_symmetries(12, momentum=0, parity=0, inversion=0)
        template = SymmetricBasis(group, hamming_weight=6, build=False)
        dbasis, _ = enumerate_states(
            Cluster(2, laptop_machine(cores=2)), template
        )
        x = DistributedVector.full_random(dbasis, seed=1)
        save_distributed_vector(tmp_path, x, name="v")
        return dbasis, tmp_path / "v.manifest.json"

    @staticmethod
    def _edit(path, key, value):
        manifest = json.loads(path.read_text())
        if value is None:
            del manifest[key]
        else:
            manifest[key] = value
        path.write_text(json.dumps(manifest))

    def test_flipped_chunk_under_a_manifest_without_chunks(self, saved):
        dbasis, path = saved
        self._edit(path, "chunks", None)
        chunk = path.parent / "v.0.npy"
        blob = bytearray(chunk.read_bytes())
        blob[-1] ^= 0x40
        chunk.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="'chunks'"):
            load_distributed_vector(path.parent, dbasis, name="v")

    def test_manifest_that_is_not_an_object(self, saved):
        dbasis, path = saved
        path.write_text("[]")
        with pytest.raises(CheckpointError, match="manifest"):
            load_distributed_vector(path.parent, dbasis, name="v")

    @pytest.mark.parametrize("key, value", [
        ("name", None), ("name", 7),
        ("n_locales", None), ("n_locales", "2"), ("n_locales", True),
        ("n_locales", 3), ("n_locales", 0),
        ("global_length", None), ("global_length", 1.5),
        ("chunks", None), ("chunks", {}), ("chunks", []),
        ("chunks", [{}, {}]), ("chunks", [1, 2]),
    ])
    def test_missing_or_mistyped_field(self, saved, key, value):
        dbasis, path = saved
        self._edit(path, key, value)
        with pytest.raises(CheckpointError, match="manifest"):
            load_distributed_vector(path.parent, dbasis, name="v")
