"""Saving and loading vectors as per-locale ``.npy`` chunks + a manifest.

Writes are crash-safe and reads are self-validating:

- every chunk and every manifest is written with
  :func:`~repro.resilience.checkpoint.atomic_write`, so a writer killed
  mid-save never leaves a half-written file under the final name (the
  manifest is written *last*, making it the commit record);
- the manifest stores a CRC32, byte count, dtype, and length for every
  chunk, and loading verifies all four — a truncated, corrupted, or
  swapped ``.npy`` chunk raises :class:`~repro.errors.CheckpointError`
  instead of silently feeding garbage into a solver; so does a manifest
  with a missing or mistyped field.
"""

from __future__ import annotations

import io
import json
import zlib
from pathlib import Path

import numpy as np

from repro.distributed.block import BlockArray
from repro.distributed.convert import block_to_hashed, hashed_to_block
from repro.distributed.dist_basis import DistributedBasis
from repro.distributed.hashing import locale_of
from repro.distributed.vector import DistributedVector
from repro.errors import CheckpointError, DistributionError
from repro.resilience.checkpoint import atomic_write
from repro.runtime.cluster import Cluster

__all__ = [
    "save_block_array",
    "load_block_array",
    "save_distributed_vector",
    "load_distributed_vector",
    "save_basis_states",
    "load_basis_states",
]

_MANIFEST = "manifest.json"

#: The fields loading reads, with their JSON types: of the manifest, and
#: of each of its ``chunks`` entries.
_MANIFEST_FIELDS = dict(name=str, n_locales=int, global_length=int, chunks=list)
_CHUNK_FIELDS = dict(crc32=int, nbytes=int, dtype=str, length=int)


def _save_chunk(path: Path, array: np.ndarray) -> dict:
    """Atomically save one chunk; return its manifest entry."""
    buffer = io.BytesIO()
    np.save(buffer, array)
    data = buffer.getvalue()
    atomic_write(path, data)
    return {
        "file": path.name,
        "crc32": zlib.crc32(data) & 0xFFFFFFFF,
        "nbytes": len(data),
        "dtype": str(array.dtype),
        "length": int(array.shape[0]),
    }


def _load_chunk(path: Path, entry: dict) -> np.ndarray:
    """Load one chunk, verifying it against its manifest entry."""
    try:
        data = path.read_bytes()
    except FileNotFoundError as exc:
        raise CheckpointError(f"missing chunk file {path}") from exc
    if len(data) != entry["nbytes"]:
        raise CheckpointError(
            f"chunk {path} is {len(data)} bytes, manifest says "
            f"{entry['nbytes']} (truncated or overwritten?)"
        )
    crc = zlib.crc32(data) & 0xFFFFFFFF
    if crc != entry["crc32"]:
        raise CheckpointError(
            f"chunk {path} failed its CRC32 check "
            f"(got {crc:#010x}, manifest says {entry['crc32']:#010x})"
        )
    array = np.load(io.BytesIO(data))
    if str(array.dtype) != entry["dtype"]:
        raise CheckpointError(
            f"chunk {path} has dtype {array.dtype}, manifest says "
            f"{entry['dtype']}"
        )
    if array.shape[0] != entry["length"]:
        raise CheckpointError(
            f"chunk {path} has length {array.shape[0]}, manifest says "
            f"{entry['length']}"
        )
    return array


def _check_fields(record, fields: dict, where: str) -> None:
    """Raise :class:`CheckpointError` unless ``record`` is a JSON object
    holding every key of ``fields`` with exactly that type."""
    for key, kind in fields.items():
        if not isinstance(record, dict) or type(record.get(key)) is not kind:
            raise CheckpointError(f"{where} has no {kind.__name__} {key!r}")


def _read_manifest(directory: Path, name: str) -> dict:
    path = directory / f"{name}.{_MANIFEST}"
    try:
        text = path.read_text()
    except FileNotFoundError as exc:
        raise CheckpointError(f"missing manifest {path}") from exc
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"manifest {path} is not valid JSON") from exc
    _check_fields(manifest, _MANIFEST_FIELDS, f"manifest {path}")
    chunks, n_locales = manifest["chunks"], manifest["n_locales"]
    if n_locales < 1 or len(chunks) != n_locales:
        raise CheckpointError(
            f"manifest {path} lists {len(chunks)} chunks for "
            f"{n_locales} locales"
        )
    for locale, entry in enumerate(chunks):
        _check_fields(entry, _CHUNK_FIELDS, f"manifest {path} chunk {locale}")
    return manifest


def _load_chunks(directory: Path, manifest: dict) -> list[np.ndarray]:
    name = manifest["name"]
    return [
        _load_chunk(directory / f"{name}.{locale}.npy", entry)
        for locale, entry in enumerate(manifest["chunks"])
    ]


def save_block_array(directory, array: BlockArray, name: str = "vector") -> Path:
    """Write one ``.npy`` per locale plus a manifest; returns the manifest
    path.  In a real deployment each locale writes its own chunk in
    parallel — which is exactly why the block distribution is used.

    Every chunk goes through ``atomic_write``, and the manifest
    (with per-chunk CRC32s) lands last, so readers never observe a
    half-written save under the final names.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = [
        _save_chunk(directory / f"{name}.{locale}.npy", block)
        for locale, block in enumerate(array.blocks)
    ]
    manifest = {
        "name": name,
        "n_locales": array.cluster.n_locales,
        "global_length": array.global_length,
        "dtype": str(array.dtype),
        "chunks": entries,
    }
    path = directory / f"{name}.{_MANIFEST}"
    atomic_write(path, json.dumps(manifest, indent=2).encode())
    return path


def load_block_array(directory, cluster: Cluster, name: str = "vector") -> BlockArray:
    directory = Path(directory)
    manifest = _read_manifest(directory, name)
    if manifest["n_locales"] != cluster.n_locales:
        raise DistributionError(
            f"file was written from {manifest['n_locales']} locales, "
            f"cluster has {cluster.n_locales}"
        )
    return BlockArray(cluster, _load_chunks(directory, manifest))


def _basis_masks(basis: DistributedBasis) -> tuple[np.ndarray, BlockArray]:
    """Sorted global states and their block-distributed destination masks."""
    states = basis.global_states()
    masks = BlockArray.from_global(
        basis.cluster, locale_of(states, basis.n_locales)
    )
    return states, masks


def save_distributed_vector(
    directory, vector: DistributedVector, name: str = "vector"
) -> Path:
    """Convert a hashed-distribution vector to block layout and save it.

    The element order on disk is the globally sorted basis-state order, so
    files written from different locale counts are interchangeable.
    """
    basis = vector.basis
    _, masks = _basis_masks(basis)
    block, _ = hashed_to_block(vector.parts, masks)
    return save_block_array(directory, block, name=name)


def save_basis_states(
    directory, basis: DistributedBasis, name: str = "basis"
) -> Path:
    """Persist an enumerated basis (the representative list).

    Enumeration scans the full ``2**n`` range, so production workflows save
    the result and reload it for subsequent runs; the file stores the
    globally sorted states through the block distribution, so it is
    locale-count independent.
    """
    states, masks = _basis_masks(basis)
    block = BlockArray.from_global(basis.cluster, states)
    # Sanity: the hashed parts reassemble into exactly these states.
    rebuilt, _ = hashed_to_block(basis.parts, masks)
    if not all(
        np.array_equal(a, b) for a, b in zip(rebuilt.blocks, block.blocks)
    ):
        raise DistributionError("basis parts are inconsistent; not saving")
    return save_block_array(directory, block, name=name)


def load_basis_states(
    directory, cluster: Cluster, template, name: str = "basis"
) -> DistributedBasis:
    """Rebuild a :class:`DistributedBasis` from a saved representative list.

    ``template`` is the physics description (the same object passed to
    :func:`~repro.distributed.enumeration.enumerate_states`); the target
    cluster may differ from the writer's.
    """
    directory = Path(directory)
    manifest = _read_manifest(directory, name)
    states = np.concatenate(_load_chunks(directory, manifest))
    block = BlockArray.from_global(cluster, states)
    masks = BlockArray.from_global(
        cluster, locale_of(states, cluster.n_locales)
    )
    parts, _ = block_to_hashed(block, masks)
    return DistributedBasis(cluster, template, parts)


def load_distributed_vector(
    directory, basis: DistributedBasis, name: str = "vector"
) -> DistributedVector:
    """Load a vector saved by :func:`save_distributed_vector`.

    The target cluster may have a different locale count than the writer:
    the block file is re-read into the current block distribution and
    converted to the hashed distribution of ``basis``.
    """
    directory = Path(directory)
    manifest = _read_manifest(directory, name)
    if manifest["global_length"] != basis.dim:
        raise DistributionError(
            f"vector on disk has length {manifest['global_length']}, "
            f"basis has dimension {basis.dim}"
        )
    block = BlockArray.from_global(
        basis.cluster, np.concatenate(_load_chunks(directory, manifest))
    )
    _, masks = _basis_masks(basis)
    parts, _ = block_to_hashed(block, masks)
    return DistributedVector(basis, parts)
