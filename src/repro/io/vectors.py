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
from pathlib import Path

import numpy as np

from repro.distributed.block import BlockArray
from repro.distributed.convert import block_to_hashed, hashed_to_block
from repro.distributed.dist_basis import DistributedBasis
from repro.distributed.hashing import locale_of
from repro.distributed.vector import DistributedVector
from repro.errors import CheckpointError, DistributionError
from repro.resilience.checkpoint import (
    atomic_write,
    check_fields,
    crc_entry,
    read_verified,
)

__all__ = [
    "save_block_array",
    "save_distributed_vector",
    "load_distributed_vector",
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
        **crc_entry(data),
        "dtype": str(array.dtype),
        "length": int(array.shape[0]),
    }


def _load_chunk(path: Path, entry: dict) -> np.ndarray:
    """Load one chunk, verifying it against its manifest entry."""
    data = read_verified(
        path, {"crc32": entry["crc32"], "nbytes": entry["nbytes"]}
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
    check_fields(manifest, _MANIFEST_FIELDS, f"manifest {path}")
    chunks, n_locales = manifest["chunks"], manifest["n_locales"]
    if n_locales < 1 or len(chunks) != n_locales:
        raise CheckpointError(
            f"manifest {path} lists {len(chunks)} chunks for "
            f"{n_locales} locales"
        )
    for locale, entry in enumerate(chunks):
        check_fields(entry, _CHUNK_FIELDS, f"manifest {path} chunk {locale}")
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


def _basis_masks(basis: DistributedBasis) -> BlockArray:
    """The destination locales of the basis' sorted global states, in the
    block distribution."""
    states = basis.global_states()
    return BlockArray.from_global(basis.cluster, locale_of(states, basis.n_locales))


def save_distributed_vector(
    directory, vector: DistributedVector, name: str = "vector"
) -> Path:
    """Convert a hashed-distribution vector to block layout and save it.

    The element order on disk is the globally sorted basis-state order, so
    files written from different locale counts are interchangeable.
    """
    basis = vector.basis
    masks = _basis_masks(basis)
    block, _ = hashed_to_block(vector.parts, masks)
    return save_block_array(directory, block, name=name)


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
    masks = _basis_masks(basis)
    parts, _ = block_to_hashed(block, masks)
    return DistributedVector(basis, parts)
