"""CRC32-manifested, atomically renamed solver checkpoints.

Checkpoint layout (one directory per snapshot)::

    <dir>/ckpt-000042/
        state.npz        # small dense state (tridiagonal coeffs, ...)
        v0000.npy        # Krylov vectors — NumpyVectorSpace layout, or
        v0000.0.npy      # per-locale chunks + manifest for the
        v0000.manifest.json   # DistributedVectorSpace (repro.io.vectors)
        manifest.json    # written LAST: CRC32 + byte count of every file

Write protocol: everything is written into ``ckpt-NNNNNN.tmp``, the
top-level ``manifest.json`` (the commit record) is written last with
:func:`atomic_write`, and the whole directory is then renamed to its final
name with :func:`os.replace`.  A writer killed at *any* point
leaves either the previous checkpoint intact or a ``.tmp`` directory that
readers ignore — never a half-written ``ckpt-NNNNNN``.

Read protocol: :func:`load_checkpoint` re-hashes every file against the
manifest and raises :class:`~repro.errors.CheckpointError` on any
mismatch; :func:`load_latest_checkpoint` walks checkpoints newest-first,
skipping corrupt ones (counted as ``checkpoint.skipped_corrupt``).

Concurrency: writers sharing one directory (e.g. a restarted solver racing
its predecessor's last save, or two solver instances pointed at the same
path) serialize on an ``flock``-ed ``<dir>/.lock`` file, so tmp-dir reuse,
the final rename, and pruning never interleave.  Readers take no lock —
they rely on the manifest check instead, and treat a checkpoint pruned out
from under them as corrupt (skipped), never as a crash.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import tempfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro import telemetry
from repro.errors import CheckpointError

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

__all__ = [
    "atomic_write",
    "CheckpointState",
    "write_checkpoint",
    "load_checkpoint",
    "load_latest_checkpoint",
    "latest_checkpoint",
    "list_checkpoints",
]

_PREFIX = "ckpt-"
_MANIFEST = "manifest.json"
_FORMAT = 1


@dataclass
class CheckpointState:
    """Everything restored from one checkpoint."""

    iteration: int
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)
    vectors: list[Any] = field(default_factory=list)
    path: Path | None = None


def atomic_write(path, data: bytes) -> None:
    """Replace ``path`` with ``data`` so that a crash at any point leaves
    the old file or the whole new one, never a torn or empty one: the
    bytes go to a fresh temporary file in the same directory, which is
    fsynced before :func:`os.replace` moves it over ``path`` (and unlinked
    if anything fails)."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _crc_entry(path: Path) -> dict:
    data = path.read_bytes()
    return {"crc32": zlib.crc32(data) & 0xFFFFFFFF, "nbytes": len(data)}


def _checkpoint_files(root: Path) -> list[Path]:
    return sorted(
        p for p in root.rglob("*") if p.is_file() and p.name != _MANIFEST
    )


@contextlib.contextmanager
def _write_lock(directory: Path):
    """Mutual exclusion between checkpoint writers on one directory.

    ``flock`` conflicts between distinct open file descriptions, so this
    serializes both separate processes and separate threads of one
    process (each entry opens its own handle).  Degrades to a no-op where
    ``fcntl`` is unavailable.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        yield
        return
    with open(directory / ".lock", "ab") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def write_checkpoint(
    directory,
    iteration: int,
    *,
    arrays: dict[str, np.ndarray] | None = None,
    meta: dict[str, Any] | None = None,
    vectors: Sequence[Any] = (),
    space=None,
    keep: int = 2,
) -> Path:
    """Atomically write checkpoint ``iteration`` under ``directory``.

    ``vectors`` are saved through ``space.save_vector`` (NumPy arrays in
    memory, or per-locale chunked IO for distributed vectors); ``arrays``
    go into a single ``state.npz``; ``meta`` must be JSON-serialisable
    (this is where RNG state travels).  At most ``keep`` finished
    checkpoints are retained (older ones are pruned after the rename).
    """
    if vectors and space is None:
        raise ValueError("saving vectors requires a vector space")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    final = directory / f"{_PREFIX}{iteration:06d}"
    tmp = directory / (final.name + ".tmp")
    with _write_lock(directory):
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir()
        if arrays:
            with open(tmp / "state.npz", "wb") as handle:
                np.savez(handle, **arrays)
        for index, vector in enumerate(vectors):
            space.save_vector(tmp, f"v{index:04d}", vector)
        files = {
            str(path.relative_to(tmp)): _crc_entry(path)
            for path in _checkpoint_files(tmp)
        }
        manifest = {
            "format": _FORMAT,
            "iteration": int(iteration),
            "meta": meta if meta is not None else {},
            "n_vectors": len(vectors),
            "files": files,
        }
        atomic_write(tmp / _MANIFEST, json.dumps(manifest, indent=2).encode())
        if final.exists():
            shutil.rmtree(final)
        os.replace(tmp, final)
        if keep > 0:
            for stale in list_checkpoints(directory)[:-keep]:
                shutil.rmtree(stale, ignore_errors=True)
    return final


def list_checkpoints(directory) -> list[Path]:
    """Finished checkpoint directories, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        p
        for p in directory.iterdir()
        if p.is_dir()
        and p.name.startswith(_PREFIX)
        and not p.name.endswith(".tmp")
        and (p / _MANIFEST).is_file()
    )


def latest_checkpoint(directory) -> Path | None:
    """The newest finished checkpoint, or ``None``."""
    found = list_checkpoints(directory)
    return found[-1] if found else None


def load_checkpoint(path, *, space=None, like=None) -> CheckpointState:
    """Load and verify one checkpoint directory.

    Every file is re-hashed against the manifest before anything is
    deserialised; any mismatch (missing file, truncation, bit flip,
    unexpected extra state) raises :class:`CheckpointError`.
    """
    path = Path(path)
    manifest_path = path / _MANIFEST
    try:
        manifest = json.loads(manifest_path.read_text())
    except FileNotFoundError as exc:
        raise CheckpointError(f"no manifest in checkpoint {path}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint manifest {manifest_path} is not valid JSON"
        ) from exc
    if manifest.get("format") != _FORMAT:
        raise CheckpointError(
            f"checkpoint {path} has format {manifest.get('format')!r}, "
            f"this build reads format {_FORMAT}"
        )
    files = manifest["files"]
    try:
        on_disk = {str(p.relative_to(path)) for p in _checkpoint_files(path)}
        missing = sorted(set(files) - on_disk)
        if missing:
            raise CheckpointError(f"checkpoint {path} is missing {missing}")
        for rel, expected in sorted(files.items()):
            entry = _crc_entry(path / rel)
            if entry != expected:
                raise CheckpointError(
                    f"checkpoint file {path / rel} failed integrity check: "
                    f"manifest says {expected}, file has {entry}"
                )
        # The manifest decides what must exist: probing the filesystem
        # instead would let a checkpoint pruned mid-load read back as
        # one with no arrays rather than as CheckpointError.
        arrays: dict[str, np.ndarray] = {}
        if "state.npz" in files:
            with np.load(path / "state.npz") as bundle:
                arrays = {key: bundle[key] for key in bundle.files}
        n_vectors = manifest.get("n_vectors", 0)
        if n_vectors and space is None:
            raise CheckpointError(
                f"checkpoint {path} holds {n_vectors} vectors; pass the "
                "solver's vector space to load them"
            )
        vectors = [
            space.load_vector(path, f"v{index:04d}", like=like)
            for index in range(n_vectors)
        ]
    except FileNotFoundError as exc:
        # A concurrent writer's keep-N prune can delete this checkpoint
        # between the manifest read and the file hashing: treat it as
        # corrupt (the caller skips to an older/newer one), not a crash.
        raise CheckpointError(
            f"checkpoint {path} vanished while loading "
            "(pruned by a concurrent writer?)"
        ) from exc
    return CheckpointState(
        iteration=int(manifest["iteration"]),
        arrays=arrays,
        meta=dict(manifest.get("meta", {})),
        vectors=vectors,
        path=path,
    )


def load_latest_checkpoint(directory, *, space=None, like=None) -> CheckpointState:
    """Load the newest checkpoint that passes integrity verification.

    Corrupt or half-valid checkpoints are skipped (newest first, counted
    as ``checkpoint.skipped_corrupt``); if nothing under ``directory``
    loads, raises :class:`CheckpointError`.
    """
    directory = Path(directory)
    failures: list[str] = []
    for path in reversed(list_checkpoints(directory)):
        try:
            return load_checkpoint(path, space=space, like=like)
        except CheckpointError as exc:
            telemetry.current().metrics.counter(
                "checkpoint.skipped_corrupt"
            ).inc()
            failures.append(f"{path.name}: {exc}")
    detail = f" ({'; '.join(failures)})" if failures else ""
    raise CheckpointError(
        f"no loadable checkpoint under {directory}{detail}"
    )
