"""Workload fingerprints: the cache key of the autotuner.

A tuned knob assignment is only transferable between runs that present
the *same* optimization problem: the same compiled Hamiltonian (the
primitives determine how many elements each row emits), the same sector
and distribution (the basis dimension and per-locale counts set the work
per locale), the same cluster shape and machine rates (they set the
stage times the knobs balance), and the same execution backend (sim
tunes simulated seconds, threads tunes wall seconds).  The fingerprint
hashes exactly that tuple — nothing more, so e.g. telemetry settings or
fault plans never fragment the cache — into a stable hex digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict

__all__ = ["workload_fingerprint"]

#: Bump when the fingerprint recipe changes (stale keys must not alias).
FINGERPRINT_RECIPE = 1


def _feed(h, label: str, value) -> None:
    h.update(label.encode())
    h.update(b"=")
    if hasattr(value, "tobytes"):  # ndarray
        h.update(value.tobytes())
    else:
        h.update(repr(value).encode())
    h.update(b";")


def workload_fingerprint(compiled, basis, method: str = "pc") -> str:
    """A stable hex key for (Hamiltonian, sector, cluster, backend, method).

    ``compiled`` is a :class:`~repro.operators.compile.CompiledOperator`;
    its primitive arrays are hashed byte-for-byte, so any change to the
    expression (couplings included) yields a new key.  ``basis`` is a
    :class:`~repro.distributed.dist_basis.DistributedBasis`; the sector
    enters through the dimension, Hamming weight, and the per-locale
    counts of the hashed distribution.  The cluster contributes its
    locale count, backend, and every field of the (frozen dataclass)
    machine model, network included.
    """
    h = hashlib.sha256()
    _feed(h, "recipe", FINGERPRINT_RECIPE)
    _feed(h, "method", method)
    # -- Hamiltonian ----------------------------------------------------
    compiled.feed(h)
    # -- sector / distribution ------------------------------------------
    _feed(h, "dim", basis.dim)
    _feed(h, "hamming_weight", basis.template.hamming_weight)
    _feed(h, "counts", basis.counts)
    # -- cluster / backend ----------------------------------------------
    cluster = basis.cluster
    _feed(h, "n_locales", cluster.n_locales)
    _feed(h, "backend", getattr(cluster, "backend", "sim"))
    for key, value in sorted(asdict(cluster.machine).items()):
        _feed(h, f"machine.{key}", value)
    return h.hexdigest()[:32]
