"""Solver checkpoints (see ``docs/RESILIENCE.md``).

:mod:`repro.resilience.checkpoint` writes CRC32-manifested, atomically
renamed snapshots of the Lanczos state, which :func:`repro.linalg.lanczos`
uses for bit-for-bit identical restarts.
"""

from repro.resilience.checkpoint import (
    list_checkpoints,
    load_checkpoint,
    load_latest_checkpoint,
    write_checkpoint,
)

__all__ = [
    "write_checkpoint",
    "load_checkpoint",
    "load_latest_checkpoint",
    "list_checkpoints",
]
