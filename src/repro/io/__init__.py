"""Vector I/O through the block distribution.

The hashed distribution is an implementation detail; for writing results to
disk and talking to other packages the paper converts to the block
distribution, whose contiguous per-locale chunks map directly to parallel
file writes (Sec. 5.1).  This package does the same: distributed vectors
are converted with :func:`~repro.distributed.convert.hashed_to_block` and
stored one ``.npy`` file per locale plus a JSON manifest.
"""

from repro.io.vectors import (
    load_distributed_vector,
    save_block_array,
    save_distributed_vector,
)

__all__ = [
    "save_block_array",
    "save_distributed_vector",
    "load_distributed_vector",
]
