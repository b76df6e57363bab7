"""Block-distributed arrays (Chapel's ``blockDist``).

The block distribution splits a global array into contiguous, nearly equal
chunks — one per locale.  The paper uses it for I/O and for interoperating
with other packages, converting to/from the internal hashed distribution
with the algorithms of Figs. 2-3 (see :mod:`repro.distributed.convert`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import DistributionError
from repro.runtime.cluster import Cluster

__all__ = ["BlockArray", "block_boundaries"]


def block_boundaries(global_length: int, n_locales: int) -> np.ndarray:
    """Start offsets of each locale's block (length ``n_locales + 1``).

    Matches Chapel's block distribution: the first ``length % n`` blocks
    get one extra element.
    """
    base, extra = divmod(global_length, n_locales)
    sizes = np.full(n_locales, base, dtype=np.int64)
    sizes[:extra] += 1
    return np.concatenate([[0], np.cumsum(sizes)])


class BlockArray:
    """A global array stored as one contiguous block per locale.

    One- and two-dimensional arrays are supported (the paper's conversion
    algorithms handle both); 2-D arrays are distributed along axis 0 with
    whole rows kept local — the layout of a block of Krylov vectors.
    """

    def __init__(self, cluster: Cluster, blocks: list[np.ndarray]) -> None:
        if len(blocks) != cluster.n_locales:
            raise DistributionError(
                f"expected {cluster.n_locales} blocks, got {len(blocks)}"
            )
        ndims = {b.ndim for b in blocks}
        if len(ndims) != 1 or ndims.pop() not in (1, 2):
            raise DistributionError(
                "blocks must all be 1-D or all be 2-D arrays"
            )
        if blocks[0].ndim == 2:
            widths = {b.shape[1] for b in blocks}
            if len(widths) != 1:
                raise DistributionError("2-D blocks must share their width")
        lengths = np.array([b.shape[0] for b in blocks], dtype=np.int64)
        expected = block_boundaries(int(lengths.sum()), cluster.n_locales)
        if not np.array_equal(np.diff(expected), lengths):
            raise DistributionError(
                "block sizes do not match the block distribution: "
                f"{lengths.tolist()} vs {np.diff(expected).tolist()}"
            )
        self.cluster = cluster
        self.blocks = blocks
        self.boundaries = expected

    # -- construction -----------------------------------------------------

    @classmethod
    def from_global(cls, cluster: Cluster, array: np.ndarray) -> "BlockArray":
        array = np.asarray(array)
        if array.ndim not in (1, 2):
            raise DistributionError("only 1-D and 2-D arrays are supported")
        bounds = block_boundaries(array.shape[0], cluster.n_locales)
        blocks = [
            array[bounds[i] : bounds[i + 1]].copy()
            for i in range(cluster.n_locales)
        ]
        return cls(cluster, blocks)

    @classmethod
    def empty(
        cls, cluster: Cluster, global_length: int, dtype, width: int | None = None
    ) -> "BlockArray":
        bounds = block_boundaries(global_length, cluster.n_locales)
        blocks = [
            np.empty(
                int(bounds[i + 1] - bounds[i])
                if width is None
                else (int(bounds[i + 1] - bounds[i]), width),
                dtype=dtype,
            )
            for i in range(cluster.n_locales)
        ]
        return cls(cluster, blocks)

    # -- inspection -----------------------------------------------------------

    @property
    def global_length(self) -> int:
        return int(self.boundaries[-1])

    @property
    def dtype(self) -> np.dtype:
        return self.blocks[0].dtype

    @property
    def ndim(self) -> int:
        return self.blocks[0].ndim

    @property
    def row_width(self) -> int:
        """Number of scalars per distributed element (1 for 1-D arrays)."""
        return 1 if self.ndim == 1 else int(self.blocks[0].shape[1])

    @property
    def row_bytes(self) -> int:
        return self.dtype.itemsize * self.row_width

    def to_global(self) -> np.ndarray:
        """Gather the full array (for tests and I/O at small scale)."""
        return (
            np.concatenate(self.blocks)
            if self.blocks
            else np.empty(0, dtype=self.dtype)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockArray(length={self.global_length}, dtype={self.dtype}, "
            f"locales={self.cluster.n_locales})"
        )
