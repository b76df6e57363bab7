"""Concurrent ``state_info`` callers share one kernel, not its scratch.

On the ``threads`` backend every producer calls ``state_info`` through the
one ``basis.template``, hence through one :class:`GroupKernel` and one set
of compiled appliers.  Work arrays keyed by batch shape alone are handed to
every caller whose batch has that shape; two threads then permute into the
same buffers and return each other's representatives.  Equal shapes, a
short switch interval and batches large enough for NumPy to drop the GIL
make that collision certain where it is possible at all.  The kernel
calls share those buffers: ``state_info``, the stabilizer-free
``orbit_info``, and the set-up filter ``minima`` with the sums pass
``in_sector`` after it (``representatives`` below).
"""

import sys
import threading
from functools import partial

import numpy as np
import pytest

from repro.symmetry import (
    SymmetryGroup,
    chain_symmetries,
    rectangle_translation,
    spin_inversion,
)

N_THREADS = 4
N_CALLS = 8
BATCH = 50_000


def representatives(kernel, batch):
    """The surviving representatives of a batch and their sums: the
    set-up filter, then the sums pass over its minima."""
    minima = kernel.minima(batch)
    keep, stab = kernel.in_sector(minima)
    return minima[keep], stab


def torus_group(nx: int, ny: int) -> SymmetryGroup:
    return SymmetryGroup.from_generators(
        [
            rectangle_translation(nx, ny, 0, 0),
            rectangle_translation(nx, ny, 1, 0),
            spin_inversion(nx * ny, 0),
        ]
    )


@pytest.mark.parametrize(
    "group",
    [chain_symmetries(24, 0, 0, 0), torus_group(4, 6)],
    ids=["chain24-reversal-base", "torus4x6-network-bases"],
)
@pytest.mark.parametrize("method", ["state_info", "representatives", "orbit_info"])
def test_equal_shaped_batches_from_many_threads(group, method):
    call = (
        partial(representatives, group.kernel)
        if method == "representatives"
        else getattr(group.kernel, method)
    )
    rng = np.random.default_rng(14)
    batches = [
        rng.integers(0, 2**group.n_sites, size=BATCH, dtype=np.uint64)
        for _ in range(N_THREADS)
    ]
    expected = [call(batch) for batch in batches]
    wrong: list[tuple[int, int]] = []
    errors: list[BaseException] = []

    def worker(t: int) -> None:
        try:
            for i in range(N_CALLS):
                got = call(batches[t])
                if not all(
                    np.array_equal(a, b) for a, b in zip(got, expected[t])
                ):
                    wrong.append((t, i))
        except BaseException as exc:  # a shared mask can also raise
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(t,)) for t in range(N_THREADS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert not wrong, f"(thread, call) results that differ: {wrong}"
