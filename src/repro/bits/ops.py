"""Element-wise bit kernels on ``uint64`` arrays of basis states.

These are the Python/NumPy analogue of the Halide-generated kernels used by
the paper: small, branch-free primitives that the operator compiler and the
symmetry machinery build on.  All functions accept scalars or arrays and
return ``uint64`` NumPy arrays (or scalars when given scalars), and all of
them only touch the low ``n`` bits when an ``n`` parameter is present.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BITS_DTYPE",
    "as_states",
    "bit_mask",
    "popcount",
    "parity",
    "rotate_left",
    "reverse_bits",
    "flip_all",
    "candidate_batches",
    "states_with_weight",
]

BITS_DTYPE = np.uint64
_U64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)


def as_states(x) -> np.ndarray:
    """Coerce ``x`` to a ``uint64`` array of basis states.

    Accepts Python ints, sequences, or NumPy arrays.  Negative inputs are
    rejected instead of being wrapped modulo ``2**64``.
    """
    arr = np.asarray(x)
    if arr.dtype == BITS_DTYPE:
        return arr
    if arr.dtype.kind == "i" and arr.size and int(arr.min()) < 0:
        raise ValueError("basis states must be non-negative")
    if arr.dtype.kind in "iu":
        return arr.astype(BITS_DTYPE)
    # NumPy promotes Python ints above 2**63-1 to float64 or object; convert
    # element-wise so exact large values survive and true floats are caught.
    flat = arr.ravel()
    out = np.empty(flat.shape, dtype=BITS_DTYPE)
    for i, value in enumerate(flat.tolist()):
        if not isinstance(value, int):
            raise TypeError(
                f"basis states must be integers, got {value!r} "
                f"(dtype {arr.dtype})"
            )
        if value < 0:
            raise ValueError("basis states must be non-negative")
        out[i] = value
    return out.reshape(arr.shape)


def bit_mask(n: int) -> np.uint64:
    """Mask with the low ``n`` bits set, for ``0 <= n <= 64``."""
    if not 0 <= n <= 64:
        raise ValueError(f"bit count must be in [0, 64], got {n}")
    if n == 64:
        return _U64_MAX
    return np.uint64((1 << n) - 1)


def popcount(x) -> np.ndarray:
    """Number of set bits (the Hamming weight / number of up spins)."""
    return np.bitwise_count(as_states(x))


def parity(x) -> np.ndarray:
    """Parity of the popcount: 0 for even, 1 for odd (``uint64``)."""
    return popcount(x) & np.uint64(1)


def rotate_left(x, k: int, n: int) -> np.ndarray:
    """Rotate the low ``n`` bits of each state left by ``k`` positions.

    Bits above position ``n`` must be zero on input and are zero on output.
    A left rotation by 1 moves bit ``i`` to bit ``i+1`` — i.e. it implements
    translation by one site on a periodic chain.
    """
    if not 1 <= n <= 64:
        raise ValueError(f"word width must be in [1, 64], got {n}")
    x, k, mask = as_states(x), k % n, bit_mask(n)
    if k == 0:
        return x & mask
    kk = np.uint64(k)
    nk = np.uint64(n - k)
    return ((x << kk) | (x >> nk)) & mask


# 256-entry byte-reversal table used by :func:`reverse_bits`.
_REV8 = np.array(
    [int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint64
)


def reverse_bits(x, n: int) -> np.ndarray:
    """Reverse the low ``n`` bits of each state (bit ``i`` -> bit ``n-1-i``).

    This implements the reflection symmetry of an open or periodic chain.
    """
    x = as_states(x)
    if not 1 <= n <= 64:
        raise ValueError(f"word width must be in [1, 64], got {n}")
    out = np.zeros_like(x, dtype=BITS_DTYPE)
    # Reverse all 64 bits byte-by-byte via the table, then shift down.
    for byte in range(8):
        chunk = (x >> np.uint64(8 * byte)) & np.uint64(0xFF)
        out |= _REV8[chunk.astype(np.intp)] << np.uint64(8 * (7 - byte))
    return out >> np.uint64(64 - n)


def flip_all(x, n: int) -> np.ndarray:
    """Flip the low ``n`` bits of each state (global spin inversion)."""
    x = as_states(x)
    return x ^ bit_mask(n)


#: Candidates are yielded this many at a time, so a caller's working set
#: stays in cache and a sector is never held whole.
_CANDIDATE_BATCH = 1 << 16


def candidate_batches(n: int, w: int | None = None):
    """Yield every ``n``-bit state (``w=None``) or every one with popcount
    ``w``, ascending, in batches of exactly ``_CANDIDATE_BATCH`` states (the
    last one shorter): the search space of a basis construction.

    The low ``m = min(n, 16)`` bits come from one table of all ``m``-bit
    words split by popcount; a state is a high-bit prefix ``p`` followed by
    a word of weight ``w - popcount(p)``.  Prefixes are walked in order,
    skipping runs too heavy or too light to complete, so memory is
    O(batch) whatever the sector's size.
    """
    if not 0 <= n <= 64:
        raise ValueError(f"bit count must be in [0, 64], got {n}")
    if w is not None and w < 0:
        raise ValueError(f"weight must be non-negative, got {w}")
    m = min(n, 16)
    low = np.arange(1 << m, dtype=BITS_DTYPE)
    weights = popcount(low)
    tables = [low[weights == k] for k in range(m + 1)]
    batch, filled = np.empty(_CANDIDATE_BATCH, dtype=BITS_DTYPE), 0
    p = 0
    while p < 1 << (n - m):
        k = p.bit_count()
        if w is not None and k > w:  # as is every prefix below p's next carry
            p += p & -p
            continue
        if w is not None and k < w - m:  # as is every one below p | (p + 1)
            p |= p + 1
            continue
        piece = np.uint64(p << m) | (low if w is None else tables[w - k])
        while piece.size:
            take = min(piece.size, _CANDIDATE_BATCH - filled)
            batch[filled : filled + take] = piece[:take]
            filled += take
            piece = piece[take:]
            if filled == _CANDIDATE_BATCH:
                yield batch
                batch, filled = np.empty(_CANDIDATE_BATCH, dtype=BITS_DTYPE), 0
        p += 1
    if filled:
        yield batch[:filled]


def states_with_weight(n: int, w: int | None) -> np.ndarray:
    """All ``n``-bit states with popcount ``w`` (every one for ``w=None``),
    in increasing order: the U(1)-symmetric (fixed magnetization) basis of
    a spin chain, i.e. :func:`candidate_batches` concatenated."""
    return np.concatenate(
        [np.empty(0, dtype=BITS_DTYPE), *candidate_batches(n, w)]
    )
