"""Vectorized bit-manipulation kernels on 64-bit basis states.

Basis states of a spin-1/2 system are represented as the low ``n`` bits of
unsigned 64-bit integers (site ``i`` lives in bit ``i``).  Everything in this
subpackage operates element-wise on NumPy ``uint64`` arrays so that the
higher layers (symmetries, bases, Hamiltonian kernels) are fully vectorized.
"""

from repro.bits.ops import (
    BITS_DTYPE,
    as_states,
    bit_mask,
    popcount,
    parity,
    rotate_left,
    reverse_bits,
    flip_all,
    candidate_batches,
    states_with_weight,
)
from repro.bits.permutations import (
    ByteGatherTable,
    MaskShiftNetwork,
    apply_permutation_to_states,
    compile_permutation,
    permutation_masks,
)

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
    "apply_permutation_to_states",
    "permutation_masks",
    "MaskShiftNetwork",
    "ByteGatherTable",
    "compile_permutation",
]
