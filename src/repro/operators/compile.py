"""Compilation of symbolic expressions into branch-free batched kernels.

Every canonical operator string (product of ``N / S+ / S-`` on distinct
sites) acts on a basis state ``x`` as

    if (x & mask) == pattern:   x -> x ^ flip,   amplitude *= coeff
    else:                       annihilated

where ``mask`` covers the involved sites, ``pattern`` encodes the required
input bits (``N``/``S-`` need 1, ``S+`` needs 0), and ``flip`` marks the
``S+``/``S-`` sites.  A full expression therefore compiles into parallel
arrays of primitives — the Python analogue of the paper's Halide-generated
kernels — that evaluate one vectorized comparison per primitive over a whole
batch of basis states (``getManyRows``).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.bits.ops import as_states, popcount
from repro.errors import CompilationError
from repro.operators.expression import DN, N, UP, Expression

__all__ = ["CompiledOperator", "compile_expression", "result_dtype"]

_COEFF_TOL = 1e-12


def result_dtype(op: CompiledOperator, basis, x_dtype=np.float64) -> np.dtype:
    """The scalar type of ``H x`` on ``basis``, the one rule every product
    sizes and checks ``y`` by: the operator's own type — real only where
    both the primitive tables and the basis characters are — promoted with
    the input's ``x_dtype``."""
    real = basis.is_real and op.is_real
    return np.promote_types(np.float64 if real else np.complex128, x_dtype)


class CompiledOperator:
    """An expression compiled into diagonal and off-diagonal primitives.

    Attributes
    ----------
    n_sites:
        Number of lattice sites the kernel acts on.
    diag_masks, diag_patterns, diag_coeffs:
        Primitives with no bit flips: they contribute
        ``coeff * [(x & mask) == pattern]`` to the diagonal.
    off_masks, off_patterns, off_flips, off_coeffs:
        Primitives that flip bits (``flip != 0``): matched states scatter
        amplitude ``coeff`` onto ``x ^ flip``.
    """

    def __init__(
        self,
        n_sites: int,
        expression: Expression,
        diag: tuple[np.ndarray, np.ndarray, np.ndarray],
        off: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ) -> None:
        self.n_sites = n_sites
        self.expression = expression
        self.diag_masks, self.diag_patterns, self.diag_coeffs = diag
        (
            self.off_masks,
            self.off_patterns,
            self.off_flips,
            self.off_coeffs,
        ) = off

    # -- inspection -----------------------------------------------------------

    @property
    def n_diag_primitives(self) -> int:
        return self.diag_coeffs.size

    @property
    def n_off_diag_primitives(self) -> int:
        return self.off_coeffs.size

    @property
    def max_entries_per_row(self) -> int:
        """Upper bound on non-zeros per matrix row (off-diagonals plus the
        diagonal) — used to size communication buffers."""
        return self.n_off_diag_primitives + 1

    @cached_property
    def is_real(self) -> bool:
        """Whether every coefficient is real (the tables never change)."""
        return bool(
            np.all(np.abs(self.diag_coeffs.imag) <= _COEFF_TOL)
            and np.all(np.abs(self.off_coeffs.imag) <= _COEFF_TOL)
        )

    @property
    def conserves_magnetization(self) -> bool:
        """True when every primitive preserves the Hamming weight (the
        operator commutes with total S^z, i.e. has the U(1) symmetry)."""
        if self.off_coeffs.size == 0:
            return True
        raises = popcount(self.off_flips & ~self.off_patterns)
        lowers = popcount(self.off_flips & self.off_patterns)
        return bool(np.all(raises == lowers))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledOperator(n_sites={self.n_sites}, "
            f"diag={self.n_diag_primitives}, off={self.n_off_diag_primitives})"
        )

    # -- kernels ----------------------------------------------------------------

    def diagonal_values(self, alphas) -> np.ndarray:
        """Diagonal matrix elements ``H[a, a]`` for a batch of states."""
        x = as_states(alphas)
        dtype = np.float64 if self.is_real else np.complex128
        out = np.zeros(x.shape, dtype=dtype)
        coeffs = self.diag_coeffs if dtype == np.complex128 else self.diag_coeffs.real
        for mask, pattern, coeff in zip(
            self.diag_masks, self.diag_patterns, coeffs
        ):
            out += coeff * ((x & mask) == pattern)
        return out

    def apply_off_diag(
        self, alphas
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The raw ``getManyRows`` kernel.

        For a batch of input states returns ``(sources, betas, coeffs)``:
        position-in-batch of the source state, the output basis state, and
        the raw matrix element ``<beta|H|alpha>`` — *before* any symmetry
        projection (see :func:`repro.operators.kernels.get_many_rows`).
        """
        x = as_states(alphas)
        dtype = np.float64 if self.is_real else np.complex128
        sources: list[np.ndarray] = []
        betas: list[np.ndarray] = []
        counts = np.zeros(self.off_coeffs.size, dtype=np.int64)
        for term, (mask, pattern, flip) in enumerate(
            zip(self.off_masks, self.off_patterns, self.off_flips)
        ):
            matched = np.nonzero((x & mask) == pattern)[0]
            if matched.size == 0:
                continue
            sources.append(matched)
            betas.append(x[matched] ^ flip)
            counts[term] = matched.size
        if not sources:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.uint64),
                np.empty(0, dtype=dtype),
            )
        all_coeffs = (
            self.off_coeffs if dtype == np.complex128 else self.off_coeffs.real
        )
        return (
            # ``nonzero`` gives ``intp``: int64 already, so no copy.
            np.concatenate(sources).astype(np.int64, copy=False),
            np.concatenate(betas),
            # each term's coefficient once per match, in term order
            np.repeat(all_coeffs, counts),
        )


def compile_expression(
    expression: Expression, n_sites: int | None = None
) -> CompiledOperator:
    """Compile an :class:`Expression` into a :class:`CompiledOperator`.

    Raises :class:`~repro.errors.CompilationError` if the expression touches
    sites outside ``range(n_sites)``.
    """
    if n_sites is None:
        n_sites = expression.min_sites
    if not 1 <= n_sites <= 63:
        raise CompilationError(f"n_sites must be in [1, 63], got {n_sites}")
    sites = expression.sites
    if sites and max(sites) >= n_sites:
        raise CompilationError(
            f"expression acts on site {max(sites)} but n_sites={n_sites}"
        )

    diag: dict[tuple[int, int], complex] = {}
    off: dict[tuple[int, int, int], complex] = {}
    for term, coeff in expression.terms.items():
        mask = 0
        pattern = 0
        flip = 0
        for site, op in term:
            bit = 1 << site
            mask |= bit
            if op in (N, DN):
                pattern |= bit
            if op in (UP, DN):
                flip |= bit
        if flip == 0:
            key = (mask, pattern)
            diag[key] = diag.get(key, 0.0) + coeff
        else:
            okey = (mask, pattern, flip)
            off[okey] = off.get(okey, 0.0) + coeff

    diag_items = [(k, c) for k, c in sorted(diag.items()) if abs(c) > _COEFF_TOL]
    off_items = [(k, c) for k, c in sorted(off.items()) if abs(c) > _COEFF_TOL]

    diag_arrays = (
        np.array([k[0] for k, _ in diag_items], dtype=np.uint64),
        np.array([k[1] for k, _ in diag_items], dtype=np.uint64),
        np.array([c for _, c in diag_items], dtype=np.complex128),
    )
    off_arrays = (
        np.array([k[0] for k, _ in off_items], dtype=np.uint64),
        np.array([k[1] for k, _ in off_items], dtype=np.uint64),
        np.array([k[2] for k, _ in off_items], dtype=np.uint64),
        np.array([c for _, c in off_items], dtype=np.complex128),
    )
    return CompiledOperator(n_sites, expression, diag_arrays, off_arrays)
