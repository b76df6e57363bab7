"""Dense / sparse matrix export of compiled operators.

These exist for validation and for small-system workflows: the paper's point
is precisely that at scale one *cannot* store the matrix, so everything in
:mod:`repro.distributed` is matrix-free.  The dense builder is nevertheless
the independent reference implementation every matvec is tested against.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.basis.spin_basis import Basis
from repro.operators.compile import CompiledOperator, result_dtype
from repro.operators.kernels import get_many_rows

__all__ = ["operator_to_dense", "operator_to_sparse", "expression_to_dense"]

_CHUNK = 1 << 14


def _column_entries(op: CompiledOperator, basis: Basis):
    """Yield ``(rows, cols, values)`` triples covering the whole matrix."""
    states = basis.states
    scale = basis.source_scale
    for start in range(0, states.size, _CHUNK):
        alphas = states[start : start + _CHUNK]
        cols = np.arange(start, start + alphas.size, dtype=np.int64)
        diag = op.diagonal_values(alphas)
        yield cols, cols, diag
        sources, members, amplitudes = get_many_rows(
            op, basis, alphas, None if scale is None else scale[cols]
        )
        if sources.size:
            yield basis.index(members), cols[sources], amplitudes


def operator_to_dense(op: CompiledOperator, basis: Basis) -> np.ndarray:
    """Materialize the operator as a dense matrix in the given basis."""
    dtype = result_dtype(op, basis)
    h = np.zeros((basis.dim, basis.dim), dtype=dtype)
    for rows, cols, values in _column_entries(op, basis):
        np.add.at(h, (rows, cols), values.astype(dtype))
    return h


def operator_to_sparse(op: CompiledOperator, basis: Basis) -> sp.csr_matrix:
    """Materialize the operator as a SciPy CSR matrix in the given basis."""
    dtype, shape = result_dtype(op, basis), (basis.dim, basis.dim)
    entries = list(_column_entries(op, basis))
    if not entries:
        return sp.csr_matrix(shape, dtype=dtype)
    rows, cols, values = map(np.concatenate, zip(*entries))
    return sp.coo_matrix((values.astype(dtype), (rows, cols)), shape=shape).tocsr()


def expression_to_dense(expression, n_sites: int) -> np.ndarray:
    """Brute-force dense matrix of an expression via Kronecker products.

    Completely independent of the compiled-kernel machinery (it multiplies
    2x2 factors into ``2**n x 2**n`` matrices), so it serves as the ground
    truth in the tests.  Site ``i`` is bit ``i``, i.e. the *fastest* varying
    tensor factor.
    """
    dim = 1 << n_sites
    h = np.zeros((dim, dim), dtype=np.complex128)
    eye = np.eye(2, dtype=np.complex128)
    for term, coeff in expression.terms.items():
        factors = expression.site_matrices(term)
        full = np.array([[1.0 + 0.0j]])
        # Build kron from the highest site down so bit i varies fastest.
        for site in range(n_sites - 1, -1, -1):
            full = np.kron(full, factors.get(site, eye))
        h += coeff * full
    return h
