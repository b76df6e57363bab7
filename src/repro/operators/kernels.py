"""The ``getManyRows`` kernel: batched matrix rows with symmetry projection.

This composes the raw compiled kernel (which knows nothing about bases)
with a basis projection, yielding what the paper's matrix-vector product
consumes: for a batch of source representatives, the destinations and
their matrix elements.  :func:`many_rows` takes the projection as an
argument, and the products pass the one that leaves the destination's
norm :math:`\\sqrt{N_r}` to whoever owns its row: the serial product
:meth:`~repro.basis.Basis.locate` (rows, with the norm read from the
basis), the distributed producers :meth:`~repro.basis.Basis.orbits`
(representatives and phases; the consumer that ranks the row multiplies
the norm in).  :func:`get_many_rows` projects with
:meth:`~repro.basis.Basis.project`, which sums each raw state's
stabilizer for its norm and so finishes the matrix element itself: the
independent path of the dense and sparse export, the SPINPACK baseline and
the ladder's per-layer replay.

Everything returned here is independent of the input vector — which is
what lets :class:`~repro.operators.plan.MatvecPlan` cache the output and
the block matvec share one ``get_many_rows`` call across all ``k`` columns
of a multi-RHS input.
"""

from __future__ import annotations

import numpy as np

from repro.basis.spin_basis import Basis
from repro.bits.ops import as_states
from repro.operators.compile import CompiledOperator

__all__ = ["get_many_rows", "many_rows"]


def get_many_rows(
    op: CompiledOperator,
    basis: Basis,
    alphas,
    source_scale: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compute all off-diagonal matrix elements for a batch of columns.

    Parameters
    ----------
    op:
        The compiled operator.
    basis:
        The basis defining the projection of raw output states.
    alphas:
        Batch of source basis states (must be members of ``basis``).
    source_scale:
        Per-batch-element multiplier (``basis.source_scale`` gathered at the
        sources' indices, i.e. :math:`1/\\sqrt{N_\\alpha}`).  ``None`` means
        no scaling (plain bases).

    Returns
    -------
    (sources, members, amplitudes):
        ``sources`` are positions within the input batch, ``members`` the
        destination basis states, and ``amplitudes`` the final matrix
        elements :math:`\\langle\\tilde\\beta|H|\\tilde\\alpha\\rangle`.
        Entries whose projection vanishes are already removed.
    """
    return many_rows(op, basis.surviving, alphas, source_scale)


def many_rows(
    op: CompiledOperator, project, alphas, source_scale: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`get_many_rows` through ``project``, which returns
    ``(destinations, factors, valid)`` with the first two cut to the
    ``valid`` raw states: a basis' :meth:`~repro.basis.Basis.surviving`,
    :meth:`~repro.basis.Basis.locate` for destination indices in place
    of the members (the serial product's), or
    :meth:`~repro.basis.Basis.orbits` for factors without the
    destination's norm (the distributed producers')."""
    sources, raw_betas, coeffs = op.apply_off_diag(as_states(alphas))
    if sources.size == 0:
        return sources, raw_betas, coeffs
    destinations, factors, valid = project(raw_betas)
    if destinations.size < sources.size:  # cut to the valid raw states
        sources, coeffs = sources[valid], coeffs[valid]
    if source_scale is not None:
        factors = factors * source_scale[sources]
    return sources, destinations, coeffs * factors
