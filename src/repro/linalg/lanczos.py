"""Lanczos eigensolver.

The standard workhorse of exact diagonalization: builds the Krylov vectors
and the tridiagonal projection ``T`` of the (Hermitian) operator,
diagonalizes ``T``, and monitors Ritz-residual convergence.  The
implementation is generic over a :class:`~repro.linalg.spaces.VectorSpace`,
so the same code drives NumPy vectors and simulated-cluster
:class:`~repro.distributed.vector.DistributedVector` objects (the latter via
:func:`lanczos_distributed`, which also returns the simulated time spent in
matvecs and reductions).

A lone ground state (``k = 1``) is the production two-pass scheme: the
three-term recurrence projects each product on the last two Krylov vectors
only, so the solver holds the normalised start vector and a window of two
rows, whatever the iteration count.  Its eigenvector is a second pass that
reruns the recurrence from the start vector and adds up ``s_j v_j``; it
runs only when asked for.  Without reorthogonalization "ghost" copies of a
Ritz value appear only after it has converged, and a lone ground state
stops there.  For ``k > 1`` a ghost of the lowest level would pose as the
next one, so each step keeps the whole Krylov block and streams it once
more: one classical Gram-Schmidt pass over all rows (:func:`lanczos_step`).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from repro.errors import CheckpointError, ConfigError, ConvergenceError
from repro.linalg.spaces import (
    NumpyVectorSpace,
    VectorSpace,
    apply_block,
    as_matvec,
)
from repro.resilience.checkpoint import (
    list_checkpoints,
    load_latest_checkpoint,
    write_checkpoint,
)
from repro.schema import Key, check, require_positive
from repro.telemetry.context import current as current_telemetry

__all__ = ["LanczosResult", "lanczos", "lanczos_distributed"]


@dataclass
class LanczosResult:
    """Eigenvalues, optional eigenvectors, and convergence diagnostics."""

    eigenvalues: np.ndarray
    eigenvectors: list | None
    n_iterations: int
    residuals: np.ndarray
    converged: bool
    alphas: np.ndarray = field(repr=False, default=None)
    betas: np.ndarray = field(repr=False, default=None)
    #: Per-iteration progress series: dicts with ``iteration``,
    #: ``residual``, ``ritz_min``, ``ritz_max``, and ``elapsed`` seconds
    #: (wall-clock, or simulated when the caller supplies ``clock=``).
    progress: list = field(repr=False, default_factory=list)


#: ``beta`` at or below which the Krylov space counts as exhausted.
BREAKDOWN = 1e-14


def lanczos_step(
    space: VectorSpace, block, w, reorthogonalize: bool = True
) -> tuple[float, float]:
    """One step of the recurrence on ``w``, the product of the last row of
    ``block`` (the orthonormal Krylov vectors so far).

    Projects ``w`` against the block in place: first over the last two
    rows (the three-term recurrence, whose last overlap is ``alpha``), then
    with ``reorthogonalize`` once over all rows, which is the second pass
    for the two large components and the only one the rest need (they are
    O(eps ||H||)), so that an exhausted space leaves ``beta`` ~ 0.  Returns
    ``(alpha, beta)``: the diagonal entry and the norm of what is left.
    """
    alpha = float(np.real(space.project(block, w, max(block.m - 2, 0))[-1]))
    if reorthogonalize:
        space.project(block, w)
    return alpha, space.norm(w)


def tridiagonalize(
    matvec, space: VectorSpace, seeds, norms, krylov_dim: int,
    breakdown=BREAKDOWN,
):
    """Tridiagonal projections on the Krylov spaces of ``seeds`` (of norms
    ``norms``; not modified), in lock step.

    Each seed keeps its own Krylov block and runs :func:`lanczos_step`, so
    its coefficients are the one-seed ones bit for bit.  What is shared is
    the product: each step makes one block matvec over the seeds still
    running (a plain matvec when one is left, so any vector type works),
    paying the operator's generation/partition/ranking once per step.  A
    seed stops at ``beta <= breakdown``.

    Returns one ``(alphas, betas, block)`` per seed: ``betas[:-1]`` is the
    off-diagonal, ``betas[-1]`` the truncation residual, ``block`` the
    Krylov vectors.
    """
    require_positive(krylov_dim=krylov_dim)
    blocks, coeffs = [], []
    for seed, norm in zip(seeds, norms):
        blocks.append(space.block([seed]))
        space.scale(1.0 / norm, space.row(blocks[-1], 0))
        coeffs.append(([], []))
    running = list(range(len(blocks)))
    for _ in range(krylov_dim):
        if not running:
            break
        last = [space.row(blocks[j], blocks[j].m - 1) for j in running]
        if len(last) == 1:
            products = [matvec(last[0])]
        else:
            products = apply_block(matvec, np.stack(last, axis=1)).T.copy()
        still = []
        for j, w in zip(running, products):
            alpha, beta = lanczos_step(space, blocks[j], w)
            coeffs[j][0].append(alpha)
            coeffs[j][1].append(float(beta))
            if beta > breakdown:
                space.scale(1.0 / beta, w)
                space.push(blocks[j], w)
                still.append(j)
        running = still
    return [
        (np.asarray(alphas), np.asarray(betas), block)
        for (alphas, betas), block in zip(coeffs, blocks)
    ]


def second_pass(matvec, space: VectorSpace, window, start, betas, coeffs):
    """``sum_j coeffs[j] v_j``, normalised, over the Krylov vectors ``v_j``
    that the recurrence without reorthogonalization made from ``start``
    (of norm 1), whose norms before scaling were ``betas``: the recurrence
    rerun in the first pass's ``window``, each new row added in as it is
    made (the same bits as the first pass when products are repeatable).
    """
    window.m = 0  # its rows keep the first pass's dtype, complex or not
    space.push(window, start)
    x = space.combine(window, coeffs[:1])
    for j in range(1, len(coeffs)):
        w = matvec(space.row(window, window.m - 1))
        space.project(window, w, max(window.m - 2, 0))
        space.scale(1.0 / betas[j - 1], w)
        space.axpy(coeffs[j], space.push(window, w), x)
    space.scale(1.0 / space.norm(x), x)
    return x


def lanczos(
    matvec,
    v0,
    k: int = 1,
    max_iter: int = 300,
    tol: float = 1e-10,
    space: VectorSpace | None = None,
    compute_eigenvectors: bool = False,
    raise_on_no_convergence: bool = True,
    checkpoint_dir=None,
    checkpoint_every: int = 10,
    checkpoint_keep: int = 2,
    resume: bool = False,
    clock=None,
) -> LanczosResult:
    """Lowest ``k`` eigenpairs of a Hermitian operator.

    Parameters
    ----------
    matvec:
        Callable ``v -> H v`` returning a *new* vector of the same type,
        or an operator object with a ``matvec`` method (whose attached
        :class:`~repro.operators.plan.MatvecPlan`, if any, then serves
        every iteration).
    v0:
        Starting vector (not modified); should have a component along the
        sought eigenvectors — a random vector is the usual choice.
    k:
        Number of lowest eigenvalues to converge.  At ``k = 1`` the solver
        holds three vectors (the start vector and the last two Krylov
        vectors); above it the whole orthonormal Krylov block, against
        which each new vector is projected once more (classical
        Gram-Schmidt) so that no ghost of a converged level appears.
    max_iter:
        Iteration budget, an integer >= 1.
    tol:
        Convergence threshold on the Ritz residual estimate
        ``|beta_m * s_last|`` for each of the ``k`` lowest Ritz pairs, a
        finite number >= 0; at ``k = 1`` one below machine epsilon counts
        as epsilon, since the recurrence gains nothing past rounding and
        ghosts follow.  A bad ``k``, ``max_iter``, ``tol``,
        ``checkpoint_every`` or ``checkpoint_keep`` raises
        :class:`~repro.errors.ConfigError` before the first product.
    compute_eigenvectors:
        Return the Ritz vectors of the ``k`` lowest Ritz values, of norm
        1.  At ``k = 1`` this is the second pass: ``n_iterations - 1``
        more products.
    checkpoint_dir:
        When set, a CRC32-manifested snapshot of the Krylov state (the
        vectors the solver holds, via ``space.save_vector``, and the
        tridiagonal coefficients) is written atomically every
        ``checkpoint_every`` completed iterations, and the newest
        ``checkpoint_keep`` are kept (see
        :mod:`repro.resilience.checkpoint`).
    resume:
        Restart from the newest loadable checkpoint under
        ``checkpoint_dir`` instead of from ``v0``.  Because the snapshot
        captures the exact ``float64`` state, the resumed run continues
        bit-for-bit identically to the uninterrupted one.  An empty
        checkpoint directory falls back to a cold start; a checkpoint of
        another ``k`` raises :class:`~repro.errors.CheckpointError`.
    clock:
        Optional zero-argument callable returning elapsed seconds for the
        per-iteration progress series (``result.progress``); defaults to
        wall-clock time since the solver started.
        :func:`lanczos_distributed` passes the simulated cluster time.
    """
    require_positive(
        k=k, max_iter=max_iter,
        checkpoint_every=checkpoint_every, checkpoint_keep=checkpoint_keep,
    )
    check(tol, Key("tol", float, min=0.0))
    if k == 1:  # past rounding the bare recurrence only makes ghosts
        tol = max(tol, np.finfo(float).eps)
    matvec = as_matvec(matvec)
    if space is None:
        space = NumpyVectorSpace()
    trace = current_telemetry().trace
    t_start = time.perf_counter()
    if clock is None:
        clock = lambda: time.perf_counter() - t_start  # noqa: E731
    progress: list = []
    norm0 = space.norm(v0)
    if not 0.0 < norm0 < np.inf:
        raise ConfigError(
            f"v0 must be a vector of finite, non-zero norm, got norm {norm0}"
        )

    start = space.copy(v0)
    space.scale(1.0 / norm0, start)
    rows = [start]
    alphas: list[float] = []
    betas: list[float] = []
    eigenvalues = None
    residuals = np.array([np.inf] * k)
    converged = False
    start_iter = 0

    if resume:
        if checkpoint_dir is None:
            raise CheckpointError("resume=True requires checkpoint_dir")
        if list_checkpoints(checkpoint_dir):
            state = load_latest_checkpoint(
                checkpoint_dir, space=space, like=v0
            )
            # The start vector and a window of two, or the whole block.
            held = len(state.vectors)
            needed = 3 if k == 1 else state.iteration + 1
            if state.meta.get("k") != k or held != needed:
                raise CheckpointError(
                    f"checkpoint {state.path} holds k={state.meta.get('k')} "
                    f"and {held} vectors; this call has k={k} and needs "
                    f"{needed}"
                )
            alphas = [float(a) for a in state.arrays["alphas"]]
            betas = [float(b) for b in state.arrays["betas"]]
            start = state.vectors[0]
            rows = state.vectors[1:] if k == 1 else state.vectors
            start_iter = state.iteration

    block = space.block(rows, window=2 if k == 1 else None)
    v = space.row(block, block.m - 1)
    n_iter = start_iter
    for n_iter in range(start_iter + 1, max_iter + 1):
        w = matvec(v)
        alpha, beta = lanczos_step(space, block, w, reorthogonalize=k > 1)
        alphas.append(alpha)  # the n_iter-th, on n_iter - 1 betas
        if n_iter >= k:
            evals, evecs = eigh_tridiagonal(alphas, betas)
            eigenvalues = evals[:k]
            residuals = np.abs(beta * evecs[-1, :k])
            entry = {
                "iteration": n_iter,
                "residual": float(residuals.max()),
                "ritz_min": float(evals[0]),
                "ritz_max": float(evals[-1]),
                "elapsed": float(clock()),
            }
            progress.append(entry)
            if trace.enabled:
                # The result's ``progress`` is the record; the trace draws
                # the residual at the current end of the timeline, so
                # Perfetto shows it decaying against the pipeline below.
                trace.counter(
                    ("solver", "lanczos"), "residual", 0.0, entry["residual"]
                )
            if np.all(residuals <= tol * max(1.0, float(np.abs(evals).max()))):
                converged = True
                break
        if beta <= BREAKDOWN:
            # Invariant subspace found: everything representable converged.
            converged = eigenvalues is not None
            break
        betas.append(float(beta))
        space.scale(1.0 / beta, w)
        v = space.push(block, w)
        if checkpoint_dir is not None and n_iter % checkpoint_every == 0:
            # Snapshot point invariant: after n_iter completed iterations
            # there are n_iter alphas, n_iter betas, and the block's rows
            # (n_iter + 1, or the window's last two after the start vector)
            # — exactly the state the resumed loop continues from.
            rows = [space.row(block, j) for j in range(block.m)]
            write_checkpoint(
                checkpoint_dir,
                n_iter,
                arrays={
                    "alphas": np.asarray(alphas),
                    "betas": np.asarray(betas),
                },
                meta={"solver": "lanczos", "k": k, "tol": tol},
                vectors=[start, *rows] if k == 1 else rows,
                space=space,
                keep=checkpoint_keep,
            )

    if eigenvalues is None:
        raise ConvergenceError(
            f"Krylov space of dimension {len(alphas)} is smaller than k={k}",
            n_iterations=n_iter,
        )
    if not converged and raise_on_no_convergence:
        raise ConvergenceError(
            f"Lanczos did not converge in {max_iter} iterations "
            f"(residuals {residuals})",
            n_iterations=n_iter,
            last_residual=float(residuals.max()),
        )

    eigenvectors = None
    if compute_eigenvectors and k == 1:
        x = second_pass(matvec, space, block, start, betas, evecs[:, 0])
        eigenvectors = [x]
    elif compute_eigenvectors:  # evecs: the last iteration's, of the same T
        eigenvectors = [space.combine(block, evecs[:, j]) for j in range(k)]
    return LanczosResult(
        eigenvalues=np.asarray(eigenvalues),
        eigenvectors=eigenvectors,
        n_iterations=n_iter,
        residuals=residuals,
        converged=converged,
        alphas=np.asarray(alphas),
        betas=np.asarray(betas),
        progress=progress,
    )


def lanczos_distributed(
    operator,
    k: int = 1,
    seed: int = 0,
    **kwargs,
) -> tuple[LanczosResult, float]:
    """Run Lanczos on a :class:`~repro.distributed.operator.DistributedOperator`.

    Returns ``(result, simulated_seconds)`` where the time covers all
    matvecs plus the reductions (one allreduce per projection and per
    norm) — i.e. the full simulated cost of the eigensolve on the cluster.
    """
    from repro.distributed.vector import (
        DistributedVector,
        DistributedVectorSpace,
    )

    space = DistributedVectorSpace(operator.basis)
    v0 = DistributedVector.full_random(operator.basis, seed=seed)
    start_matvec = operator.total_sim_time

    trace = current_telemetry().trace
    matvec = operator.matvec
    if trace.enabled:
        # Wrap each matvec in a solver-level span on the global simulated
        # timeline (the matvec implementations advance ``trace.offset`` by
        # their elapsed time, so the span brackets exactly their tracks).
        iterations = itertools.count(1)

        def matvec(v):
            t0 = trace.offset
            w = operator.matvec(v)
            # ``t0`` is global time; ``complete`` adds the (advanced) offset.
            trace.complete(
                ("solver", "lanczos"),
                f"matvec #{next(iterations)}",
                t0 - trace.offset,
                trace.offset - t0,
            )
            return w

    def sim_clock():
        # Simulated seconds spent so far in matvecs plus reductions —
        # the cluster-time axis for the progress series.
        return (
            operator.total_sim_time - start_matvec
        ) + space.report.elapsed

    kwargs.setdefault("clock", sim_clock)
    result = lanczos(matvec, v0, k=k, space=space, **kwargs)
    return result, sim_clock()
