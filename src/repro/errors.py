"""Exception types used across the :mod:`repro` package."""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "InvalidSectorError",
    "BasisError",
    "CompilationError",
    "DistributionError",
    "ConvergenceError",
    "DeadlockError",
    "BackendError",
    "CheckpointError",
    "TraceFormatError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ConfigError(ReproError):
    """Raised for invalid configuration values (input files, knobs, flags).

    Covers everything :func:`repro.schema.validate` rejects in an input
    file (unknown key, wrong type, out of range, missing required key —
    the message names the dotted path), an unreadable input file, a
    command line ``python -m repro`` cannot parse (an unknown flag among
    them), a flag that needs a ``cluster`` section, out-of-range pipeline
    knobs passed directly (``batch_size < 1``, a ``consumer_fraction``
    outside ``(0, 1]``, ``cores < 1`` handed to
    :func:`~repro.distributed.matvec_pc.split_cores`), and a bad
    argument of a Krylov solver (a count below 1, a ``tol`` that is
    negative or not finite) before its first product.
    """


class InvalidSectorError(ReproError):
    """Raised when a symmetry sector specification is inconsistent.

    A sector is inconsistent when the closure of the generators assigns two
    different characters to the same group element (e.g. requesting momentum
    ``k=1`` together with a reflection for a chain, where the reflection maps
    momentum ``k`` to ``-k``).
    """


class BasisError(ReproError):
    """Raised for invalid basis operations (unbuilt basis, state not found...)."""


class CompilationError(ReproError):
    """Raised when a symbolic operator expression cannot be compiled."""


class DistributionError(ReproError):
    """Raised for invalid distributed-array operations."""


class ConvergenceError(ReproError):
    """Raised when an iterative eigensolver fails to converge.

    Carries enough state for a caller to checkpoint-and-retry instead of
    discarding the run:

    Attributes
    ----------
    n_iterations:
        Number of iterations completed when the solver gave up (``None``
        when the failure happened before the first iteration).
    last_residual:
        The worst residual norm observed in the final iteration (``None``
        when no residual was ever computed).
    """

    def __init__(
        self,
        message: str,
        n_iterations: int | None = None,
        last_residual: float | None = None,
    ) -> None:
        super().__init__(message)
        self.n_iterations = n_iterations
        self.last_residual = last_residual


class BackendError(ReproError):
    """Raised for execution-backend failures and misconfiguration.

    Covers three situations:

    - an unknown or unsupported ``backend=`` selection on a
      :class:`~repro.runtime.cluster.Cluster` (or a feature the chosen
      backend does not implement);
    - a worker raising mid-matvec on the parallel backend: the original
      exception is chained as ``__cause__``, the failing worker's locale
      is recorded in :attr:`locale`, and the remaining workers are
      cancelled — the run fails loudly instead of hanging;
    - the parallel backend's watchdog detecting that every live worker is
      blocked with no possible wakeup (the wall-clock analogue of the
      simulator's :class:`DeadlockError`).

    Attributes
    ----------
    locale:
        Locale of the worker that failed first, or ``None`` when the
        error is not attributable to one worker.
    """

    def __init__(self, message: str, locale: int | None = None) -> None:
        super().__init__(message)
        self.locale = locale


class DeadlockError(BackendError, RuntimeError):
    """Raised when no process can make progress.

    Comes from the simulator (an empty event heap with blocked processes):
    an orphaned wait is a loud, typed failure, never a silently partial
    result.  A :class:`BackendError` like the threads backend's watchdog
    verdict, and a :class:`RuntimeError` for callers that caught the old
    untyped deadlock error.

    Attributes
    ----------
    blocked:
        ``[(process_name, waiting_on), ...]`` for every still-blocked
        process (``waiting_on`` describes the flag/queue/resource).
    """

    def __init__(
        self, message: str, blocked: list[tuple[str, str]] | None = None
    ) -> None:
        super().__init__(message)
        self.blocked = blocked if blocked is not None else []


class CheckpointError(ReproError):
    """Raised for invalid or corrupt solver checkpoints.

    Covers CRC32 mismatches against the checkpoint manifest, missing or
    truncated chunk files, dtype/length disagreements, and ``resume=``
    requests pointed at a directory with no loadable checkpoint.
    """


class TraceFormatError(ReproError, ValueError):
    """Raised when a file handed to ``repro-inspect`` (or to
    :func:`~repro.telemetry.analysis.analyze_trace` /
    :meth:`~repro.telemetry.metrics.MetricsSnapshot.from_json`) is not a
    readable trace or metrics snapshot: unreadable or truncated JSON, no
    ``traceEvents`` list, an event or metrics row with a missing or
    mistyped field (the message names its index and the field), or two
    traces from the wrong clock domains.  The CLI prints it as one line
    and exits 2.
    """
