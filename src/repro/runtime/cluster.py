"""The simulated cluster: a set of locales sharing a machine model."""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.executor import executor_class
from repro.runtime.machine import MachineModel, snellius_machine

__all__ = ["Cluster", "Locale"]


@dataclass(frozen=True)
class Locale:
    """One compute node of the simulated cluster (Chapel's ``locale``)."""

    index: int
    cores: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Locale({self.index}, cores={self.cores})"


class Cluster:
    """A set of ``n_locales`` nodes described by a :class:`MachineModel`.

    The cluster object is what all distributed arrays and algorithms hang
    off; it plays the role of Chapel's ``Locales`` array.  Data placement is
    real (per-locale NumPy arrays); time is simulated.

    ``backend`` selects the execution backend every distributed algorithm
    on this cluster runs on (see :mod:`repro.runtime.executor` and
    ``docs/BACKENDS.md``): ``"sim"`` (default) is the discrete-event
    simulator with modelled timings; ``"threads"`` runs each locale as a
    real worker thread and reports wall-clock timings.
    """

    def __init__(
        self,
        n_locales: int,
        machine: MachineModel | None = None,
        backend: str = "sim",
    ) -> None:
        if n_locales < 1:
            raise ValueError(f"need at least one locale, got {n_locales}")
        executor_class(backend)  # raises BackendError for an unknown name
        self.machine = machine if machine is not None else snellius_machine()
        self.locales = [
            Locale(i, self.machine.cores_per_locale) for i in range(n_locales)
        ]
        self.backend = backend

    @property
    def n_locales(self) -> int:
        return len(self.locales)

    @property
    def wall_clock(self) -> bool:
        """Whether this cluster's backend reports measured wall seconds
        (modelled seconds otherwise)."""
        return executor_class(self.backend).wall_clock

    def __len__(self) -> int:
        return self.n_locales

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Cluster(n_locales={self.n_locales}, "
            f"cores_per_locale={self.machine.cores_per_locale})"
        )
