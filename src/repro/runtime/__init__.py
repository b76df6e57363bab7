"""Simulated PGAS runtime: locales, network model, discrete-event simulator.

The paper runs on Chapel locales over 100 Gb/s InfiniBand.  Here a
:class:`~repro.runtime.cluster.Cluster` of locales lives inside one Python
process: distributed arrays hold *real* per-locale NumPy data (so all
algorithms are correctness-testable), while time is accounted by

- a LogGP-style :class:`~repro.runtime.machine.NetworkModel` /
  :class:`~repro.runtime.machine.MachineModel` (latency, message-size
  dependent bandwidth, per-element kernel rates calibrated to the paper's
  Sec. 6 measurements),
- a :class:`~repro.runtime.clock.BSPTimer` for phase-structured algorithms
  (conversions, enumeration), and
- the command language of :mod:`repro.runtime.events` — generator
  processes yielding ``Timeout`` / ``WaitFlag`` / ``Pop`` / ``Acquire``
  over one set of flags, queues and resources — for the asynchronous
  producer-consumer matvec (Sec. 5.3).

Two conforming *execution backends*, one class each, interpret that
language: ``sim``, the discrete-event
:class:`~repro.runtime.events.Simulator` with modelled timings, and
``threads``, :class:`~repro.runtime.executor.ThreadExecutor`, which runs
the same generators on real worker threads with wall-clock timings.
Select with ``Cluster(..., backend="sim"|"threads")`` — see
``docs/BACKENDS.md``.
"""

from repro.runtime.machine import MachineModel, NetworkModel, snellius_machine, laptop_machine
from repro.runtime.clock import BSPTimer, CostLedger, SimReport
from repro.runtime.cluster import Cluster, Locale
from repro.runtime.events import (
    Acquire,
    Pop,
    Simulator,
    Timeout,
    WaitFlag,
)
from repro.runtime.executor import (
    BACKENDS,
    Executor,
    ThreadExecutor,
    get_executor,
)
from repro.runtime.mpi import SimMPI

__all__ = [
    "MachineModel",
    "NetworkModel",
    "snellius_machine",
    "laptop_machine",
    "BSPTimer",
    "CostLedger",
    "SimReport",
    "Cluster",
    "Locale",
    "Simulator",
    "Timeout",
    "WaitFlag",
    "Pop",
    "Acquire",
    "BACKENDS",
    "Executor",
    "ThreadExecutor",
    "get_executor",
    "SimMPI",
]
