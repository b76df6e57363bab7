"""Fault injection, detection/recovery policy, and solver checkpoints.

Three pieces (see ``docs/RESILIENCE.md``):

- :class:`FaultPlan` — a *seeded, deterministic* schedule of injected
  faults (message drops, duplicated deliveries, bounded send delays,
  per-locale straggler slowdowns, locale crash-at-time-T) consulted by the
  discrete-event :class:`~repro.runtime.events.Simulator` and — via keyed
  per-message fates — the real ``threads`` backend's executor primitives,
  on behalf of the producer-consumer pipeline (the one matvec that takes
  faults).  The same plan + seed always
  produces the same fault schedule on the simulator (same event order,
  ``fault.*`` metric counts, and final vectors) and the same per-message
  fates on ``threads`` regardless of thread interleaving.
- :class:`ResilienceConfig` — the recovery policy: ack timeouts and
  exponential backoff for unacknowledged ``RemoteBuffer`` handoffs,
  retry budgets, checksum toggles, straggler thresholds, and the number
  of matvec restarts.
- :mod:`repro.resilience.checkpoint` — CRC32-manifested, atomically
  renamed snapshots of the Lanczos state, used by
  :func:`repro.linalg.lanczos` for bit-for-bit identical restarts.
"""

from repro.resilience.checkpoint import (
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    load_latest_checkpoint,
    write_checkpoint,
)
from repro.resilience.faults import (
    FaultPlan,
    MessageFate,
    ResilienceConfig,
)

__all__ = [
    "FaultPlan",
    "MessageFate",
    "ResilienceConfig",
    "write_checkpoint",
    "load_checkpoint",
    "load_latest_checkpoint",
    "latest_checkpoint",
    "list_checkpoints",
]
