"""Analytic performance models at paper scale.

The discrete-event simulation of :mod:`repro.distributed` runs with real
data, which caps it at laptop-size systems.  To regenerate the paper's
evaluation — 40-48 spin systems on up to 256 nodes — this package provides
closed-form models of the same algorithms on the same
:class:`~repro.runtime.machine.MachineModel`:

- :class:`~repro.perfmodel.models.MatvecScalingModel` — the
  producer-consumer matvec (Fig. 8) and its single-node reference;
  :func:`~repro.perfmodel.models.recommend_split` reads its stage times
  to judge the static producer:consumer split (Sec. 6.3);
- :class:`~repro.perfmodel.models.SpinpackModel` — the bulk-synchronous
  baseline (Fig. 9);
- :class:`~repro.perfmodel.models.EnumerationScalingModel` — basis
  construction with the message-size saturation effect (Fig. 7);
- :class:`~repro.perfmodel.models.ConversionScalingModel` — block<->hashed
  conversions (Fig. 6).

The models are cross-validated against the event-driven implementations at
small scale in the tests; their kernel rates are calibrated from the
paper's own Sec. 6 measurements (see :mod:`repro.runtime.machine`).
"""

from repro.perfmodel.workloads import ChainWorkload, paper_workload
from repro.perfmodel.capacity import CapacityPlan, plan_capacity
from repro.perfmodel.models import (
    ConversionScalingModel,
    EnumerationScalingModel,
    MatvecScalingModel,
    SpinpackModel,
    rank_splits,
    recommend_split,
)

__all__ = [
    "ChainWorkload",
    "CapacityPlan",
    "plan_capacity",
    "paper_workload",
    "MatvecScalingModel",
    "rank_splits",
    "recommend_split",
    "SpinpackModel",
    "EnumerationScalingModel",
    "ConversionScalingModel",
]
