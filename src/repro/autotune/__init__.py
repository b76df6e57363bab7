"""Autotuning of the matvec pipeline knobs.

The paper's performance story (Sec. 6.3/7) is about configuration:
getManyRows batch size, the producer:consumer core split (the 104/24
discussion), and work stealing.  Tuning is a function from a workload to
values of those knobs — nothing the operator has to know about:

- :func:`~repro.autotune.fingerprint.workload_fingerprint` keys tuning
  results per (Hamiltonian, sector, cluster, backend, method);
- :class:`~repro.autotune.cache.TuneCache` persists them in versioned
  JSON;
- :class:`~repro.autotune.tuner.Autotuner` runs the two-stage search —
  analytic coarse pruning over the scaling model, then measured
  refinement replaying the real workload, varying only the knobs the
  cluster's backend reads;
- :func:`~repro.autotune.recommend.recommend_split` rediscovers the
  paper's static-split inefficiency from the model alone.

``Autotuner(cache).tune(compiled, basis).knobs`` are keyword arguments of
:class:`~repro.distributed.operator.DistributedOperator`; ``python -m
repro --tune auto|force`` (``cluster.tune``) does exactly that.
"""

from repro.autotune.cache import CACHE_VERSION, TuneCache, default_cache_path
from repro.autotune.fingerprint import workload_fingerprint
from repro.autotune.recommend import rank_splits, recommend_split
from repro.autotune.search import default_knobs
from repro.autotune.tuner import Autotuner, TuneResult

__all__ = [
    "Autotuner",
    "TuneResult",
    "TuneCache",
    "CACHE_VERSION",
    "default_cache_path",
    "workload_fingerprint",
    "default_knobs",
    "rank_splits",
    "recommend_split",
]
