"""The performance-regression layer over the benchmark harness.

The ``bench_*`` modules under ``benchmarks/`` regenerate the paper's
tables and figures and drop machine-readable artifacts into
``benchmarks/results/*.json``.  This package turns those artifacts into a
*gate*:

- :mod:`repro.bench.baselines` — flatten each artifact's numeric leaves
  into metric keys and maintain a checked-in baseline store
  (``benchmarks/baselines/*.json``) with mean/stddev/n per key, merged
  across repeats with an online (Chan et al.) update;
- :mod:`repro.bench.compare` — compare fresh results against the
  baselines with noise-aware thresholds (``max(sigmas * stddev,
  rel_floor * |mean|)``), hard-gating only metrics that are deterministic
  functions of the simulation (simulated seconds, overlap efficiency,
  traffic volumes) and soft-gating wall-clock measurements that vary
  across CI machines;
- ``python -m repro.bench`` — the CLI the CI job runs: ``compare`` fails
  the build on hard regressions and writes a Markdown table for the job
  summary; ``record`` refreshes the baselines from a fresh run.

See the "Analysis & regression gating" section of
``docs/OBSERVABILITY.md`` for the workflow.
"""

from repro.bench.baselines import (
    Stat,
    flatten_result,
    load_baseline,
    load_dir,
    oversubscribed,
    record,
    save_baseline,
)
from repro.bench.compare import Comparison, compare_dirs, format_markdown, format_table

__all__ = [
    "Stat",
    "flatten_result",
    "load_baseline",
    "load_dir",
    "oversubscribed",
    "record",
    "save_baseline",
    "Comparison",
    "compare_dirs",
    "format_table",
    "format_markdown",
]
