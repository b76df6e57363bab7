"""Shared helpers for the benchmark harness.

Each ``bench_*`` module regenerates one table or figure of the paper:
real-data kernels are timed with pytest-benchmark at laptop scale, and the
paper-scale rows/series are produced with the calibrated performance models
and written to ``benchmarks/results/*.txt`` (also echoed to stdout — run
with ``-s`` to see them live).

BLAS threading is pinned to one thread before NumPy is first imported (see
below): the benchmarks measure *our* parallelism — simulated worker counts
and the real ``threads`` execution backend — and an OpenBLAS/MKL pool
fighting the worker threads for cores would make every wall-clock number a
function of two schedulers instead of one.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

#: BLAS/threading knobs pinned for every bench run (recorded per artifact).
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Whether NumPy was already imported when this conftest ran — if so the
#: pinning below may not have taken effect in the BLAS pool, and the env
#: block of every artifact records it so a weird wall-clock number can be
#: traced to its cause.
NUMPY_PREIMPORTED = "numpy" in sys.modules

for _var in BLAS_ENV_VARS:
    os.environ.setdefault(_var, "1")

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def bench_env(worker_count: int | None = None) -> dict:
    """The execution-environment block recorded in every bench artifact.

    Wall-clock numbers are meaningless without the machine context:
    ``worker_count`` (real parallel workers used, ``None`` for simulated
    runs), the host's ``cpu_count``, and the BLAS thread pinning in
    effect.  Stored at the *top level* of the artifact payload — outside
    ``data`` — so nothing reading the numbers mistakes environment facts
    for metrics.
    """
    return {
        "worker_count": worker_count,
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV_VARS},
        "numpy_preimported": NUMPY_PREIMPORTED,
    }


def write_result(
    name: str,
    text: str,
    data: dict | list | None = None,
    worker_count: int | None = None,
) -> None:
    """Persist a regenerated table/figure and echo it.

    Besides the human-readable ``results/<name>.txt``, a machine-readable
    ``results/<name>.json`` is written so the performance trajectory can be
    diffed across PRs.  ``data`` should hold the numbers behind the table
    (rows, series, key figures); when omitted, the JSON still records the
    text lines so every benchmark has *some* parseable artifact.  Every
    payload carries a :func:`bench_env` block describing the machine and
    BLAS pinning (pass ``worker_count`` for real-parallel benches).
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text)
    payload = {
        "name": name,
        "data": data if data is not None else {"text": text.splitlines()},
        "env": bench_env(worker_count),
    }
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(f"\n=== {name} (saved to {path}) ===")
    print(text)


@pytest.fixture(scope="session")
def laptop_cluster4():
    from repro.runtime import Cluster, laptop_machine

    return Cluster(4, laptop_machine(cores=4))


@pytest.fixture(scope="session")
def chain20_snellius_setup():
    """A 20-spin chain on 4 simulated Snellius nodes (128 cores each).

    The producer-consumer pipeline's advantages (buffer reuse, no task
    spawns, overlap) only show on a machine with many cores per node; the
    comparison benchmarks use this fixture while the kernel benchmarks use
    the smaller laptop-scale one.
    """
    import repro
    from repro.basis import SymmetricBasis
    from repro.distributed import enumerate_states
    from repro.runtime import Cluster, snellius_machine
    from repro.symmetry import chain_symmetries

    group = chain_symmetries(20, momentum=0, parity=0, inversion=0)
    serial = SymmetricBasis(group, hamming_weight=10)
    cluster = Cluster(4, snellius_machine())
    template = SymmetricBasis(group, hamming_weight=10, build=False)
    dbasis, _ = enumerate_states(
        cluster, template, chunks_per_core=1, use_weight_shortcut=True
    )
    return serial, dbasis


@pytest.fixture(scope="session")
def chain16_setup():
    """A 16-spin chain in the paper's sector, enumerated on 4 locales."""
    import repro
    from repro.basis import SymmetricBasis
    from repro.distributed import enumerate_states
    from repro.runtime import Cluster, laptop_machine
    from repro.symmetry import chain_symmetries

    group = chain_symmetries(16, momentum=0, parity=0, inversion=0)
    serial = SymmetricBasis(group, hamming_weight=8)
    cluster = Cluster(4, laptop_machine(cores=4))
    template = SymmetricBasis(group, hamming_weight=8, build=False)
    dbasis, report = enumerate_states(
        cluster, template, use_weight_shortcut=True
    )
    return serial, dbasis, report
