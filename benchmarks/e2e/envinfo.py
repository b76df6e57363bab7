"""The environment block recorded with every result.

Wall-clock numbers mean nothing without the machine they were taken on.
``pin_blas`` must run before NumPy is first imported, or the BLAS pool is
already sized; whether that held is part of the block.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_blas() -> bool:
    """Pin every BLAS pool to one thread; ``True`` if NumPy was imported
    before the pinning (which may then not have taken effect)."""
    preimported = "numpy" in sys.modules
    for var in BLAS_ENV_VARS:
        os.environ[var] = "1"
    return preimported


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def sloc(package: Path) -> int:
    """Non-blank, non-comment lines under ``package`` (informational)."""
    total = 0
    for path in package.rglob("*.py"):
        for line in path.read_text().splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                total += 1
    return total


def env_block(root: Path, numpy_preimported: bool) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV_VARS},
        "numpy_imported_before_pinning": numpy_preimported,
        "git_commit": _git_commit(root),
        "sloc_src": sloc(root / "src" / "repro"),
    }
