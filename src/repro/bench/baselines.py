"""Baseline store for the benchmark regression gate.

A *result* is one ``benchmarks/results/<name>.json`` artifact written by
:func:`benchmarks.conftest.write_result` — ``{"name": ..., "data": ...}``
with arbitrary nesting under ``data``.  :func:`flatten_result` walks the
nesting and keeps the numeric leaves under dotted keys
(``simulated_seconds.pc``, ``overlap_efficiency.naive``, ...).

A *baseline* is ``benchmarks/baselines/<name>.json``::

    {"name": "...", "metrics": {"<key>": {"mean": m, "stddev": s, "n": k}}}

:func:`record` folds a fresh result into the baseline with the online
mean/variance merge (Chan et al.), so repeated recording runs sharpen the
noise estimate for wall-clock metrics instead of overwriting it; metrics
that are deterministic functions of the simulated machine keep
``stddev == 0`` and get byte-exact gating in
:mod:`repro.bench.compare`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Stat",
    "flatten_result",
    "load_baseline",
    "save_baseline",
    "load_dir",
    "oversubscribed",
    "record",
]


@dataclass
class Stat:
    """Mean / stddev / sample count for one metric key."""

    mean: float
    stddev: float = 0.0
    n: int = 1

    def merged(self, value: float) -> "Stat":
        """This statistic with one more observation folded in."""
        n = self.n + 1
        delta = value - self.mean
        mean = self.mean + delta / n
        # parallel-variance merge with a single new sample
        m2 = self.stddev**2 * self.n + delta * (value - mean)
        return Stat(mean=mean, stddev=(max(m2, 0.0) / n) ** 0.5, n=n)

    def to_json(self) -> dict:
        return {"mean": self.mean, "stddev": self.stddev, "n": self.n}

    @classmethod
    def from_json(cls, data: dict) -> "Stat":
        return cls(
            mean=float(data["mean"]),
            stddev=float(data.get("stddev", 0.0)),
            n=int(data.get("n", 1)),
        )


def flatten_result(data, prefix: str = "") -> dict[str, float]:
    """The numeric leaves of a result payload under dotted keys.

    Booleans and strings are skipped (they are flags / captured text, not
    performance figures); list elements are keyed by index.
    """
    out: dict[str, float] = {}
    if isinstance(data, dict):
        for key, value in data.items():
            sub = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_result(value, sub))
    elif isinstance(data, (list, tuple)):
        for index, value in enumerate(data):
            sub = f"{prefix}.{index}" if prefix else str(index)
            out.update(flatten_result(value, sub))
    elif isinstance(data, bool):
        pass
    elif isinstance(data, (int, float)):
        out[prefix] = float(data)
    return out


def load_baseline(path: Path) -> dict[str, Stat]:
    data = json.loads(Path(path).read_text())
    return {
        key: Stat.from_json(stat) for key, stat in data["metrics"].items()
    }


def save_baseline(path: Path, name: str, metrics: dict[str, Stat]) -> None:
    payload = {
        "name": name,
        "metrics": {
            key: metrics[key].to_json() for key in sorted(metrics)
        },
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_dir(directory: Path, kind: str) -> dict[str, dict]:
    """name -> flattened metrics for every ``*.json`` in ``directory``.

    ``kind`` is "results" (values are floats) or "baselines" (values are
    :class:`Stat`).  Files without the expected shape are skipped.
    """
    out: dict[str, dict] = {}
    for path in sorted(Path(directory).glob("*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if kind == "results":
            if "data" not in data:
                continue
            metrics = flatten_result(data["data"])
        else:
            if "metrics" not in data:
                continue
            metrics = {
                key: Stat.from_json(stat)
                for key, stat in data["metrics"].items()
            }
        if metrics:
            out[data.get("name", path.stem)] = metrics
    return out


def oversubscribed(results_dir: Path) -> dict[str, str]:
    """name -> reason, for every result :func:`record` refuses.

    A result whose ``env`` block reports more real workers than the host
    had CPUs measured the host's scheduler, not the code: its wall-clock
    figures (a "speedup" of 0.04x at 8 workers on one CPU) must not become
    the reference later runs are compared against.
    """
    out: dict[str, str] = {}
    for path in sorted(Path(results_dir).glob("*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        env = data.get("env") if isinstance(data, dict) else None
        if not isinstance(env, dict):
            continue
        workers, cpus = env.get("worker_count"), env.get("cpu_count")
        if workers is not None and cpus is not None and workers > cpus:
            out[data.get("name", path.stem)] = (
                f"env.worker_count={workers} exceeds env.cpu_count={cpus}"
            )
    return out


def record(
    results_dir: Path, baselines_dir: Path, update: bool = False
) -> list[str]:
    """Write / refresh baselines from a results directory.

    With ``update=False`` (the default) existing baselines are replaced by
    single-sample statistics of the fresh run; with ``update=True`` the
    fresh values are merged into the existing statistics, growing ``n``
    and sharpening ``stddev``.  Results named by :func:`oversubscribed`
    are skipped, leaving their baseline file as it was.  Returns the names
    written.
    """
    baselines_dir = Path(baselines_dir)
    baselines_dir.mkdir(parents=True, exist_ok=True)
    refused = oversubscribed(results_dir)
    written = []
    for name, metrics in load_dir(results_dir, "results").items():
        if name in refused:
            continue
        path = baselines_dir / f"{name}.json"
        if update and path.exists():
            existing = load_baseline(path)
            merged = {
                key: (
                    existing[key].merged(value)
                    if key in existing
                    else Stat(mean=value)
                )
                for key, value in metrics.items()
            }
        else:
            merged = {key: Stat(mean=value) for key, value in metrics.items()}
        save_baseline(path, name, merged)
        written.append(name)
    return written
