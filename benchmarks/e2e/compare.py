#!/usr/bin/env python3
"""Compare two result files of the e2e ladder.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the base (the parent commit, or the first of two sets of runs of one
commit), B is what is judged against it.  For every end-to-end metric and
workload it prints B's median over A's with the base, and a verdict:

- ``within-bound`` / ``regressed``: B's median is worse than A's by no
  more / by more than the bound the benchmark fixed for the metric;
- ``unresolved``: the run-to-run quartile spread of either side is wider
  than the bound (unless every run of B reads better than every run of
  A), or the workload could not be measured on this machine.

Count metrics must agree exactly.  Exit status is non-zero on a regression
or a count mismatch.  A file is what ``run.py`` writes without
``--workload`` (``--repeats N`` puts N runs per workload in it); with one
run per side the spread is taken from the samples inside the run.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from catalogue import END_TO_END, PER_LAYER


def load_runs(path: str) -> list[dict]:
    data = json.loads(Path(path).read_text())
    return data["runs"] if "runs" in data else [data]


def by_workload(runs: list[dict], trace: int) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = defaultdict(list)
    for run in runs:
        if run["trace"] == trace:
            grouped[run["workload"]].append(run)
    return grouped


def spread_of(runs: list[dict], name: str) -> float:
    """Quartile distance over the median: across runs when there are
    several, else across the samples of the single run."""
    values = [run["metrics"][name]["value"] for run in runs]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / statistics.median(values)
    only = runs[0]["metrics"][name]
    return (only["q3"] - only["q1"]) / only["value"]


def compare_end_to_end(a_runs, b_runs) -> tuple[list[str], int, int]:
    lines, regressed, unresolved = [], 0, 0
    a_by, b_by = by_workload(a_runs, 0), by_workload(b_runs, 0)
    for workload in a_by:
        if workload not in b_by:
            lines.append(f"{workload}: missing from B")
            unresolved += 1
            continue
        a, b = a_by[workload], b_by[workload]
        blocked = next(
            (run["unresolved"] for run in a + b if "unresolved" in run), None
        )
        for metric in END_TO_END:
            a_values = [run["metrics"][metric.name]["value"] for run in a]
            b_values = [run["metrics"][metric.name]["value"] for run in b]
            base = statistics.median(a_values)
            new = statistics.median(b_values)
            spread = max(spread_of(a, metric.name), spread_of(b, metric.name))
            if blocked is not None:
                verdict = f"unresolved ({blocked})"
            elif spread > metric.bound and not max(b_values) < min(a_values):
                verdict = (
                    f"unresolved (spread {spread:.1%} > bound {metric.bound:.0%})"
                )
            elif new > base * (1 + metric.bound):
                verdict = "regressed"
            else:
                verdict = "within-bound"
            regressed += verdict == "regressed"
            unresolved += verdict.startswith("unresolved")
            lines.append(
                f"{workload:<20} {metric.name:<20} {new / base:7.3f}x of "
                f"{base:.6g} {metric.unit:<3} spread {spread:6.1%} "
                f"bound {metric.bound:.0%}  {verdict}"
            )
    return lines, regressed, unresolved


def compare_per_layer(a_runs, b_runs) -> tuple[list[str], int]:
    lines, mismatches = [], 0
    a_by, b_by = by_workload(a_runs, 1), by_workload(b_runs, 1)
    for workload in a_by:
        a, b = a_by[workload], b_by.get(workload, [])
        for metric in PER_LAYER:
            a_values = {
                run["seed"]: run["metrics"][metric.name]["value"]
                for run in a
                if metric.name in run["metrics"]
            }
            b_values = {
                run["seed"]: run["metrics"][metric.name]["value"]
                for run in b
                if metric.name in run["metrics"]
            }
            if not a_values or not b_values:
                continue
            if metric.exact == "always":
                same = len(set(a_values.values()) | set(b_values.values())) == 1
            elif metric.exact == "seed":
                # Iteration counts depend on the start vector; on threads
                # also on the order partial sums arrive in.
                shared = a_values.keys() & b_values.keys()
                if workload.endswith("_threads") or not shared:
                    continue
                same = all(a_values[s] == b_values[s] for s in shared)
            else:
                base = statistics.median(a_values.values())
                new = statistics.median(b_values.values())
                ratio = f"{new / base:7.3f}x" if base else "     n/a"
                lines.append(
                    f"{workload:<20} {metric.name:<36} {ratio} of "
                    f"{base:.6g} {metric.unit}"
                )
                continue
            mismatches += not same
            lines.append(
                f"{workload:<20} {metric.name:<36} "
                f"{'exact' if same else 'MISMATCH'} "
                f"A={sorted(set(a_values.values()))} "
                f"B={sorted(set(b_values.values()))}"
            )
    return lines, mismatches


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    a_runs, b_runs = load_runs(argv[0]), load_runs(argv[1])
    failed_ops = sum(run["failed"] for run in a_runs + b_runs)
    e2e_lines, regressed, unresolved = compare_end_to_end(a_runs, b_runs)
    layer_lines, mismatches = compare_per_layer(a_runs, b_runs)
    print("end-to-end (B median / A median, base = A):")
    print("\n".join(e2e_lines) or "  no end-to-end runs in both files")
    print("per-layer (informational ratios; counts must be exact):")
    print("\n".join(layer_lines) or "  no per-layer runs in both files")
    print(
        f"{regressed} regressed, {unresolved} unresolved, "
        f"{mismatches} count mismatches, {failed_ops} failed operations"
    )
    return 1 if regressed or mismatches or failed_ops else 0


if __name__ == "__main__":
    sys.exit(main())
