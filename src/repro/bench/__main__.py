"""CLI for the benchmark regression gate.

Usage::

    python -m repro.bench compare RESULTS_DIR BASELINES_DIR \
        [--sigmas S] [--strict] [--verbose] [--summary PATH]
    python -m repro.bench record RESULTS_DIR BASELINES_DIR [--update]

``compare`` exits non-zero when a hard-gated metric regressed beyond its
noise-aware threshold (see :mod:`repro.bench.compare`); ``--summary``
additionally writes a Markdown table, pointed at ``$GITHUB_STEP_SUMMARY``
by the CI job.  ``record`` refreshes the checked-in baselines from a fresh
results directory (``--update`` merges into the existing statistics
instead of replacing them); a result measured with more workers than the
host had CPUs is refused with a message and a non-zero exit.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.baselines import oversubscribed, record
from repro.bench.compare import compare_dirs, format_markdown, format_table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark baseline recording and regression gating",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmp_parser = sub.add_parser(
        "compare", help="gate fresh results against checked-in baselines"
    )
    cmp_parser.add_argument("results", type=Path)
    cmp_parser.add_argument("baselines", type=Path)
    cmp_parser.add_argument(
        "--sigmas",
        type=float,
        default=2.0,
        help="noise band width in baseline standard deviations (default 2)",
    )
    cmp_parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail on soft (wall-clock) warnings and missing metrics",
    )
    cmp_parser.add_argument(
        "--verbose", action="store_true", help="show ok rows too"
    )
    cmp_parser.add_argument(
        "--summary",
        type=Path,
        default=None,
        help="append a Markdown table to this file (CI job summary)",
    )

    rec_parser = sub.add_parser(
        "record", help="write baselines from a results directory"
    )
    rec_parser.add_argument("results", type=Path)
    rec_parser.add_argument("baselines", type=Path)
    rec_parser.add_argument(
        "--update",
        action="store_true",
        help="merge into existing statistics instead of replacing them",
    )

    args = parser.parse_args(argv)
    if args.command == "record":
        written = record(args.results, args.baselines, update=args.update)
        print(f"recorded {len(written)} baselines into {args.baselines}:")
        for name in written:
            print(f"  {name}")
        refused = oversubscribed(args.results)
        for name, reason in refused.items():
            print(f"REFUSED {name}: {reason}; baseline left untouched")
        return 1 if refused else 0

    rows, ok = compare_dirs(
        args.results, args.baselines, sigmas=args.sigmas, strict=args.strict
    )
    print(format_table(rows, verbose=args.verbose))
    if args.summary is not None:
        with open(args.summary, "a") as handle:
            handle.write(format_markdown(rows) + "\n")
    if not ok:
        print("FAILED: hard-gated metrics regressed beyond threshold")
        return 1
    print("regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
