#!/usr/bin/env python3
"""The e2e ladder: input -> eigenvalue wall clock, with one row per layer.

    python3 benchmarks/e2e/run.py                       # everything
    python3 benchmarks/e2e/run.py --workload chain24_serial --trace 0

With ``--workload`` this process measures that workload (``--trace 0``:
the seven end-to-end metrics; ``--trace 1``: the per-layer rows) and the
last line of its output is one JSON object, the form the benchmark driver
reads.  Without it, each workload runs in a subprocess of its own (so
``peak_rss_mb`` is that workload's alone) and the tables, the result file
and the merged span file are written when all have ended.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from catalogue import END_TO_END, PER_LAYER, layer_rows_for, unit_of
from envinfo import env_block, nproc, pin_blas

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure this workload in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float,
        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
        help="repeat journeys until this long after the start (one whole "
        "journey is always taken)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: end-to-end pass, 1: per-layer pass (default: 0 with "
        "--workload, both without)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="16-site problems, one sample per stage (smoke test)",
    )
    parser.add_argument(
        "--reference-energy", type=float, default=None,
        help="override the pinned ground-state energy (the smoke test "
        "uses a wrong one to see a failed operation)",
    )
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="without --workload: sets of runs, seeds seed..seed+repeats-1",
    )
    parser.add_argument(
        "--out", type=Path, default=OUT / "results.json",
        help="without --workload: where the result file goes",
    )
    return parser.parse_args(argv)


def record_path(workload: str, trace: int) -> Path:
    return OUT / f"{workload}.trace{trace}.json"


# -- one workload, in this process ---------------------------------------------


def run_one(args: argparse.Namespace, numpy_preimported: bool) -> int:
    from measure import EndToEndPass, fingerprint
    from tracer import write_chrome_trace
    from workloads import BY_NAME

    if args.workload not in BY_NAME:
        sys.exit(f"e2e: unknown workload {args.workload!r}; one of {sorted(BY_NAME)}")
    workload = BY_NAME[args.workload]
    trace = args.trace or 0
    shape = workload.quick_shape if args.quick else workload.shape
    reference = (
        args.reference_energy
        if args.reference_energy is not None
        else (workload.quick_reference if args.quick else workload.reference)
    )
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": trace,
        "quick": args.quick,
        "env": env_block(ROOT, numpy_preimported),
        "notes": {},
    }
    if workload.backend == "threads" and workload.locales > nproc():
        # Two worker threads on one core time the scheduler, not the code.
        record["unresolved"] = (
            f"{workload.locales} locales on nproc={nproc()}: wall-clock "
            "metrics of this workload are not comparable"
        )

    if trace:
        from layers import LayerPass

        done = LayerPass(workload, shape, args.seed, reference, args.quick).run()
        ops, inputs = done.ops, fingerprint(done.x)
        record["notes"].update(done.notes)
        record["metrics"] = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in done.metrics.items()
        }
        write_chrome_trace(
            OUT / f"{workload.name}.spans.json", done.tracer.chrome_events(pid=1)
        )
        reported = [m.name for m in PER_LAYER if m.scope == "all"]
    else:
        # --quick takes its single journey and no more.
        done = EndToEndPass(workload, shape, args.seed, reference, args.quick).run(
            0 if args.quick else args.seconds
        )
        ops, inputs = done.ops, done.inputs_sha1
        record["metrics"] = {m.name: done.summary(m.name, m.unit) for m in END_TO_END}
        record["iterations"] = done.iterations
        record["probe"] = {
            "n": len(done.probe.seconds),
            "quiet_s": done.probe.quiet(),
            "median_s": statistics.median(done.probe.seconds),
        }
        reported = [m.name for m in END_TO_END]

    record.update(
        inputs_sha1=inputs,
        correct=ops.failed == 0,
        attempted=ops.attempted,
        failed=ops.failed,
        failures=ops.reasons,
    )
    OUT.mkdir(parents=True, exist_ok=True)
    record_path(workload.name, trace).write_text(json.dumps(record, indent=1))

    print_record(record)
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {
                        "value": record["metrics"][name]["value"],
                        "unit": record["metrics"][name]["unit"],
                    }
                    for name in reported
                },
            }
        )
    )
    return 0 if record["correct"] else 1


# -- printing --------------------------------------------------------------------


def print_record(record: dict) -> None:
    from workloads import BY_NAME

    verdict = "correct" if record["correct"] else "FAILED"
    print(
        f"== {record['workload']}  seed={record['seed']}  "
        f"{'per-layer' if record['trace'] else 'end-to-end'} pass  "
        f"operations {record['attempted']} attempted / {record['failed']} "
        f"failed  {verdict}"
    )
    if "unresolved" in record:
        print(f"   UNRESOLVED: {record['unresolved']}")
    for reason in record["failures"]:
        print(f"   failed: {reason}")
    metrics = record["metrics"]
    if record["trace"]:
        for row in layer_rows_for(BY_NAME[record["workload"]].backend):
            note = record["notes"].get(row.name, "")
            if row.name in metrics:
                value = f"{metrics[row.name]['value']:.6g}"
            else:
                value = "omitted"
            print(
                f"   {row.name:<36} {value:>12} {row.unit:<6}"
                f" -> {row.moves}{'  [' + note + ']' if note else ''}"
            )
        return
    probe = record["probe"]
    print(
        f"   probes: {probe['n']}, quiet {probe['quiet_s'] * 1e3:.3f} ms, "
        f"median {probe['median_s'] * 1e3:.3f} ms; value = 10th percentile "
        "of (seconds as measured / slowdown of the probes around the sample)"
    )
    for row in END_TO_END:
        s, measured = metrics[row.name], metrics[row.name]["measured"]
        tail = measured["tail"]
        print(
            f"   {row.name:<20} {s['value']:<11.6g} {s['unit']:<3} n={s['n']:<4}"
            f" q1={s['q1']:.6g} median={s['median']:.6g} q3={s['q3']:.6g}"
            f" | slowdown {s['slowdown']:.2f},"
            f" as measured: median={measured['median']:.6g}"
            f" q1={measured['q1']:.6g} q3={measured['q3']:.6g}"
            + (f" p{tail[0]:g}={tail[1]:.6g}" if tail else "")
        )


# -- every workload, each in its own process ------------------------------------


def run_all(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    passes = (0, 1) if args.trace is None else (args.trace,)
    runs = []
    failed = False
    for repeat in range(args.repeats):
        for workload in WORKLOADS:
            for trace in passes:
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload.name,
                    "--seed", str(args.seed + repeat),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                ]
                if args.quick:
                    command.append("--quick")
                if args.reference_energy is not None:
                    command += ["--reference-energy", str(args.reference_energy)]
                path = record_path(workload.name, trace)
                path.unlink(missing_ok=True)  # never pick up an older run's
                done = subprocess.run(command, capture_output=True, text=True)
                # The child's tables, minus the driver line it ends with.
                print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
                if done.returncode != 0:
                    failed = True
                    sys.stderr.write(done.stderr)
                if path.is_file():
                    runs.append(json.loads(path.read_text()))

    args.out.parent.mkdir(parents=True, exist_ok=True)
    # One run a line: a run holds every sample it took.
    args.out.write_text(
        '{"runs": [\n' + ",\n".join(json.dumps(run) for run in runs) + "\n]}\n"
    )
    print(f"results: {args.out}")
    if 1 in passes:
        events = []
        for pid, workload in enumerate(WORKLOADS, start=1):
            spans = OUT / f"{workload.name}.spans.json"
            if spans.is_file():
                for event in json.loads(spans.read_text())["traceEvents"]:
                    event["pid"] = pid
                    events.append(event)
        merged = OUT / "spans.json"
        merged.write_text(json.dumps({"traceEvents": events}))
        print(f"spans (open in https://ui.perfetto.dev): {merged}")
    attempted = sum(run["attempted"] for run in runs)
    failures = sum(run["failed"] for run in runs)
    print(f"operations: {attempted} attempted, {failures} failed")
    return 1 if failed or failures else 0


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"e2e: no repro package under {ROOT / 'src'}; run from a checkout")
    args = parse_args(argv)
    # Before anything imports NumPy: one BLAS thread, so the only
    # parallelism measured is the package's own.
    numpy_preimported = pin_blas()
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload is not None:
        return run_one(args, numpy_preimported)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
