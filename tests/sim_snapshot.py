"""Bit-identity snapshot of the ``sim`` backend, kept as a tool.

A refactor that claims "same behaviour on sim" runs one grid before and
after and compares everything the run leaves behind.  The grid is the
distributed matvec over

    naive / batched / pc  x  four cluster-and-worker shapes  x  plan on / off
    x  block width 1 / 3

(48 runs, two products each, so a plan records and then replays; their
names end in ``/plain``, as they did when the grid also ran the pipeline
under injected faults), plus a
basis enumeration and a short Lanczos solve per shape, plus the simulated
runs two benches report that the grid does not cover (:data:`BENCH_NAMES`).
Per run it hashes the ``repr`` of the report (elapsed, messages, bytes,
extras, phases, the per-locale ledger, the result's amplitudes), of every
metric series and of the Chrome trace; simulated time is a pure function
of code, seeds and machine model, so the three digests are exact (no run
here emits a measured series).  This is the regression gate of every
simulated number the benches write.

    PYTHONPATH=src python tests/sim_snapshot.py --check    # full grid
    PYTHONPATH=src python tests/sim_snapshot.py --record   # at a named commit
    PYTHONPATH=src python tests/sim_snapshot.py --dump pc/c16-l4/plan/k3/plain

``--record`` rewrites ``tests/data/sim_snapshot.json`` and belongs to the
commit whose behaviour is the reference (say which in CHANGES.md);
``--dump`` prints what a digest was taken of, to diff two checkouts when
``--check`` names a run.  Tier-1 compares the whole grid, about 2 s
(``tests/test_sim_snapshot.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

import repro
from repro import telemetry
from repro.basis import SymmetricBasis
from repro.distributed import (
    DistributedOperator,
    DistributedVector,
    enumerate_states,
    matvec_batched,
)
from repro.linalg.lanczos import lanczos_distributed
from repro.operators import MatvecPlan, compile_expression
from repro.runtime import Cluster, laptop_machine
from repro.symmetry import chain_symmetries
from repro.telemetry import Telemetry, analyze_trace

RECORDING = Path(__file__).parent / "data" / "sim_snapshot.json"

METHODS = ("naive", "batched", "pc")

#: name -> (sites, locales, batch_size, options only the pipeline takes)
SHAPES = {
    "c16-l4": (16, 4, 256, dict(buffer_capacity=64)),
    "c16-l4-steal": (
        16, 4, 128,
        dict(
            buffer_capacity=64, producers_per_locale=3,
            consumers_per_locale=1, work_stealing=True,
        ),
    ),
    "c12-l2": (12, 2, 64, dict(consumer_fraction=0.5)),
    "c12-l1": (12, 1, 64, {}),
}


def _names():
    for method, shape, plan, k in itertools.product(
        METHODS, SHAPES, ("plan", "noplan"), (1, 3)
    ):
        yield f"{method}/{shape}/{plan}/k{k}/plain"
    for shape in SHAPES:
        yield f"enumerate/{shape}"
        yield f"lanczos/{shape}"
    yield from BENCH_NAMES


#: ``bench_smoke_pipeline``'s three variants (one traced product each, and
#: the trace analysis it reports) and ``bench_block_matvec``'s distributed
#: sequence (eight single vectors on one plan, a warm single, an 8-wide
#: block) at the batched variant's default batch size
BENCH_NAMES = (
    *(f"smoke/c16-l4/{method}" for method in METHODS), "block/c16-l4"
)

NAMES = tuple(_names())


@lru_cache(maxsize=None)
def _template(n_sites: int) -> SymmetricBasis:
    group = chain_symmetries(n_sites, momentum=0, parity=0, inversion=0)
    return SymmetricBasis(group, hamming_weight=n_sites // 2, build=False)


def _enumerate(shape: str):
    n_sites, n_locales, _, _ = SHAPES[shape]
    cluster = Cluster(n_locales, laptop_machine(cores=4))
    return enumerate_states(
        cluster, _template(n_sites), use_weight_shortcut=True
    )


@lru_cache(maxsize=None)
def _basis(shape: str):
    """The shape's distributed basis, built outside any telemetry."""
    return _enumerate(shape)[0]


def _report_lines(report, result=None) -> list[str]:
    lines = [
        f"elapsed {report.elapsed!r}",
        f"messages {report.messages!r} bytes {report.bytes_sent!r}",
        f"extras {sorted(report.extras.items())!r}",
        f"phases {sorted(report.phase_elapsed.items())!r}",
    ]
    if report.ledger is not None:
        lines += [
            f"ledger {phase} {report.ledger.per_locale(phase).tolist()!r}"
            for phase in sorted(report.ledger.phases)
        ]
    if result is not None:
        lines += [f"y {part.tolist()!r}" for part in result.parts]
    return lines


def _metric_lines(snapshot) -> list[str]:
    lines = []
    for kind in ("counters", "gauges"):
        for (name, labels), value in getattr(snapshot, kind).items():
            lines.append(f"{kind} {name} {labels!r} {value!r}")
    return lines


def _matvec(method, basis, shape, plan, k) -> list[str]:
    n_sites, _, batch_size, pipeline_options = SHAPES[shape]
    options = dict(batch_size=batch_size)
    if method == "pc":
        options.update(pipeline_options)
    op = DistributedOperator(
        repro.heisenberg_chain(n_sites), basis, method=method,
        plan=plan == "plan", **options,
    )
    x = DistributedVector.full_random(
        basis, seed=7, columns=None if k == 1 else k
    )
    lines = []
    for _ in range(2):
        y = op.matvec(x)
        lines += _report_lines(op.last_report, y)
    return lines


def _smoke(method, basis, tele) -> list[str]:
    options = dict(batch_size=256)
    if method == "pc":
        options.update(
            buffer_capacity=64, producers_per_locale=3, consumers_per_locale=1
        )
    op = DistributedOperator(
        repro.heisenberg_chain(16), basis, method=method, **options
    )
    y = op.matvec(DistributedVector.full_random(basis, seed=7))
    scalars = analyze_trace(tele.trace, metrics=tele.metrics).scalars()
    return _report_lines(op.last_report, y) + [
        f"analysis {key} {float(value)!r}"
        for key, value in sorted(scalars.items())
    ]


def _block(basis) -> list[str]:
    compiled = compile_expression(repro.heisenberg_chain(16), 16)
    plan = MatvecPlan()
    singles = [DistributedVector.full_random(basis, seed=s) for s in range(8)]
    per_locale = zip(*(x.parts for x in singles))
    block = DistributedVector(basis, [np.stack(p, axis=1) for p in per_locale])
    lines = []
    for x in [*singles, singles[0], block]:
        y, report = matvec_batched(compiled, basis, x, plan=plan)
        lines += _report_lines(report, y)
    return lines


def run(name: str) -> dict[str, list[str]]:
    """What run ``name`` leaves behind, as text: report, metrics, trace."""
    kind, shape, *rest = name.split("/")
    basis = _basis(shape)  # built (and cached) outside the telemetry scope
    tele = Telemetry.enabled()
    with telemetry.use(tele):
        if kind == "enumerate":
            report = _report_lines(_enumerate(shape)[1])
        elif kind == "lanczos":
            op = DistributedOperator(
                repro.heisenberg_chain(SHAPES[shape][0]), basis,
                batch_size=SHAPES[shape][2],
            )
            result, seconds = lanczos_distributed(
                op, k=1, seed=3, max_iter=12, raise_on_no_convergence=False
            )
            report = [
                f"seconds {seconds!r}",
                f"eigenvalues {np.asarray(result.eigenvalues).tolist()!r}",
            ]
        elif kind == "smoke":
            report = _smoke(rest[0], basis, tele)
        elif kind == "block":
            report = _block(basis)
        else:
            plan, k, _ = rest
            report = _matvec(kind, basis, shape, plan, int(k[1:]))
    return {
        "report": report,
        "metrics": _metric_lines(tele.metrics.snapshot()),
        "trace": [repr(event) for event in tele.trace.to_chrome()["traceEvents"]],
    }


def digests(name: str) -> dict[str, str]:
    return {
        part: hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        for part, lines in run(name).items()
    }


def mismatches(names=NAMES) -> list[str]:
    """``name: part`` for every digest that differs from the recording."""
    recorded = json.loads(RECORDING.read_text())
    return [
        f"{name}: {part}"
        for name in names
        for part, digest in digests(name).items()
        if recorded.get(name, {}).get(part) != digest
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", action="store_true")
    action.add_argument("--record", action="store_true")
    action.add_argument("--dump", metavar="NAME")
    args = parser.parse_args(argv)
    if args.dump:
        if args.dump not in NAMES:
            parser.error(f"no run {args.dump!r}; e.g. {NAMES[0]}, {NAMES[-1]}")
        for part, lines in run(args.dump).items():
            print(f"== {part}", *lines, sep="\n")
        return 0
    if args.record:
        RECORDING.parent.mkdir(exist_ok=True)
        rows = (f"{json.dumps(n)}: {json.dumps(digests(n))}" for n in NAMES)
        RECORDING.write_text("{\n" + ",\n".join(rows) + "\n}\n")
        print(f"recorded {len(NAMES)} runs in {RECORDING}")
        return 0
    differing = mismatches()
    print(*differing, sep="\n")
    print(f"{len(NAMES)} runs, {len(differing)} digest(s) differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
