"""Wall-clock speedup of the real-parallel ``threads`` execution backend.

Runs the producer-consumer matvec on a Heisenberg chain with the
``threads`` backend at 1/2/4/8 workers (override with
``PARALLEL_BENCH_WORKERS=1,2``) and records wall seconds + speedup per
worker count in ``results/parallel_backend.json``.  The full run uses the
paper-style 24-site chain sector; ``BENCH_SMOKE=1`` drops to the 16-site
sector so CI stays fast.  The first matvec of each operator generates its
elements through the pipeline (that is where the hand-offs are counted);
the timed ones replay the plan, one SpMV per locale on the calling thread.

Gate philosophy:

- **Correctness is a hard gate, in-test**: every parallel result must
  match the serial reference operator to ``1e-12``, always, on any
  machine.  A backend that returns fast wrong answers must fail here, not
  in a soft wall-clock comparison.
- **Speedup is recorded, not compared**: the ``workersN.speedup`` /
  ``workersN.wall_seconds`` keys go into the artifact and fail nothing —
  wall clocks belong to the host; wall time is gated end to end by the
  ``benchmarks/e2e`` ladder.  The in-test speedup assertion (>= 1.5x at 4 workers) only arms when the host actually has
  the cores (``os.cpu_count() >= 4``); on smaller machines the numbers
  are still recorded, with the host context in the artifact's ``env``
  block, so the trajectory remains interpretable.
- **The hand-off count is a hard gate on any host**: a generating pass on
  ``threads`` makes exactly one hand-off per non-empty (chunk,
  destination) slice, and a replay makes none.  That count is what the
  backend's wall clock is made of (``docs/BACKENDS.md``, "Hand-off
  granularity") and, unlike the speedup, it does not depend on how many
  cores the runner has.
- **Distributed must not lose to serial on one node**: the 2-worker replay
  over the serial ``Operator``'s replay (both are CSR products of the same
  elements) goes into the artifact at every size and is gated at <= 4x at
  the full chain-24 size only — under ``BENCH_SMOKE`` the ~30 µs of
  per-call validation and report dwarfs a dim-257 SpMV (7 µs), so the
  smoke run records the ratio (~5x) without asserting it.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

import repro
from conftest import write_result
from repro.basis import SymmetricBasis
from repro.distributed import (
    DistributedOperator,
    DistributedVector,
    enumerate_states,
)
from repro.runtime import Cluster, laptop_machine
from repro.symmetry import chain_symmetries

SMOKE = bool(os.environ.get("BENCH_SMOKE"))
CHAIN = 16 if SMOKE else 24
WEIGHT = CHAIN // 2
BATCH_SIZE = 64 if SMOKE else 2048
REPEATS = 20

WORKER_COUNTS = [
    int(w)
    for w in os.environ.get("PARALLEL_BENCH_WORKERS", "1,2,4,8").split(",")
]


@pytest.fixture(scope="module")
def parallel_runs():
    """worker_count -> (best replay wall seconds, max |diff| vs serial,
    hand-offs of the generating pass, non-empty (chunk, destination)
    slices, hand-offs of the last replay); plus the dimension and the
    serial operator's best replay seconds."""
    group = chain_symmetries(CHAIN, momentum=0, parity=0, inversion=0)
    serial = SymmetricBasis(group, hamming_weight=WEIGHT)
    expr = repro.heisenberg_chain(CHAIN)
    serial_op = repro.Operator(expr, serial)
    rng = np.random.default_rng(42)
    x = rng.standard_normal(serial.dim).astype(serial.scalar_dtype)
    if serial.scalar_dtype == np.complex128:
        x = x + 1j * rng.standard_normal(serial.dim)
    y_ref = serial_op.matvec(x)
    serial_op.matvec(x)  # folds the batches: what follows is matrix @ x
    serial_wall = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        serial_op.matvec(x)
        serial_wall = min(serial_wall, time.perf_counter() - t0)

    runs = {}
    for workers in WORKER_COUNTS:
        cluster = Cluster(
            workers, laptop_machine(cores=2), backend="threads"
        )
        template = SymmetricBasis(group, hamming_weight=WEIGHT, build=False)
        dbasis, _ = enumerate_states(
            cluster, template, use_weight_shortcut=True
        )
        dx = DistributedVector.from_serial(dbasis, serial, x)
        dop = DistributedOperator(
            expr, dbasis, method="pc", batch_size=BATCH_SIZE
        )
        dop.matvec(dx)  # generates through the pipeline, records the plan
        handoffs = dop.last_report.messages
        dop.matvec(dx)  # folds the plan: time the replay steady state
        best = float("inf")
        max_diff = 0.0
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            dy = dop.matvec(dx)
            best = min(best, time.perf_counter() - t0)
            diff = float(np.abs(dy.to_serial(serial) - y_ref).max())
            max_diff = max(max_diff, diff)
        slices = sum(
            np.count_nonzero(np.diff(dop.plan.peek((locale, start)).starts))
            for locale in range(workers)
            for start in range(0, int(dbasis.counts[locale]), BATCH_SIZE)
        )
        runs[workers] = (
            best, max_diff, handoffs, slices, dop.last_report.messages
        )
    return runs, float(serial.dim), serial_wall


def test_parallel_results_match_serial_exactly(parallel_runs):
    """Hard correctness gate: 1e-12 against the serial operator, always."""
    runs, _, _ = parallel_runs
    for workers, (_, max_diff, *_) in runs.items():
        assert max_diff <= 1e-12, (
            f"threads backend with {workers} workers drifted {max_diff:.3e} "
            "from the serial reference"
        )


def test_one_handoff_per_destination_slice(parallel_runs):
    """Hard gate on any host: the generating pass hands over whole slices."""
    runs, _, _ = parallel_runs
    for workers, (_, _, handoffs, slices, _) in runs.items():
        if workers > 1:  # one worker is the shared-memory path: no hand-offs
            assert handoffs == slices, (
                f"{workers} workers: {handoffs} hand-offs for {slices} "
                "non-empty (chunk, destination) slices"
            )


def test_replay_hands_nothing_over(parallel_runs):
    """Hard gate on any host: a replay is one SpMV per locale, no message
    (its 1e-12 against serial is the correctness gate above)."""
    runs, _, _ = parallel_runs
    for workers, (*_, replay_messages) in runs.items():
        assert replay_messages == 0, (
            f"{workers} workers: the replay handed over {replay_messages} "
            "buffers"
        )


def test_two_worker_replay_within_4x_of_serial(parallel_runs):
    """Both replays multiply by CSR matrices holding the same elements; the
    distributed one adds a concatenation, validation and a report."""
    runs, _, serial_wall = parallel_runs
    if SMOKE or 2 not in runs:
        pytest.skip("gated at the full chain-24 size with 2 workers")
    ratio = runs[2][0] / serial_wall
    assert ratio <= 4.0, (
        f"2-worker replay takes {ratio:.2f}x the serial operator's "
        f"({runs[2][0]:.6f}s vs {serial_wall:.6f}s)"
    )


def test_multiworker_speedup_when_cores_available(parallel_runs):
    """Soft wall-clock gate: armed only when the host has the cores.

    The acceptance bar — >= 1.5x at 4 workers over 1 — is a statement
    about parallel hardware; asserting it on a 1-core CI runner would
    test the host, not the code.  The recorded artifact keeps the numbers
    (and the ``env`` block keeps the context) either way.
    """
    runs, _, _ = parallel_runs
    cpus = os.cpu_count() or 1
    if 1 not in runs:
        pytest.skip("no single-worker reference in PARALLEL_BENCH_WORKERS")
    serial_wall = runs[1][0]
    for workers, (wall, *_) in runs.items():
        if workers == 4 and cpus >= 4:
            assert serial_wall / wall >= 1.5, (
                f"4-worker speedup {serial_wall / wall:.2f}x < 1.5x on a "
                f"{cpus}-cpu host"
            )


def test_write_artifact(parallel_runs):
    runs, dim, serial_replay = parallel_runs
    serial_wall = runs[1][0] if 1 in runs else None
    data = {"correct": 1.0}
    lines = [
        f"chain-{CHAIN} producer-consumer matvec, threads backend "
        f"(dim {int(dim)}, batch {BATCH_SIZE}, best of {REPEATS})",
        f"{'workers':>8} {'wall seconds':>14} {'speedup':>9}",
    ]
    for workers in sorted(runs):
        wall, max_diff, *_ = runs[workers]
        entry = {"wall_seconds": wall}
        if serial_wall is not None:
            entry["speedup"] = serial_wall / wall
        data[f"workers{workers}"] = entry
        speedup = f"{serial_wall / wall:9.2f}" if serial_wall else "        -"
        lines.append(f"{workers:>8} {wall:>14.6f} {speedup}")
        data["correct"] = min(
            data["correct"], 1.0 if max_diff <= 1e-12 else 0.0
        )
    if 2 in runs:
        ratio = runs[2][0] / serial_replay
        data["replay_vs_serial"] = {"workers2_ratio": ratio}
        lines.append(
            f"2-worker replay / serial Operator replay "
            f"({serial_replay:.6f} s): {ratio:.2f}x"
        )
    write_result(
        "parallel_backend",
        "\n".join(lines),
        data,
        worker_count=max(runs),
    )
