"""Seeded chaos harness for the self-healing distributed matvec.

Runs the producer-consumer matvec — the one variant that takes faults —
on the 16-site chain sector under several deterministic fault plans and
checks the resilience contract of ``docs/RESILIENCE.md``:

- every plan's run either *recovers* — the result matches the
  fault-free reference to 1e-10 — or raises a typed
  :class:`~repro.errors.FaultError`; it never hangs and never returns
  silently wrong amplitudes;
- the fault-free overhead of the resilient protocol (sequence numbers,
  CRC32 checksums, acknowledgement tracking) stays within 5% of the
  plain pipeline's time.

Both the plain and the resilient fault-free simulated seconds are pure
functions of the code and the machine model: the sim snapshot
(``tests/sim_snapshot.py``) holds them exactly, as the first product of
``pc/c16-l4/plan/k1/plain`` and ``.../resilience`` — the same
basis, batch, buffer and input vector as here.

``CHAOS_BACKEND=threads`` reruns the same harness on the real-parallel
backend: the identical seeded plans are injected at the executor
primitives (keyed per-message fates, wall-clock delay timers, a crash
that fails the run at once and is healed by the matvec restart), the
recover-or-typed-error gate is unchanged, and
the 5% fault-free overhead gate applies to *wall* seconds — measured
best-of-N to damp scheduler noise — with the artifact written to
``chaos_smoke_threads`` so the sim artifact stays untouched.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro
from conftest import write_result
from repro import telemetry
from repro.distributed import DistributedOperator, DistributedVector
from repro.errors import FaultError
from repro.resilience import FaultPlan, ResilienceConfig
from repro.telemetry import Telemetry

VARIANTS = ("pc",)

#: Execution backend under chaos: "sim" (default, exact simulated
#: seconds) or "threads" (real workers, wall-clock gates).
BACKEND = os.environ.get("CHAOS_BACKEND", "sim")
SIM = BACKEND == "sim"
#: threads mode: fault-free timings are adaptive best-of-N (scheduler
#: noise would otherwise dominate a 5% gate at sub-millisecond smoke
#: scale); sim timings are exact.
WALL_MIN_REPEATS = 5
WALL_MAX_REPEATS = 60
_PLAIN_KEY = "plain_simulated_seconds" if SIM else "plain_wall_seconds"
_RESILIENT_KEY = (
    "resilient_simulated_seconds" if SIM else "resilient_wall_seconds"
)

#: Seeded chaos menu: drops + delays, corruption + duplication, and a
#: straggler + mid-flight crash (recovered by a matvec restart because
#: crash specs are one-shot).
FAULT_PLANS = {
    "drops": dict(seed=11, drop=0.05, delay=0.2, max_delay=1e-4),
    "corruption": dict(seed=12, duplicate=0.05, corrupt=0.03),
    "crash": dict(seed=13, stragglers={1: 2.5}, crashes={2: 1e-5}),
}


#: The pipeline's chunk and hand-off sizes (the sim snapshot's c16-l4).
PC_OPTIONS = {"batch_size": 256, "buffer_capacity": 64}


@pytest.fixture(scope="module")
def chaos_setup(chain16_setup):
    """The 16-site sector on the backend under test."""
    if SIM:
        return chain16_setup
    from repro.basis import SymmetricBasis
    from repro.distributed import enumerate_states
    from repro.runtime import Cluster, laptop_machine
    from repro.symmetry import chain_symmetries

    group = chain_symmetries(16, momentum=0, parity=0, inversion=0)
    serial = SymmetricBasis(group, hamming_weight=8)
    cluster = Cluster(4, laptop_machine(cores=4), backend=BACKEND)
    template = SymmetricBasis(group, hamming_weight=8, build=False)
    dbasis, report = enumerate_states(
        cluster, template, use_weight_shortcut=True
    )
    return serial, dbasis, report


def _measure_pair(plain_op, resilient_op, x):
    """Plain and resilient fault-free elapsed, measured fairly.

    On sim the timings are exact (the single run already taken for the
    correctness check).  On wall clock the two pipelines are timed
    best-of-N with the repeats *interleaved pairwise*, so slow drift on
    a noisy shared host lands on both alike instead of biasing
    whichever measured last.

    Sampling is adaptive: each pipeline needs one clean (uncontended)
    run for its best-of estimate, so pairs keep coming until the
    estimates stabilise safely inside the overhead gate or the repeat
    budget runs out.  A genuine protocol regression fails every sample,
    so the gate still bites.
    """
    if SIM:
        return plain_op.last_report.elapsed, resilient_op.last_report.elapsed
    best_plain = best_resilient = float("inf")
    for rep in range(WALL_MAX_REPEATS):
        plain_op.matvec(x)
        best_plain = min(best_plain, plain_op.last_report.elapsed)
        resilient_op.matvec(x)
        best_resilient = min(best_resilient, resilient_op.last_report.elapsed)
        if (
            rep + 1 >= WALL_MIN_REPEATS
            and best_resilient <= best_plain * 1.04
        ):
            break
    return best_plain, best_resilient


@pytest.fixture(scope="module")
def chaos_results(chaos_setup):
    """variant -> timing + recovery summary under the chaos menu."""
    serial, dbasis, _ = chaos_setup
    expr = repro.heisenberg_chain(16)
    x = DistributedVector.full_random(dbasis, seed=7)
    out = {}
    for method in VARIANTS:
        plain_op = DistributedOperator(
            expr, dbasis, method=method, **PC_OPTIONS
        )
        reference = plain_op.matvec(x).to_serial(serial)

        # Fault-free overhead of the protocol itself (checksums, seqs, acks).
        resilient_op = DistributedOperator(
            expr, dbasis, method=method,
            resilience=ResilienceConfig(), **PC_OPTIONS,
        )
        y = resilient_op.matvec(x).to_serial(serial)
        np.testing.assert_allclose(y, reference, atol=1e-12)
        plain_elapsed, resilient_elapsed = _measure_pair(
            plain_op, resilient_op, x
        )
        overhead = resilient_elapsed / plain_elapsed

        recovered = 0
        failed = 0
        retransmits = 0.0
        for plan_name, spec in FAULT_PLANS.items():
            tele = Telemetry.enabled()
            with telemetry.use(tele):
                op = DistributedOperator(
                    expr, dbasis, method=method,
                    faults=FaultPlan(**spec), **PC_OPTIONS,
                )
                try:
                    result = op.matvec(x).to_serial(serial)
                except FaultError:
                    failed += 1
                    continue
            err = float(np.abs(result - reference).max())
            assert err <= 1e-10, (
                f"{method} under plan {plan_name!r}: silently wrong result "
                f"(max error {err:.3g})"
            )
            recovered += 1
            retransmits += tele.metrics.snapshot().counter_total(
                "recovery.retransmits"
            )
        out[method] = {
            _PLAIN_KEY: plain_elapsed,
            _RESILIENT_KEY: resilient_elapsed,
            "overhead_ratio": overhead,
            "recovered": recovered,
            "failed": failed,
            "retransmits": retransmits,
        }
    return out


def test_every_plan_recovers_or_faults(chaos_results):
    n_plans = len(FAULT_PLANS)
    for method, row in chaos_results.items():
        assert row["recovered"] + row["failed"] == n_plans
        # The chaos menu is recoverable by design: drops/corruption heal
        # via retransmits, the crash heals via a matvec restart.
        assert row["recovered"] == n_plans, (
            f"{method} failed {row['failed']} of {n_plans} recoverable plans"
        )


def test_fault_free_overhead_within_5_percent(chaos_results):
    for method, row in chaos_results.items():
        assert row["overhead_ratio"] <= 1.05, (
            f"{method}: resilient fault-free run costs "
            f"{(row['overhead_ratio'] - 1) * 100:.2f}% over plain "
            "(budget: 5%)"
        )


def test_exhausted_budgets_raise_typed_faults(chaos_setup):
    """With recovery disabled, a crash surfaces as FaultError — not a hang,
    not a wrong answer."""
    serial, dbasis, _ = chaos_setup
    expr = repro.heisenberg_chain(16)
    x = DistributedVector.full_random(dbasis, seed=7)
    for method in VARIANTS:
        op = DistributedOperator(
            expr, dbasis, method=method,
            faults=FaultPlan(seed=5, crashes={0: 1e-6}),
            resilience=ResilienceConfig(matvec_restarts=0),
            **PC_OPTIONS,
        )
        with pytest.raises(FaultError):
            op.matvec(x)


def test_chaos_smoke_artifact(chaos_results):
    lines = [
        f"{'variant':<10} {'plain[s]':>12} {'resilient[s]':>13} "
        f"{'overhead':>9} {'recovered':>10} {'failed':>7}"
    ]
    for method, row in chaos_results.items():
        lines.append(
            f"{method:<10} {row[_PLAIN_KEY]:>12.6g} "
            f"{row[_RESILIENT_KEY]:>13.6g} "
            f"{row['overhead_ratio']:>9.4f} {row['recovered']:>10d} "
            f"{row['failed']:>7d}"
        )
    write_result(
        "chaos_smoke" if SIM else f"chaos_smoke_{BACKEND}",
        "\n".join(lines),
        chaos_results,
        worker_count=None if SIM else 4,
    )
