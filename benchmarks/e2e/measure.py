"""The untraced pass: the stages of a user's wait, timed from outside.

One *journey* is what a physicist does once: set the problem up, pay the
first (plan-recording) matvec, then iterate; it ends with the same thing
done in one call, ``run_simulation`` on a fresh spec.  A run repeats
journeys with fresh objects until its time is up, cut off between two
operations, so every stage is sampled along the whole length of the run.

Every set-up, matvec, solve and ``run_simulation`` call is one operation:
it fails if it raises or misses its check.  The checks run outside the
timed regions.

The machine this runs on is shared, and a neighbour slows it by a tenth to
a half for milliseconds to minutes at a time.  Each sample therefore has a
burst of ``Probe`` work on either side and is reported as the time it
would have taken with the machine as quiet as it was at its quietest in
the run (``summarize``); the seconds as measured are kept beside it.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
from time import perf_counter

import numpy as np

import repro

from workloads import Workload, make_spec, setup

#: Plan replays after each of a journey's plan record, cold matvec and solve.
WARM_BURST = 10
#: Probes in the burst on either side of a sample or a burst of replays.
PROBES_AROUND = 24
#: The quiet machine is the mean of this many fastest probes of the run.
QUIET_PROBES = 5

ENERGY_TOL = 1e-8
MATVEC_TOL = 1e-12


class Operations:
    """Counts operations attempted and failed, keeping the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def timed(self, label: str, fn):
        """Run ``fn`` as one operation; ``(result, seconds)`` or ``None``."""
        self.attempted += 1
        try:
            t0 = perf_counter()
            result = fn()
            return result, perf_counter() - t0
        except Exception as exc:  # boundary: a failed operation is a result
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons.append(reason)

    def check(self, ok: bool, reason: str) -> None:
        if not ok:
            self.fail(reason)


class Probe:
    """Half a millisecond of fixed work whose duration tells how disturbed
    the machine is right now.

    It does what the package does: shifts, masks and comparisons over a
    batch of states that fits the cache (the cold path), then a gather,
    multiply and scatter-add through fresh megabyte temporaries and some
    interpreter (the warm path).  It depends on nothing under ``src/``.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20260928)
        self.states = rng.integers(0, 1 << 62, size=1 << 14, dtype=np.uint64)
        self.scratch = np.empty_like(self.states)
        self.best = np.empty_like(self.states)
        self.index = rng.integers(0, 1 << 15, size=1 << 16)
        self.weights = rng.standard_normal(1 << 16)
        self.x = rng.standard_normal(1 << 15)
        self.seconds: list[float] = []  # every probe of the run
        self.burst: list[float] = []  # the latest burst
        self.ended = 0.0

    def once(self) -> float:
        states, scratch, best = self.states, self.scratch, self.best
        t0 = perf_counter()
        np.copyto(best, states)
        for shift in range(1, 25):
            np.left_shift(states, shift, out=scratch)
            np.bitwise_xor(scratch, states, out=scratch)
            np.minimum(best, scratch, out=best)
        total = 0
        for i in range(1000):
            total += i & 7
        np.bincount(
            self.index, weights=self.weights * self.x[self.index],
            minlength=self.x.size,
        )
        seconds = perf_counter() - t0
        self.seconds.append(seconds)
        return seconds

    def around(self, fresh: bool = False) -> list[float]:
        """The burst of ``PROBES_AROUND`` probes that ends now: the latest
        one if it ended within the last millisecond and ``fresh`` is false
        (the burst after one sample is the burst before the next), else a
        new one."""
        if fresh or perf_counter() - self.ended > 1e-3:
            self.burst = [self.once() for _ in range(PROBES_AROUND)]
            self.ended = perf_counter()
        return self.burst

    def quiet(self) -> float:
        """A probe on the machine at its quietest in this run."""
        return statistics.fmean(sorted(self.seconds)[:QUIET_PROBES])


def summarize(
    samples: list[float], at: list[float], slowdown: list[float], unit: str
) -> dict:
    """The reported value and what it was made from.

    ``slowdown`` says, sample by sample, how many times longer than on the
    quiet machine the probes around it took; a sample divided by it is in
    quiet-machine seconds.  The value is the 10th percentile of those: a
    neighbour only ever adds time and the probes see what it does before
    and after a sample, not during, so what is left of it is one-sided and
    the low end repeats best (README, "Sizing": 2-10 % run to run where
    the median of the seconds as measured moves by 10-50 %).  Those are
    kept under ``measured`` with their median, quartiles and the highest
    percentile with ten samples beyond it (``None`` below twenty samples).
    """
    quiet = np.divide(samples, slowdown)
    n = len(samples)
    ordered = sorted(samples)
    tail = None
    for pct in (99.9, 99, 95, 90, 75):
        if n * (1 - pct / 100) >= 10:
            tail = [pct, ordered[min(n - 1, int(n * pct / 100))]]
            break
    value, q1, median, q3 = (float(v) for v in np.percentile(quiet, [10, 25, 50, 75]))
    m1, measured, m3 = (float(v) for v in np.percentile(samples, [25, 50, 75]))
    return {
        "value": value,
        "unit": unit,
        "n": n,
        "q1": q1,
        "median": median,
        "q3": q3,
        "slowdown": statistics.median(slowdown),
        "measured": {
            "median": measured, "q1": m1, "q3": m3, "min": ordered[0],
            "tail": tail,
        },
        "samples": samples,
        "at": at,
        "slowdowns": slowdown,
    }


def fingerprint(x) -> str:
    """SHA-1 of a (distributed) vector's bytes: same seed, same inputs."""
    digest = hashlib.sha1()
    for part in getattr(x, "parts", [x]):
        digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


def relative_error(y: np.ndarray, reference: np.ndarray) -> float:
    return float(np.linalg.norm(y - reference) / np.linalg.norm(reference))


def check_solve(ops: Operations, label: str, energy, converged, reference) -> None:
    ops.check(
        bool(converged) and abs(float(energy) - reference) <= ENERGY_TOL,
        f"{label}: energy {float(energy)!r} vs reference {reference!r}, "
        f"converged={converged}",
    )


class _TimeUp(Exception):
    """The run's time is spent; what was sampled so far is the result."""


class EndToEndPass:
    """All seven end-to-end metrics of one workload, plus the op counts."""

    STAGES = (
        "setup_s", "plan_record_s", "cold_matvec_s", "warm_matvec_s",
        "solve_s", "time_to_solution_s", "peak_rss_mb",
    )

    def __init__(
        self,
        workload: Workload,
        shape: tuple[int, ...],
        seed: int,
        reference: float,
        quick: bool,
    ) -> None:
        self.workload = workload
        self.shape = shape
        self.seed = seed
        self.reference = reference
        self.burst = 1 if quick else WARM_BURST
        self.ops = Operations()
        self.probe = Probe()
        self.samples: dict[str, list[float]] = {name: [] for name in self.STAGES}
        #: when each sample began, in seconds since the run did
        self.at: dict[str, list[float]] = {name: [] for name in self.STAGES}
        #: median of the probes around each sample, in seconds
        self.probed: dict[str, list[float]] = {name: [] for name in self.STAGES}
        self.iterations: list[int] = []
        self.inputs_sha1 = ""
        self.start = perf_counter()
        self.deadline: float | None = None  # none until one journey is whole

    def sample(self, stage: str, fn, count: int = 1) -> list:
        """Time ``fn`` ``count`` times in a row, each one operation and one
        sample of ``stage``, with a burst of probes before the first and
        after the last; the results of those that did not fail.  Ends the
        run once its time is up."""
        if self.deadline is not None and perf_counter() >= self.deadline:
            raise _TimeUp
        before = self.probe.around()
        results, first = [], len(self.samples[stage])
        for _ in range(count):
            began = perf_counter()
            out = self.ops.timed(stage, fn)
            if out is not None:
                results.append(out[0])
                self.samples[stage].append(out[1])
                self.at[stage].append(began - self.start)
        after = self.probe.around(fresh=True)
        around = statistics.median(before + after)
        self.probed[stage] += [around] * (len(self.samples[stage]) - first)
        return results

    def journey(self, number: int) -> None:
        """Set-up, the stages one by one on the fresh objects with plan
        replays between them, then all of it in one call."""
        gc.collect()
        built = self.sample("setup_s", lambda: setup(self.workload, self.shape))
        if built:
            self.stages(built.pop(), number)
        # Everything the stages built is garbage by now, as for a new user.
        gc.collect()
        for result in self.sample(
            "time_to_solution_s",
            lambda: repro.run_simulation(
                make_spec(self.workload, self.shape),
                seed=1000 * self.seed + number,
            ),
        ):
            check_solve(
                self.ops, "run_simulation", result["eigenvalues"][0],
                result["converged"], self.reference,
            )

    def stages(self, problem, number: int) -> None:
        """plan record -> cold -> solve, a burst of plan replays after each."""
        x = problem.random_vector(self.seed)
        self.inputs_sha1 = fingerprint(x)
        y_first = None

        def matvec(stage: str, op, count: int = 1) -> None:
            nonlocal y_first
            for y in self.sample(stage, lambda: op.matvec(x), count):
                if y_first is None:
                    y_first = y
                self.ops.check(
                    problem.identical(y, y_first),
                    f"{stage}: result differs from the first matvec",
                )

        problem.op.invalidate_plan()
        matvec("plan_record_s", problem.op)
        matvec("warm_matvec_s", problem.op, self.burst)
        matvec("cold_matvec_s", problem.op_cold)
        matvec("warm_matvec_s", problem.op, self.burst)
        solve_seed = 1000 * self.seed + number
        for result in self.sample("solve_s", lambda: problem.solve(solve_seed)):
            self.iterations.append(result.n_iterations)
            check_solve(
                self.ops, "solve", result.eigenvalues[0], result.converged,
                self.reference,
            )
        matvec("warm_matvec_s", problem.op, self.burst)

        if not self.samples["peak_rss_mb"]:
            # Once, in the process's first journey: later ones start from
            # whatever the allocator kept of the previous one, which moves
            # the high-water mark by tens of MB from run to run.  The oracle
            # (a CSR matrix or a serial twin in memory) comes after it.
            self.samples["peak_rss_mb"].append(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
            self.at["peak_rss_mb"].append(perf_counter() - self.start)
            if y_first is not None:
                error = relative_error(problem.gather(y_first), problem.oracle(x))
                self.ops.check(
                    error <= MATVEC_TOL,
                    f"matvec vs oracle: relative error {error:.3e}",
                )

    def run(self, seconds: float) -> "EndToEndPass":
        """One whole journey (after the workload's burn-in), then journeys
        until ``seconds`` after the start, cut off between two operations."""
        for _ in range(self.workload.burn_in):
            self.journey(0)
            # Keep the memory mark (this was the process's first journey)
            # and the operation counts; drop the timings and the probes.
            for name in self.samples:
                if name != "peak_rss_mb":
                    self.samples[name].clear()
                    self.at[name].clear()
                    self.probed[name].clear()
            self.iterations.clear()
            self.probe.seconds.clear()
        self.journey(0)
        self.deadline = self.start + seconds
        number = 1
        try:
            while True:
                self.journey(number)
                number += 1
        except _TimeUp:
            return self

    def summary(self, stage: str, unit: str) -> dict:
        if stage == "peak_rss_mb":
            slowdown = [1.0]
        else:
            quiet = self.probe.quiet()
            slowdown = [around / quiet for around in self.probed[stage]]
        return summarize(self.samples[stage], self.at[stage], slowdown, unit)
