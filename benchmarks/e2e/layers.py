"""The traced pass: one row per layer under the end-to-end stages.

A cold matvec is replayed batch by batch through the package's public
functions, in the order ``Operator.matvec`` (serial) or ``produce_chunk``
/ ``consume`` (distributed) call them, with a span around each call; the
replayed ``y`` must equal the real matvec's.  The solver is taken apart
by handing ``lanczos`` a wrapped matvec and a wrapped vector space.  The
same pass times the stages untraced, so the two ratios that judge the
instrument itself (``bench.*``) come from one process.
"""

from __future__ import annotations

import inspect
import math
import statistics
from time import perf_counter

import numpy as np

import repro
from repro import telemetry
from repro.bits import compile_permutation, rotate_left, states_with_weight
from repro.distributed.convert import counting_sort_order
from repro.distributed.matvec_common import apply_diagonal
from repro.operators import compile_expression, get_many_rows
from repro.runtime import Pop, Timeout, WaitFlag, get_executor

from envinfo import nproc
from measure import Operations, check_solve, relative_error
from tracer import Tracer
from workloads import DistributedProblem, Workload, make_spec, n_sites, setup

PINGPONGS = 1000


def _median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


# -- work counters for instrumented calls -----------------------------------


def _first_arg_size(args, result) -> int:
    return int(np.size(args[0]))


def _last_arg_size(args, result) -> int:
    return int(np.size(args[-1]))


def _emitted(args, result) -> int:
    return int(result[0].size)


# -- replaying a cold matvec through the public functions -------------------


def replay_serial(tracer: Tracer, problem, x: np.ndarray) -> np.ndarray:
    """``Operator.matvec`` without a plan, call by call."""
    op = problem.op_cold
    basis = problem.basis
    states = basis.states
    scale = basis.source_scale
    with tracer.instrument(
        (op.compiled, "apply_off_diag", "operators.apply_off_diag", _emitted),
        (basis, "project", "basis.project", _first_arg_size),
        (problem.group, "state_info", "symmetry.state_info", _first_arg_size),
        (basis, "index", "basis.index", _first_arg_size),
    ), tracer.span("operators.matvec"):
        y = op.diagonal().astype(x.dtype) * x
        for start in range(0, states.size, op.batch_size):
            alphas = states[start : start + op.batch_size]
            with tracer.span("operators.get_many_rows"):
                sources, members, amplitudes = get_many_rows(
                    op.compiled,
                    basis,
                    alphas,
                    scale[start : start + alphas.size],
                )
            rows = basis.index(members)
            with tracer.span("operators.scatter"):
                np.add.at(y, rows, amplitudes * x[start + sources])
    return y


def _pc_defaults() -> tuple[int, int]:
    """Chunk and buffer sizes ``method="pc"`` runs with by default."""
    parameters = inspect.signature(
        repro.distributed.matvec_producer_consumer
    ).parameters
    return (
        parameters["batch_size"].default,
        parameters["buffer_capacity"].default,
    )


def replay_distributed(tracer: Tracer, problem, x):
    """The producer and consumer kernels of ``method="pc"``, in one thread.

    Every locale's chunks are produced (``getManyRows``, destination hash,
    counting-sort partition, gathers) and each destination slice is
    consumed (``stateToIndex`` + scatter-add) in buffer-sized pieces,
    which is exactly the work the pipeline schedules.
    """
    compiled = problem.op_cold.compiled
    basis = problem.basis
    template = basis.template
    n = basis.n_locales
    batch_size, buffer_capacity = _pc_defaults()
    y = repro.DistributedVector.zeros(basis, dtype=x.dtype)
    with tracer.instrument(
        (compiled, "apply_off_diag", "operators.apply_off_diag", _emitted),
        (template, "project", "basis.project", _first_arg_size),
        (problem.group, "state_info", "symmetry.state_info", _first_arg_size),
        (basis, "index_local", "basis.index", _last_arg_size),
    ), tracer.span("distributed.matvec"):
        with tracer.span("distributed.diagonal"):
            apply_diagonal(compiled, basis, x, y)
        for locale in range(n):
            x_local = x.parts[locale]
            count = int(basis.counts[locale])
            for start in range(0, count, batch_size):
                stop = min(start + batch_size, count)
                with tracer.span("distributed.produce"):
                    with tracer.span("operators.get_many_rows"):
                        sources, members, amplitudes = get_many_rows(
                            compiled,
                            template,
                            basis.parts[locale][start:stop],
                            basis.scales[locale][start:stop],
                        )
                    with tracer.span("distributed.hash", work=members.size):
                        dests = repro.locale_of(members, n)
                    with tracer.span("distributed.partition", work=members.size):
                        order, starts = counting_sort_order(dests, n)
                    betas = members[order]
                    values = amplitudes[order] * x_local[start + sources[order]]
                for dest in range(n):
                    lo, hi = int(starts[dest]), int(starts[dest + 1])
                    for cut in range(lo, hi, buffer_capacity):
                        end = min(cut + buffer_capacity, hi)
                        with tracer.span("distributed.consume"):
                            idx = basis.index_local(dest, betas[cut:end])
                            with tracer.span("operators.scatter"):
                                np.add.at(y.parts[dest], idx, values[cut:end])
    return y


def warm_kernels_distributed(problem, x) -> None:
    """The plan-replay work of one warm ``pc`` matvec, without the pipeline:
    cached chunk -> gather-multiply -> scatter-add with cached rows."""
    basis = problem.basis
    plan = problem.op.plan
    n = basis.n_locales
    batch_size, buffer_capacity = _pc_defaults()
    y = repro.DistributedVector.zeros(basis, dtype=x.dtype)
    apply_diagonal(problem.op.compiled, basis, x, y)
    for locale in range(n):
        for start in range(0, int(basis.counts[locale]), batch_size):
            chunk = plan.get((locale, start)).replay(start, x.parts[locale])
            for dest in range(n):
                betas, values = chunk.slice_for(dest)
                rows = chunk.rows_for(dest)
                for cut in range(0, betas.size, buffer_capacity):
                    piece = slice(cut, cut + buffer_capacity)
                    np.add.at(y.parts[dest], rows[piece], values[piece])


# -- taking the solver apart -------------------------------------------------


class TracedSpace:
    """A ``VectorSpace`` whose every primitive records a span."""

    def __init__(self, space, tracer: Tracer, layer: str) -> None:
        self._space = space
        self._tracer = tracer
        self._layer = layer

    def __getattr__(self, name: str):
        attr = getattr(self._space, name)
        if not callable(attr):
            return attr
        return self._tracer.traced(attr, f"{self._layer}.{name}")


def traced_solve(tracer: Tracer, problem, seed: int):
    distributed = isinstance(problem, DistributedProblem)
    layer = "distributed" if distributed else "linalg"
    space = (
        repro.DistributedVectorSpace(problem.basis)
        if distributed
        else repro.linalg.NumpyVectorSpace()
    )
    matvec = tracer.traced(
        problem.op.matvec,
        "distributed.matvec_warm" if distributed else "operators.matvec_warm",
    )
    with tracer.span("linalg.lanczos"):
        return problem.solve(
            seed, matvec=matvec, space=TracedSpace(space, tracer, layer)
        )


# -- executor primitives -------------------------------------------------------


def _flag_pair(ex):
    a, b = ex.flag(False), ex.flag(False)

    def ping():
        for _ in range(PINGPONGS):
            a.set(True)
            yield WaitFlag(b, True)
            b.set(False)

    def pong():
        for _ in range(PINGPONGS):
            yield WaitFlag(a, True)
            a.set(False)
            b.set(True)

    return ping(), pong()


def _queue_pair(ex):
    there, back = ex.queue(), ex.queue()

    def ping():
        for i in range(PINGPONGS):
            there.push(i)
            yield Pop(back)

    def pong():
        for _ in range(PINGPONGS):
            item = yield Pop(there)
            back.push(item)

    return ping(), pong()


def _lock_pair(ex):
    lock = ex.lock("bench")

    def user():
        for _ in range(PINGPONGS):
            with lock:
                pass
        yield Timeout(0.0)

    return user(), user()


def _idle_pair(ex):
    def idle():
        yield Timeout(0.0)

    return idle(), idle()


def _pair_seconds(cluster, make_pair) -> float:
    """Spawn the two generator processes on a fresh executor and join."""
    ex = get_executor(cluster)
    first, second = make_pair(ex)
    t0 = perf_counter()
    ex.spawn(first, name="ping", locale=0)
    ex.spawn(second, name="pong", locale=0)
    ex.run()
    return perf_counter() - t0


def runtime_roundtrips(cluster) -> dict[str, float]:
    """Microseconds per round trip of each executor primitive (per
    acquire+release for the lock, per spawn+join of a pair for the last)."""
    return {
        "runtime.flag_roundtrip_us": 1e6
        * _pair_seconds(cluster, _flag_pair) / PINGPONGS,
        "runtime.queue_roundtrip_us": 1e6
        * _pair_seconds(cluster, _queue_pair) / PINGPONGS,
        "runtime.lock_roundtrip_us": 1e6
        * _pair_seconds(cluster, _lock_pair) / (2 * PINGPONGS),
        "runtime.spawn_join_us": 1e6
        * _median_seconds(lambda: _pair_seconds(cluster, _idle_pair), 20),
    }


# -- the pass -------------------------------------------------------------------


class LayerPass:
    """Every per-layer row of one workload.

    ``metrics`` maps row name to value; a row that cannot be measured on
    this machine is absent from it and explained in ``notes``.
    """

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
        self.quick = quick
        self.tracer = Tracer(workload.name)
        self.ops = Operations()
        self.metrics: dict[str, float] = {}
        self.notes: dict[str, str] = {}

    def repeats(self, count: int) -> int:
        return 1 if self.quick else count

    def run(self) -> "LayerPass":
        self.set_up()
        self.time_stages()
        self.replay_cold()
        self.microbenchmarks()
        self.take_solver_apart()
        self.price_telemetry()
        self.price_config()
        if self.workload.distributed:
            self.distributed_rows()
        if self.workload.backend == "sim":
            self.other_schedules()
        if self.workload.backend == "threads":
            self.threads_against_one_locale()
        return self

    def set_up(self) -> None:
        """One span per construction step; counts that describe the problem."""
        m, n = self.metrics, n_sites(self.shape)
        with self.tracer.span("bench.setup"):
            self.problem = problem = setup(
                self.workload, self.shape, tracer=self.tracer
            )
        built = self.tracer.totals()
        self.setup_s = built["bench.setup"].seconds
        if self.workload.distributed:
            m["distributed.enumerate_s"] = built["distributed.enumerate"].seconds
            # The hashed basis has no build step of its own; this problem's
            # ``basis`` row is the serial twin's, which the oracle needs anyway.
            mark = self.tracer.mark()
            self.serial = problem.serial_twin(tracer=self.tracer)
            m["basis.build_s"] = self.tracer.totals(mark)["basis.build"].seconds
        else:
            self.serial = problem
            m["basis.build_s"] = built["basis.build"].seconds
        m["operators.compile_s"] = _median_seconds(
            lambda: compile_expression(problem.expression, n), self.repeats(5)
        )
        m["bits.states_with_weight_s"] = _median_seconds(
            lambda: states_with_weight(n, n // 2), self.repeats(5)
        )
        m["basis.candidates"] = math.comb(n, n // 2)
        m["basis.dim"] = problem.dim
        m["basis.keep_ratio"] = problem.dim / m["basis.candidates"]
        m["symmetry.group_order"] = len(problem.group)
        m["symmetry.network_perms"] = problem.group.kernel.strategy_counts.get(
            "network", 0
        )

    def time_stages(self) -> None:
        """The end-to-end stages, untraced, as this process sees them: the
        denominators of the ratios below."""
        problem = self.problem
        self.x = x = problem.random_vector(self.seed)
        for _ in range(self.workload.burn_in):
            problem.solve(self.seed)  # see Workload.burn_in
        problem.op.invalidate_plan()
        t0 = perf_counter()
        self.y_first = problem.op.matvec(x)
        self.record_s = perf_counter() - t0
        self.cold_s = _median_seconds(
            lambda: problem.op_cold.matvec(x), self.repeats(3)
        )
        self.warm_s = _median_seconds(
            lambda: problem.op.matvec(x), self.repeats(30)
        )
        t0 = perf_counter()
        result = problem.solve(self.seed)
        self.solve_s = perf_counter() - t0
        self.check_energy("solve", result.eigenvalues[0], result.converged)

    def check_energy(self, label: str, energy, converged) -> None:
        self.ops.attempted += 1
        check_solve(self.ops, label, energy, converged, self.reference)

    def replay_cold(self) -> None:
        """Where one cold matvec goes, layer by layer."""
        m, problem, x = self.metrics, self.problem, self.x
        replay = (
            replay_distributed if self.workload.distributed else replay_serial
        )
        mark = self.tracer.mark()
        y_replay = replay(self.tracer, problem, x)
        self.cold_spans = spans = self.tracer.totals(mark)
        # One CSR matrix serves as this pass's oracle and as the SpMV floor.
        self.matrix = self.serial.op.to_sparse()
        y_real = problem.gather(self.y_first)
        for label, other in (
            ("replayed matvec", problem.gather(y_replay)),
            ("oracle", self.matrix @ problem.gather(x)),
        ):
            error = relative_error(y_real, other)
            self.ops.attempted += 1
            self.ops.check(error <= 1e-12, f"matvec vs {label}: {error:.3e}")

        root = "distributed.matvec" if self.workload.distributed else "operators.matvec"
        self.kernel_s = spans[root].seconds
        info = spans["symmetry.state_info"]
        index = spans["basis.index"]
        rows = spans["operators.get_many_rows"]
        generated = spans["operators.apply_off_diag"]
        m["symmetry.state_info_s"] = info.seconds
        m["symmetry.state_info_ns_per_state"] = 1e9 * info.seconds / info.work
        m["symmetry.states_in"] = info.work
        m["symmetry.valid_ratio"] = index.work / info.work
        m["basis.index_s"] = index.seconds
        m["basis.index_ns_per_query"] = 1e9 * index.seconds / index.work
        m["basis.index_queries"] = index.work
        m["operators.apply_off_diag_s"] = generated.seconds
        m["operators.get_many_rows_s"] = rows.seconds
        m["operators.get_many_rows_self_s"] = rows.self_seconds
        m["operators.scatter_s"] = spans["operators.scatter"].seconds
        m["operators.elements_emitted"] = generated.work
        m["operators.elements_per_s"] = generated.work / rows.seconds
        m["operators.plan_bytes"] = problem.op.plan.nbytes
        m["operators.plan_entries"] = problem.op.plan.n_entries
        m["operators.replay_ns_per_element"] = 1e9 * self.warm_s / index.work
        m["bench.layer_closure_ratio"] = closure = self.kernel_s / self.cold_s
        if not self.workload.distributed and not 0.85 <= closure <= 1.15:
            self.notes["bench.layer_closure_ratio"] = (
                "outside 0.85-1.15: the layer rows do not account for the "
                "cold matvec"
            )

    def microbenchmarks(self) -> None:
        """Kernels timed alone, on this problem's own arrays."""
        m, n = self.metrics, n_sites(self.shape)
        x_serial = self.problem.gather(self.x)
        m["operators.csr_spmv_s"] = _median_seconds(
            lambda: self.matrix @ x_serial, self.repeats(30)
        )
        states = self.serial.basis.states
        network = next(
            (
                p
                for p in self.problem.group.permutations
                if not p.is_identity
                and p.rotation_amount is None
                and p.reversed_rotation_amount is None
            ),
            None,
        )
        # Chain groups have no network permutation; their only compiled
        # applier is the bit reversal behind the reversed-rotation strategy.
        sites = np.arange(n - 1, -1, -1) if network is None else network.sites
        applier = compile_permutation(sites)
        m["bits.permute_ns_per_state"] = (
            1e9
            * _median_seconds(lambda: applier.apply(states), self.repeats(5))
            / states.size
        )
        m["bits.rotate_ns_per_state"] = (
            1e9
            * _median_seconds(lambda: rotate_left(states, 1, n), self.repeats(5))
            / states.size
        )

    def take_solver_apart(self) -> None:
        m = self.metrics
        mark = self.tracer.mark()
        result = traced_solve(self.tracer, self.problem, self.seed)
        spans = self.tracer.totals(mark)
        self.check_energy("traced solve", result.eigenvalues[0], result.converged)
        lanczos = spans["linalg.lanczos"]
        if self.workload.distributed:
            space, matvec = "distributed", "distributed.matvec_warm"
        else:
            space, matvec = "linalg", "operators.matvec_warm"
        self.dot_s = spans[f"{space}.dot"].seconds + spans[f"{space}.norm"].seconds
        self.axpy_s = (
            spans[f"{space}.axpy"].seconds + spans[f"{space}.scale"].seconds
        )
        m["linalg.iterations"] = result.n_iterations
        m["linalg.matvec_share"] = spans[matvec].seconds / lanczos.seconds
        m["linalg.reorth_s"] = self.dot_s + self.axpy_s
        m["linalg.self_s"] = lanczos.self_seconds
        m["bench.trace_overhead_ratio"] = lanczos.seconds / self.solve_s

    def price_telemetry(self) -> None:
        """What the package's own telemetry costs when switched on."""
        with telemetry.use(telemetry.Telemetry.enabled()):
            t0 = perf_counter()
            self.problem.op_cold.matvec(self.x)
            self.problem.solve(self.seed)
            observed = perf_counter() - t0
        self.metrics["telemetry.enabled_overhead_ratio"] = observed / (
            self.cold_s + self.solve_s
        )

    def price_config(self) -> None:
        """``run_simulation`` against the parts it is made of."""
        m = self.metrics
        m["config.load_s"] = _median_seconds(
            lambda: make_spec(self.workload, self.shape), self.repeats(5)
        )
        t0 = perf_counter()
        result = repro.run_simulation(
            make_spec(self.workload, self.shape), seed=self.seed
        )
        total_s = perf_counter() - t0
        self.check_energy(
            "run_simulation", result["eigenvalues"][0], result["converged"]
        )
        m["config.overhead_s"] = (
            total_s - self.setup_s - self.record_s - self.solve_s
        )

    def distributed_rows(self) -> None:
        m, problem, spans = self.metrics, self.problem, self.cold_spans
        # Real threads share the kernel work; the simulator runs it all.
        workers = (
            self.workload.locales if self.workload.backend == "threads" else 1
        )
        hashed = spans["distributed.hash"]
        m["distributed.hash_ns_per_state"] = 1e9 * hashed.seconds / hashed.work
        m["distributed.partition_s"] = spans["distributed.partition"].seconds
        m["distributed.produce_s"] = spans["distributed.produce"].seconds
        m["distributed.consume_s"] = spans["distributed.consume"].seconds
        m["distributed.pipeline_overhead_s"] = self.cold_s - self.kernel_s / workers
        warm_kernel_s = _median_seconds(
            lambda: warm_kernels_distributed(problem, self.x), self.repeats(10)
        )
        m["distributed.pipeline_overhead_warm_s"] = (
            self.warm_s - warm_kernel_s / workers
        )
        report = problem.op_cold.last_report
        m["distributed.messages"] = report.messages
        m["distributed.bytes_sent"] = report.bytes_sent
        m["distributed.imbalance"] = problem.basis.load_imbalance
        m["distributed.dot_s"] = self.dot_s
        m["distributed.axpy_s"] = self.axpy_s
        m.update(runtime_roundtrips(problem.cluster))

    def other_schedules(self) -> None:
        """``batched`` and ``naive`` over the same produce/consume core."""
        m, problem, x = self.metrics, self.problem, self.x
        m["runtime.sim_seconds_cold_matvec"] = problem.op_cold.last_report.elapsed
        for method in ("batched", "naive"):
            planned = repro.DistributedOperator(
                problem.expression, problem.basis, method=method
            )
            plain = repro.DistributedOperator(
                problem.expression, problem.basis, method=method, plan=False
            )
            self.ops.attempted += 1
            self.ops.check(
                problem.identical(planned.matvec(x), self.y_first),
                f"{method} matvec differs from pc",
            )
            m[f"distributed.{method}_cold_s"] = _median_seconds(
                lambda: plain.matvec(x), self.repeats(3)
            )
            m[f"distributed.{method}_warm_s"] = _median_seconds(
                lambda: planned.matvec(x), self.repeats(20)
            )

    def threads_against_one_locale(self) -> None:
        name = "runtime.threads_vs_one_locale"
        if self.workload.locales > nproc():
            self.notes[name] = (
                f"refused: {self.workload.locales} locales on nproc={nproc()}"
            )
            return
        single = DistributedProblem(self.workload, self.shape, locales=1)
        x = single.random_vector(self.seed)
        single.op.matvec(x)
        single_warm_s = _median_seconds(
            lambda: single.op.matvec(x), self.repeats(30)
        )
        self.metrics[name] = single_warm_s / self.warm_s
        self.notes[name] = f"nproc={nproc()}"
