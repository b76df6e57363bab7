"""Execution backends behind one protocol surface.

The distributed matvec pipelines are written as generator *processes*
that yield the command objects of :mod:`repro.runtime.events` —
``Timeout`` / ``WaitFlag`` / ``Pop`` / ``Acquire`` — and otherwise run
ordinary Python between yields.  That command language is the whole
protocol surface the algorithms need (spawn a process, wait on a flag,
hand off a buffer, arrive at a barrier, read a clock), so the same
generator can be *interpreted* by different executors:

:class:`SimExecutor`
    the existing discrete-event :class:`~repro.runtime.events.Simulator`.
    Commands advance a simulated clock; timings are a pure function of
    the machine model and bit-identical to the pre-abstraction code.
    Fault injection is applied in simulated time (per-delivery fates
    drawn from the plan's sequential RNG stream).

:class:`ThreadExecutor`
    a real shared-memory parallel backend: every spawned process runs on
    its own OS thread, flags/queues/resources are condition-variable
    synchronized, and those NumPy kernels between yields that release
    the GIL (element-wise passes, ``searchsorted``; not the fancy-index
    gather or ``np.add.at`` of a warm replay, see ``docs/BACKENDS.md``)
    genuinely overlap.  ``Timeout`` commands do not sleep —
    they *stamp* a wall-clock trace span covering the real work done
    since the process last resumed — and ``call_later`` callbacks run
    inline (remote-atomic latency is zero in shared memory).  A worker
    that raises is converted into a :class:`~repro.errors.BackendError`
    carrying its locale; every other blocked worker is cancelled, so a
    mid-matvec failure propagates instead of hanging.  A watchdog turns
    a genuine protocol deadlock (all live workers blocked, no wakeups)
    into the same typed error.

    Fault injection runs here too (same ``FaultPlan`` contract, wall
    clock instead of simulated time): locale crash schedules kill the
    locale's workers at their next yield once the wall clock passes the
    crash time, straggler factors stretch each worker's real busy spans
    with a matching sleep, and supervised workers (spawned with a
    ``factory=``) are restarted with exponential backoff up to
    ``ResilienceConfig.max_worker_restarts``.  An unrecovered crash
    surfaces as a typed :class:`~repro.errors.FaultError` /
    :class:`~repro.errors.DeadlockError` — never as a silent partial
    result or an indefinite hang.

Backend selection is a :class:`~repro.runtime.cluster.Cluster` /config/
CLI concern: algorithms call :func:`get_executor(cluster, ...)` and never
mention a backend by name.

Shared-state rules for backend-generic protocol code:

- use :meth:`Executor.counter` for cross-process counters (atomic
  ``add``/``get`` on both backends);
- wrap telemetry/ledger mutations in ``with ex.mutex:`` (a no-op context
  on the simulator, an ``RLock`` on threads);
- guard shared NumPy accumulation (``np.add.at``) with a per-target
  ``ex.lock()``;
- never hold ``ex.mutex`` while setting a flag or pushing to a queue.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from collections import deque
from contextlib import nullcontext
from typing import Any, Callable, Generator, Iterator, Sequence

from repro.errors import BackendError, DeadlockError, FaultError
from repro.runtime.events import (
    Acquire,
    Pop,
    Simulator,
    Timeout,
    WaitFlag,
)
from repro.telemetry.context import current as _current_telemetry
from repro.telemetry.profile import (
    NULL_PROFILER,
    ExecutorProfiler,
    ProfiledLock,
)

__all__ = [
    "BACKENDS",
    "Executor",
    "SimExecutor",
    "ThreadExecutor",
    "Barrier",
    "get_executor",
]

#: Names accepted by ``Cluster(backend=...)`` / ``--backend``.
BACKENDS = ("sim", "threads")

_NULL_CONTEXT = nullcontext()


class _SimCounter:
    """A shared counter on the simulator: plain Python is already atomic
    between yields, so this is just an int with the executor-counter API.

    ``ops`` counts ``add`` calls; a profiling executor drains it into the
    ``executor.counter_adds`` metric at :meth:`Executor.finish`.
    """

    __slots__ = ("value", "ops")

    def __init__(self, value: float = 0) -> None:
        self.value = value
        self.ops = 0

    def add(self, amount: float = 1):
        self.value += amount
        self.ops += 1
        return self.value

    def get(self):
        return self.value


class _ThreadCounter:
    """A lock-guarded counter (threads mutate it concurrently)."""

    __slots__ = ("value", "ops", "_lock")

    def __init__(self, value: float = 0) -> None:
        self.value = value
        self.ops = 0
        self._lock = threading.Lock()

    def add(self, amount: float = 1):
        with self._lock:
            self.value += amount
            self.ops += 1
            return self.value

    def get(self):
        with self._lock:
            return self.value


class Barrier:
    """A reusable-once arrival barrier in the shared command language.

    ``yield from barrier.arrive()`` blocks until all ``parties``
    processes have arrived.  Built purely from an executor counter and
    flag, so it behaves identically on every backend.  One instance
    serves one rendezvous; create a fresh barrier per generation.
    """

    __slots__ = ("_count", "_flag", "parties")

    def __init__(self, executor: "Executor", parties: int) -> None:
        if parties < 1:
            raise ValueError(f"barrier needs at least one party, got {parties}")
        self.parties = parties
        self._count = executor.counter(0)
        self._flag = executor.flag(False, name="barrier")

    def arrive(self):
        if self._count.add(1) >= self.parties:
            self._flag.set(True)
        else:
            yield WaitFlag(self._flag, True)


class Executor:
    """The protocol surface shared by all backends (documentation base).

    Concrete backends provide:

    - ``flag(value, name)`` / ``queue(name)`` / ``resource(capacity,
      name)``: synchronization primitives consumed by the yielded
      ``WaitFlag`` / ``Pop`` / ``Acquire`` commands;
    - ``counter(value)``: an atomic shared counter (``add`` returns the
      new value);
    - ``barrier(parties)``: an arrival barrier (see :class:`Barrier`);
    - ``spawn(gen, name, track, locale)``: register a generator process;
    - ``call_later(delay, fn)``: fire-and-forget callback (delayed on
      the simulator, inline on threads);
    - ``run(until)``: drive everything to completion, returning elapsed
      time in this backend's clock;
    - ``now``: the current clock reading (simulated or wall seconds);
    - ``mutex``: a context manager guarding telemetry/ledger mutations
      (no-op on the simulator);
    - ``lock()``: a fresh context manager for guarding one shared NumPy
      target (no-op on the simulator);
    - ``map(thunks, locales)``: run plain callables (no yields) to
      completion, in order on the simulator and concurrently on threads.

    Class attributes ``name`` ("sim"/"threads") and ``wall_clock``
    (whether timings are wall seconds) let callers label reports without
    isinstance checks.

    Every executor carries an
    :class:`~repro.telemetry.profile.ExecutorProfiler` (``self.profile``,
    built from the ambient telemetry bundle unless one is passed in) and
    both backends feed it the *same* span and metric vocabulary — the
    simulator with modelled durations, the threads backend with measured
    ones.  Callers that do not drive everything through ``run()`` (the
    ``map``-based analytic variants) should call :meth:`finish` once at
    the end to merge the buffered telemetry.
    """

    name: str = "abstract"
    wall_clock: bool = False
    profile: ExecutorProfiler = NULL_PROFILER

    def barrier(self, parties: int) -> Barrier:
        return Barrier(self, parties)

    def finish(self) -> None:
        """Merge buffered profiling data into the trace/metrics sinks.

        Idempotent; a no-op when profiling is disabled.  ``run()`` calls
        it on both backends — on the threads backend even when the run
        failed, so partial traces stay inspectable.
        """
        if self.profile.enabled:
            self.profile.flush()


class SimExecutor(Executor):
    """The discrete-event backend: a thin shell over :class:`Simulator`.

    Every method delegates 1:1, so protocol code running through this
    executor produces the *same event sequence* — and therefore
    bit-identical simulated timings — as code written directly against
    the simulator.
    """

    name = "sim"
    wall_clock = False

    def __init__(self, trace=None, faults=None, profile=None) -> None:
        if profile is None:
            profile = ExecutorProfiler(
                trace=None, metrics=_current_telemetry().metrics
            )
        self.profile = profile
        # The simulator writes trace spans directly (single thread,
        # monotone simulated time); the profiler only carries the metric
        # side here, so traces of untouched sim runs are byte-identical.
        self.sim = Simulator(
            trace=trace,
            faults=faults,
            profile=profile if profile.metering else None,
        )
        self.mutex = _NULL_CONTEXT

    # -- primitives ---------------------------------------------------------

    def flag(self, value: bool = False, name: str | None = None):
        return self.sim.flag(value, name)

    def queue(self, name: str | None = None):
        return self.sim.queue(name)

    def resource(self, capacity: int = 1, name: str | None = None):
        return self.sim.resource(capacity, name)

    def counter(self, value: float = 0) -> _SimCounter:
        counter = _SimCounter(value)
        if self.profile.metering:
            self.profile.register_counter(counter)
        return counter

    def lock(self, name: str | None = None):
        # Locks cannot contend on the single-threaded simulator; the
        # executor.lock_* metric families are threads-only by design.
        return _NULL_CONTEXT

    # -- processes ----------------------------------------------------------

    def spawn(
        self,
        gen: Generator | Iterator,
        name: str = "task",
        track: tuple[str, str] | None = None,
        locale: int | None = None,
        factory: Callable[[], Generator | Iterator] | None = None,
    ):
        # ``factory`` (the threads-backend restart hook) is ignored: the
        # simulator models crashes in simulated time and the protocols
        # recover at the operator level instead of restarting processes.
        return self.sim.spawn(gen, name=name, track=track, locale=locale)

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        self.sim.call_later(delay, fn)

    def call_after(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` after a *genuine* delay (simulated here, wall on
        threads).  Used by the fault layer for injected message delays,
        which must actually postpone a delivery on every backend."""
        self.sim.call_later(delay, fn)

    def run(self, until: float | None = None) -> float:
        try:
            return self.sim.run(until)
        finally:
            # Merge profiling data even when the simulation deadlocked —
            # the partial figures are the post-mortem evidence.
            self.finish()

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def crashed_locales(self) -> set[int]:
        return self.sim.crashed_locales

    def map(
        self,
        thunks: Sequence[Callable[[], Any]],
        locales: Sequence[int] | None = None,
    ) -> list:
        # Sequential, in submission order: exactly what the inline loops
        # of the analytic variants did before the abstraction.
        return [fn() for fn in thunks]


class _Cancelled(BaseException):
    """Internal unwind signal: another worker failed, stop quietly."""


class _CrashInjected(BaseException):
    """Internal signal: an injected locale crash killed this worker."""


class _ThreadFlag:
    """An atomic bool whose waiters park on the executor's condition."""

    __slots__ = ("_ex", "value", "name")

    def __init__(
        self, ex: "ThreadExecutor", value: bool = False, name: str | None = None
    ) -> None:
        self._ex = ex
        self.value = value
        self.name = name

    def set(self, value: bool) -> None:
        with self._ex._cv:
            self.value = value
            self._ex._wake()


class _ThreadQueue:
    """An unbounded FIFO with blocking pop on the executor's condition.

    A named queue on a profiling executor records depth on every push/pop
    transition — a gauge pair for the contention metrics and, when
    tracing, counter samples on the same ``("queues", name)`` track the
    simulator uses.  All pushes/pops run under the executor's condition
    variable, which serializes the profiler updates.
    """

    __slots__ = ("_ex", "_items", "name")

    def __init__(self, ex: "ThreadExecutor", name: str | None = None) -> None:
        self._ex = ex
        self._items: deque = deque()
        self.name = name

    def __len__(self) -> int:
        return len(self._items)

    def _sample_depth(self) -> None:
        # Callers hold self._ex._cv.
        if self.name is None:
            return
        ex = self._ex
        depth = len(self._items)
        if ex._metering:
            ex.profile.queue_depth(self.name, depth)
        if ex._tracing:
            ex.profile.sample(
                ("queues", self.name), self.name, ex.now, depth
            )

    def push(self, item: Any) -> None:
        with self._ex._cv:
            self._items.append(item)
            if self._ex.profile.enabled:
                self._sample_depth()
            self._ex._wake()


class _ThreadResource:
    """A counted resource; acquisition parks on the executor's condition.

    On a profiling executor, grant times queue up in ``_grants`` (FIFO —
    exact for the capacity-1 NIC resources, an approximation for wider
    capacities) and every release observes an
    ``executor.resource_hold_seconds`` figure; named resources also emit
    in-use counter samples on the ``("resources", name)`` trace track.
    Grant and release both run under the executor's condition variable.
    """

    __slots__ = ("_ex", "capacity", "in_use", "name", "_grants")

    def __init__(
        self, ex: "ThreadExecutor", capacity: int = 1, name: str | None = None
    ) -> None:
        self._ex = ex
        self.capacity = capacity
        self.in_use = 0
        self.name = name
        self._grants: deque = deque()

    def _sample_in_use(self) -> None:
        # Callers hold self._ex._cv.
        if self.name is not None and self._ex._tracing:
            self._ex.profile.sample(
                ("resources", self.name), self.name, self._ex.now, self.in_use
            )

    def _granted(self) -> None:
        # Callers hold self._ex._cv; the acquiring worker just got a unit.
        if self._ex._metering:
            self._grants.append(time.perf_counter())
        self._sample_in_use()

    def release(self) -> None:
        ex = self._ex
        with ex._cv:
            self.in_use -= 1
            if ex._metering and self._grants:
                ex.profile.hold(
                    "resource",
                    self.name or "resource",
                    time.perf_counter() - self._grants.popleft(),
                )
            self._sample_in_use()
            ex._wake()


class _ThreadProcess:
    """Bookkeeping for one generator driven on its own thread."""

    __slots__ = (
        "gen", "name", "track", "locale", "thread", "waiting_on", "buffer",
        "factory", "restarts", "crash_handled",
    )

    def __init__(self, gen, name, track, locale, factory=None) -> None:
        self.gen = gen
        self.name = name
        self.track = track if track is not None else ("threads", name)
        self.locale = locale
        self.thread: threading.Thread | None = None
        #: description of the blocking wait, or None while running
        self.waiting_on: str | None = None
        #: per-process span buffer when tracing, else None
        self.buffer = None
        #: zero-arg callable producing a fresh generator — marks this
        #: worker as supervised/restartable after an injected crash
        self.factory = factory
        #: restarts consumed so far (bounded by max_worker_restarts)
        self.restarts = 0
        #: True once this process was killed by its locale's crash fate
        #: (one-shot: a restarted incarnation does not re-crash)
        self.crash_handled = False


class ThreadExecutor(Executor):
    """The real shared-memory parallel backend.

    One OS thread per spawned process interprets the yielded commands:
    ``WaitFlag`` / ``Pop`` / ``Acquire`` become condition-variable waits,
    ``Timeout`` becomes a wall-clock trace span covering the real work
    executed since the last resume (protocol code does its real work
    *before* yielding the Timeout that models it), and ``call_later``
    runs its callback inline.  ``run()`` joins all workers and returns
    the wall-clock elapsed seconds.

    ``contextvars`` (the ambient job scope) are copied into every worker
    thread, so job-scoped metric fan-out attributes identically to the
    simulator backend.

    With profiling enabled (an enabled trace and/or metrics registry),
    every primitive is observed: blocking waits become per-thread
    ``stall`` / ``idle`` / ``wait:*`` spans *and* wait-duration
    histograms, resources and locks additionally record hold durations,
    named queues record depth, and each worker's lifetime busy/blocked
    seconds land in the ``executor.worker_*_seconds`` counters.  Workers
    write spans into bounded per-thread buffers
    (:class:`~repro.telemetry.profile.SpanBuffer`) — no shared-lock
    traffic on the hot path — merged into the recorder by ``run()``
    after the threads join, on success *and* on failure.
    """

    name = "threads"
    wall_clock = True

    #: seconds of "all live workers blocked, zero wakeups" before the
    #: watchdog declares a deadlock (overridden per-instance by
    #: ``ResilienceConfig.watchdog_timeout`` when resilience is attached)
    watchdog_seconds = 20.0

    #: watchdog window used once an injected crash has fired: a stall
    #: caused by a killed worker should escalate to a typed FaultError
    #: quickly, not after the full deadlock window
    crash_watchdog_seconds = 1.0

    def __init__(
        self,
        trace=None,
        n_workers: int | None = None,
        profile=None,
        faults=None,
        resilience=None,
    ) -> None:
        self._cv = threading.Condition()
        if profile is None:
            profile = ExecutorProfiler(
                trace=trace, metrics=_current_telemetry().metrics, wall=True
            )
        self.profile = profile
        self._tracing = profile.tracing
        self._metering = profile.metering
        self.mutex = (
            ProfiledLock(threading.RLock(), profile, "mutex")
            if self._metering
            else threading.RLock()
        )
        self.n_workers = (
            n_workers if n_workers is not None else (os.cpu_count() or 1)
        )
        self._processes: list[_ThreadProcess] = []
        self._failure: BackendError | FaultError | None = None
        self._wake_seq = 0  # bumped on every notify (watchdog heartbeat)
        self._waiting = 0  # threads currently parked in a blocking wait
        self._t0: float | None = None
        self._faults = faults
        self._crashes: dict[int, float] = (
            faults.take_crashes() if faults is not None else {}
        )
        self._crashed: set[int] = set()
        self._crash_deaths: list[str] = []  # killed and not restarted
        if resilience is not None:
            self.watchdog_seconds = float(resilience.watchdog_timeout)
            self._max_worker_restarts = int(resilience.max_worker_restarts)
        else:
            self._max_worker_restarts = 2
        self._timers: list[threading.Timer] = []

    # -- primitives ---------------------------------------------------------

    def flag(self, value: bool = False, name: str | None = None) -> _ThreadFlag:
        return _ThreadFlag(self, value, name)

    def queue(self, name: str | None = None) -> _ThreadQueue:
        return _ThreadQueue(self, name)

    def resource(
        self, capacity: int = 1, name: str | None = None
    ) -> _ThreadResource:
        return _ThreadResource(self, capacity, name)

    def counter(self, value: float = 0) -> _ThreadCounter:
        counter = _ThreadCounter(value)
        if self._metering:
            self.profile.register_counter(counter)
        return counter

    def lock(self, name: str | None = None):
        if self._metering:
            return ProfiledLock(
                threading.Lock(), self.profile, name or "lock"
            )
        return threading.Lock()

    @property
    def now(self) -> float:
        if self._t0 is None:
            return 0.0
        return time.perf_counter() - self._t0

    @property
    def crashed_locales(self) -> set[int]:
        with self._cv:
            return set(self._crashed)

    # -- fault injection ----------------------------------------------------

    def _check_crash(self, proc: _ThreadProcess) -> None:
        """Kill ``proc`` (raise :class:`_CrashInjected`) when its locale's
        crash time has passed.  Mirrors the simulator: a process dies the
        next time it would run at or after the crash time; each process
        dies at most once per crash event (a restarted incarnation runs
        on the rebooted locale)."""
        if proc.crash_handled or proc.locale is None or not self._crashes:
            return
        deadline = self._crashes.get(proc.locale)
        if deadline is None or self.now < deadline:
            return
        proc.crash_handled = True
        record = False
        with self._cv:
            if proc.locale not in self._crashed:
                self._crashed.add(proc.locale)
                record = True
        if record and self._faults is not None:
            self._faults.record_crash(proc.locale)
        raise _CrashInjected

    # -- condition-variable plumbing ----------------------------------------

    def _wake(self) -> None:
        # Callers hold self._cv.
        self._wake_seq += 1
        self._cv.notify_all()

    def _fail(self, exc: BaseException, proc: _ThreadProcess | None) -> None:
        if isinstance(exc, (BackendError, FaultError)):
            # Typed errors pass through unchanged: FaultError in
            # particular must stay catchable by the operator-level
            # recovery loop (restart / pc->batched fallback).
            err = exc
        else:
            where = (
                f"worker {proc.name!r}"
                + (f" (locale {proc.locale})" if proc.locale is not None else "")
                if proc is not None
                else "worker"
            )
            err = BackendError(
                f"{where} failed mid-run: {type(exc).__name__}: {exc}",
                locale=proc.locale if proc is not None else None,
            )
            err.__cause__ = exc
        with self._cv:
            if self._failure is None:
                self._failure = err
            self._wake()

    def _wait(self, proc: _ThreadProcess, ready, detail: str, deadline=None):
        """Park on the condition until ``ready()`` is truthy.

        Returns True when ready, False when ``deadline`` (a perf_counter
        time) passed first.  Raises :class:`_Cancelled` when another
        worker failed.  Callers hold ``self._cv``.
        """
        proc.waiting_on = detail
        try:
            while True:
                if self._failure is not None:
                    raise _Cancelled
                if ready():
                    return True
                timeout = None
                if deadline is not None:
                    timeout = deadline - time.perf_counter()
                    if timeout <= 0:
                        return False
                self._waiting += 1
                try:
                    self._cv.wait(timeout)
                finally:
                    self._waiting -= 1
        finally:
            proc.waiting_on = None

    # -- processes ----------------------------------------------------------

    def spawn(
        self,
        gen: Generator | Iterator,
        name: str = "task",
        track: tuple[str, str] | None = None,
        locale: int | None = None,
        factory: Callable[[], Generator | Iterator] | None = None,
    ) -> _ThreadProcess:
        proc = _ThreadProcess(gen, name, track, locale, factory=factory)
        if self._tracing:
            proc.buffer = self.profile.buffer(proc.track)
        self._processes.append(proc)
        if self._t0 is None:
            self._t0 = time.perf_counter()
        ctx = contextvars.copy_context()
        thread = threading.Thread(
            target=ctx.run,
            args=(self._drive, proc),
            name=f"repro-{name}",
            daemon=True,
        )
        proc.thread = thread
        thread.start()
        return proc

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        # Remote-atomic latency collapses to zero in shared memory: the
        # callback's effect (a flag write, a queue push) is immediately
        # visible, exactly like a same-node atomic.
        fn()

    def call_after(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` after a *genuine* wall-clock delay.

        Unlike :meth:`call_later` (modelled latency, collapses to zero in
        shared memory), this really postpones the callback — it is how
        injected message-delay fates take effect on the real backend.  A
        timer still pending when ``run()`` finishes is cancelled.
        """
        if delay <= 0.0:
            fn()
            return
        ctx = contextvars.copy_context()
        timer = threading.Timer(delay, ctx.run, args=(fn,))
        timer.daemon = True
        with self._cv:
            self._timers.append(timer)
        timer.start()

    def _drive(self, proc: _ThreadProcess) -> None:
        """Thread main: interpret the generator, supervise restarts.

        An injected locale crash raises :class:`_CrashInjected` out of
        :meth:`_interpret`; a supervised worker (spawned with
        ``factory=``) is then restarted with exponential backoff up to
        the ``max_worker_restarts`` budget, and an exhausted budget
        escalates as a typed :class:`~repro.errors.FaultError`.  An
        unsupervised worker simply dies — the crash watchdog in
        :meth:`run` turns the resulting stall (or the incomplete result)
        into a typed error.
        """
        while True:
            try:
                self._interpret(proc)
                return
            except _Cancelled:
                return
            except _CrashInjected:
                if (
                    proc.factory is None
                    or proc.restarts >= self._max_worker_restarts
                ):
                    with self._cv:
                        self._crash_deaths.append(proc.name)
                        self._wake()
                    if proc.factory is not None:
                        self._fail(
                            FaultError(
                                f"supervised worker {proc.name!r} (locale "
                                f"{proc.locale}) crashed and its restart "
                                f"budget ({self._max_worker_restarts}) is "
                                "exhausted"
                            ),
                            proc,
                        )
                    return
                proc.restarts += 1
                metrics = _current_telemetry().metrics
                if metrics.enabled:
                    with self.mutex:
                        metrics.counter(
                            "recovery.worker_restarts", locale=proc.locale
                        ).inc()
                time.sleep(min(0.01 * (2 ** (proc.restarts - 1)), 1.0))
                proc.gen = proc.factory()
            except BaseException as exc:  # noqa: BLE001 -> BackendError
                self._fail(exc, proc)
                return

    def _interpret(self, proc: _ThreadProcess) -> None:
        gen = proc.gen
        value: Any = None
        prof = self.profile
        metering = self._metering
        buf = proc.buffer
        t0 = self._t0
        busy = 0.0
        blocked = 0.0
        slow = (
            self._faults.slowdown(proc.locale)
            if self._faults is not None
            else 1.0
        )
        last_resume = time.perf_counter()
        try:
            while True:
                self._check_crash(proc)
                command = gen.send(value)
                value = None
                blocked_at = time.perf_counter()
                busy += blocked_at - last_resume
                if isinstance(command, Timeout):
                    # Charge-after-work: the span covers the real work
                    # done since the last yield; nothing sleeps.
                    if buf is not None and command.label is not None:
                        buf.span(
                            command.label,
                            last_resume - t0,
                            blocked_at - last_resume,
                            command.args,
                        )
                    if slow > 1.0:
                        # Injected straggler: stretch the real busy span
                        # by the plan's factor (the wall-clock analogue
                        # of the simulator stretching the Timeout).
                        extra = (blocked_at - last_resume) * (slow - 1.0)
                        if extra > 0.0:
                            time.sleep(min(extra, 1.0))
                            busy += extra
                elif isinstance(command, WaitFlag):
                    flag = command.flag
                    deadline = (
                        None
                        if command.timeout is None
                        else blocked_at + command.timeout
                    )
                    with self._cv:
                        ok = self._wait(
                            proc,
                            lambda: flag.value == command.value,
                            f"flag {flag.name}={command.value}"
                            if flag.name
                            else f"flag={command.value}",
                            deadline,
                        )
                    value = ok
                    waited = time.perf_counter() - blocked_at
                    blocked += waited
                    if buf is not None and waited > 0.0:
                        buf.span("stall", blocked_at - t0, waited)
                    if metering:
                        prof.wait("flag", flag.name or "flag", waited)
                elif isinstance(command, Pop):
                    queue = command.queue
                    with self._cv:
                        self._wait(
                            proc,
                            lambda: len(queue._items) > 0,
                            f"queue {queue.name or '<anonymous>'}",
                        )
                        value = queue._items.popleft()
                        if prof.enabled:
                            queue._sample_depth()
                    waited = time.perf_counter() - blocked_at
                    blocked += waited
                    if buf is not None and waited > 0.0:
                        buf.span("idle", blocked_at - t0, waited)
                    if metering:
                        prof.wait("queue", queue.name or "queue", waited)
                elif isinstance(command, Acquire):
                    resource = command.resource
                    with self._cv:
                        self._wait(
                            proc,
                            lambda: resource.in_use < resource.capacity,
                            f"resource {resource.name or '<anonymous>'}",
                        )
                        resource.in_use += 1
                        if prof.enabled:
                            resource._granted()
                    waited = time.perf_counter() - blocked_at
                    blocked += waited
                    if buf is not None and waited > 0.0:
                        buf.span(
                            "wait:" + resource.name
                            if resource.name is not None
                            else "wait:resource",
                            blocked_at - t0,
                            waited,
                        )
                    if metering:
                        prof.wait(
                            "resource", resource.name or "resource", waited
                        )
                else:
                    raise TypeError(
                        f"process {proc.name!r} yielded {command!r}; "
                        "expected Timeout, WaitFlag, Pop, or Acquire"
                    )
                last_resume = time.perf_counter()
        except StopIteration:
            pass
        finally:
            # Per-incarnation accounting: counters add up across
            # supervised restarts of the same worker.
            if metering:
                prof.worker(proc.name, proc.locale, busy, blocked)

    def run(self, until: float | None = None) -> float:
        """Join all workers; returns wall-clock seconds since first spawn.

        Raises :class:`~repro.errors.BackendError` when any worker
        failed, or when the watchdog finds every live worker blocked
        with no wakeups for :attr:`watchdog_seconds`.  Once an injected
        crash has killed a worker, the watchdog window shrinks to
        :attr:`crash_watchdog_seconds` and the stall escalates as a
        typed :class:`~repro.errors.DeadlockError` (a ``FaultError``) —
        the hook the operator-level recovery (restart / pc->batched
        fallback) heals.  A crash that leaves the run incomplete without
        a stall (the dead worker's output simply missing) raises the
        same typed error instead of returning silently wrong data.
        """
        if self._t0 is None:
            return 0.0
        stuck_since: float | None = None
        stuck_seq = -1
        while True:
            alive = [p for p in self._processes if p.thread.is_alive()]
            if not alive:
                break
            alive[0].thread.join(timeout=0.05)
            if self._failure is not None:
                stuck_since = None
                continue
            with self._cv:
                seq = self._wake_seq
                blocked_count = sum(
                    1 for p in alive if p.waiting_on is not None
                )
                all_blocked = (
                    blocked_count == len(alive)
                    and self._waiting >= len(alive)
                )
                crashed = sorted(self._crashed)
                casualties = bool(self._crash_deaths)
            if not all_blocked or seq != stuck_seq:
                stuck_since, stuck_seq = None, seq
                continue
            window = (
                self.crash_watchdog_seconds
                if casualties
                else self.watchdog_seconds
            )
            if stuck_since is None:
                stuck_since = time.perf_counter()
            elif time.perf_counter() - stuck_since > window:
                blocked = [
                    f"{p.name} waiting on {p.waiting_on or '<unknown>'}"
                    for p in alive
                ]
                if casualties:
                    self._fail(
                        DeadlockError(
                            "parallel backend stalled after injected "
                            f"crash: {len(alive)} worker(s) blocked with "
                            f"no wakeups for {window:.1f}s "
                            f"(crashed locales: {crashed}): "
                            + "; ".join(blocked[:8]),
                            blocked=[
                                (p.name, p.waiting_on or "<unknown>")
                                for p in alive
                            ],
                            crashed_locales=crashed,
                        ),
                        None,
                    )
                else:
                    self._fail(
                        BackendError(
                            "parallel backend deadlock: "
                            f"{len(alive)} worker(s) blocked with no "
                            f"wakeups for {window:.0f}s: "
                            + "; ".join(blocked[:8])
                        ),
                        None,
                    )
        with self._cv:
            timers, self._timers = self._timers, []
        for timer in timers:
            timer.cancel()
        elapsed = time.perf_counter() - self._t0
        # All workers have joined: merge the per-thread span buffers and
        # contention metrics *before* propagating any failure, so the
        # partial trace of a failed or deadlocked run stays inspectable.
        self.finish()
        if self._failure is not None:
            raise self._failure
        if self._crash_deaths:
            # Every worker retired, but some died to an injected crash
            # without a restart: their share of the work is missing.
            # Fail loudly — never return a silently incomplete result.
            raise DeadlockError(
                f"worker(s) {sorted(set(self._crash_deaths))} killed by "
                f"injected crash (locales {sorted(self._crashed)}) and "
                "not restarted; the run's output is incomplete",
                crashed_locales=sorted(self._crashed),
            )
        return elapsed

    def map(
        self,
        thunks: Sequence[Callable[[], Any]],
        locales: Sequence[int] | None = None,
    ) -> list:
        """Run plain callables concurrently; results in submission order.

        The first exception cancels the not-yet-started rest and is
        raised as a :class:`~repro.errors.BackendError` naming the
        failing task's locale (when ``locales`` is given).
        """
        from concurrent.futures import ThreadPoolExecutor

        if not thunks:
            return []
        results: list = [None] * len(thunks)
        ctx = contextvars.copy_context()
        with ThreadPoolExecutor(
            max_workers=min(self.n_workers, len(thunks)),
            thread_name_prefix="repro-map",
        ) as pool:
            futures = [
                pool.submit(ctx.copy().run, fn) for fn in thunks
            ]
            error: BackendError | None = None
            for i, future in enumerate(futures):
                try:
                    results[i] = future.result()
                except BaseException as exc:  # noqa: BLE001
                    if error is None:
                        locale = (
                            locales[i]
                            if locales is not None and i < len(locales)
                            else None
                        )
                        where = (
                            f"task {i} (locale {locale})"
                            if locale is not None
                            else f"task {i}"
                        )
                        error = BackendError(
                            f"{where} failed mid-matvec: "
                            f"{type(exc).__name__}: {exc}",
                            locale=locale,
                        )
                        error.__cause__ = exc
                        for pending in futures[i + 1 :]:
                            pending.cancel()
            if error is not None:
                raise error
        return results


def get_executor(cluster, trace=None, faults=None, resilience=None) -> Executor:
    """The executor for ``cluster``'s configured backend.

    ``trace`` is an optional :class:`~repro.telemetry.trace.TraceRecorder`;
    ``faults`` (a :class:`~repro.resilience.faults.FaultPlan`) is
    supported by both backends — the simulator injects fates in
    simulated time, the threads backend at its primitives in wall-clock
    time (crash kills, straggler sleeps, real delivery delays; see
    ``docs/RESILIENCE.md``).  ``resilience`` (a
    :class:`~repro.resilience.faults.ResilienceConfig`) configures the
    threads backend's supervision knobs — watchdog timeout and worker
    restart budget; when omitted, ``cluster.resilience`` applies.
    """
    backend = getattr(cluster, "backend", "sim")
    if resilience is None:
        resilience = getattr(cluster, "resilience", None)
    if backend == "sim":
        return SimExecutor(trace=trace, faults=faults)
    if backend == "threads":
        return ThreadExecutor(trace=trace, faults=faults, resilience=resilience)
    raise BackendError(
        f"unknown execution backend {backend!r}; choose from {BACKENDS}"
    )
