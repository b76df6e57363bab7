"""The backend table, the threads backend, and how a cluster's is chosen.

The distributed algorithms are generator *processes* yielding the
commands of :mod:`repro.runtime.events`.  That module holds the one
implementation of the primitives, the documented :class:`Executor`
surface, the interpreter core and the ``sim`` backend
(:class:`~repro.runtime.events.Simulator`: modelled, bit-reproducible
seconds).  This one holds the ``threads`` backend
(:class:`ThreadExecutor`: one OS thread per process, measured wall
seconds), the table of backends and :func:`get_executor`.  Each backend
is one class.  Backend selection is a
:class:`~repro.runtime.cluster.Cluster` / config / CLI concern:
algorithms call ``get_executor(cluster, ...)`` and never mention a
backend by name; the shared-state rules they follow are part of the
:class:`Executor` docstring.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Generator, Iterator

from repro.errors import BackendError
from repro.runtime.events import (
    Executor,
    Process,
    SimFlag,
    SimQueue,
    SimResource,
    Simulator,
    Timeout,
    _Counter,
)

__all__ = [
    "BACKENDS",
    "Executor",
    "ThreadExecutor",
    "executor_class",
    "get_executor",
]


class _LockedCounter(_Counter):
    """The same counter under a lock (threads mutate it concurrently)."""

    __slots__ = ("_lock",)

    def __init__(self, value: float = 0) -> None:
        super().__init__(value)
        self._lock = threading.Lock()

    def add(self, amount: float = 1):
        with self._lock:
            return super().add(amount)

    def get(self):
        with self._lock:
            return self.value


class _Cancelled(BaseException):
    """Internal unwind signal: the run failed, stop quietly."""


#: What a parked worker is resumed with when another worker failed.
_CANCEL = object()


# The primitives' waiter lists are plain Python state, so everything that
# touches them runs under the executor's one lock: the interpreter takes
# it around dispatch, these subclasses around the three methods protocol
# code may call from any thread.


class _LockedFlag(SimFlag):
    __slots__ = ()

    def set(self, value: bool) -> None:
        with self._ex._lock:
            super().set(value)


class _LockedQueue(SimQueue):
    __slots__ = ()

    def push(self, item: Any) -> None:
        with self._ex._lock:
            super().push(item)


class _LockedResource(SimResource):
    __slots__ = ()

    def release(self) -> None:
        with self._ex._lock:
            super().release()


class ThreadExecutor(Executor):
    """The real shared-memory parallel backend: one OS thread per process.

    A blocking command is dispatched to its primitive under the
    executor's lock; the worker then sleeps on its *own* park lock until
    whoever writes the flag, pushes the item or releases the unit resumes
    exactly the process it serves (:meth:`_resume`).  Those NumPy
    kernels between yields that release the GIL (element-wise passes,
    ``searchsorted``; not the fancy-index gather or ``np.add.at`` of a
    warm replay, see ``docs/BACKENDS.md``) genuinely overlap.
    ``Timeout`` does not sleep: it *stamps* a wall-clock span over the
    real work done since the last resume (protocol code works first,
    then yields the Timeout that models it), and ``call_later`` runs its
    callback inline (remote-atomic latency is zero in shared memory).
    Workers read the one process-wide ambient telemetry bundle, so their
    metrics land in the registry the spawning thread installed.

    Failure: a worker that raises becomes a
    :class:`~repro.errors.BackendError` carrying its locale and every
    parked worker is resumed with a cancel value; a watchdog turns "all
    live workers parked, nobody resumed" into the same typed error after
    :attr:`watchdog_seconds` (the cluster's ``watchdog_timeout``, which
    :func:`get_executor` hands over).

    With tracing on, *every* blocking command becomes a wait span — one
    granted at once too, which measures the dispatch (the simulator traces
    only real blocks: an immediate grant takes no simulated time).  Each
    worker appends its spans to its own ``Process.buffer`` (one writer, no
    shared lock on the hot path); ``run()`` merges them into the trace,
    track by track, after the threads join, on success *and* on failure.
    """

    name = "threads"
    wall_clock = True
    _Flag, _Queue, _Resource = _LockedFlag, _LockedQueue, _LockedResource

    #: seconds of "all live workers parked, nobody resumed" before the
    #: watchdog declares a deadlock
    watchdog_seconds = 20.0

    def __init__(self, trace=None) -> None:
        self._trace = trace if trace is not None and trace.enabled else None
        super().__init__(self._trace is not None)
        #: queue-depth / in-use samples ``(track, name, when, value)``,
        #: appended under ``_lock`` and merged by ``run()``
        self._samples: list[tuple] = []
        self._sample = (
            (lambda *sample: self._samples.append(sample))
            if self._tracing else None
        )
        #: guards every primitive's state, ``parked`` / ``value`` of every
        #: process, ``_failure``, ``_resumes`` and ``_samples``
        self._lock = threading.Lock()
        self.mutex = threading.RLock()
        self._failure: BackendError | None = None
        self._resumes = 0  # parked workers resumed (watchdog heartbeat)
        self._t0: float | None = None

    # -- the protocol surface -----------------------------------------------

    def counter(self, value: float = 0) -> _LockedCounter:
        return _LockedCounter(value)

    def lock(self, name: str | None = None):
        return threading.Lock()

    @property
    def now(self) -> float:
        if self._t0 is None:
            return 0.0
        return time.perf_counter() - self._t0

    def spawn(
        self,
        gen: Generator | Iterator,
        name: str = "task",
        track: tuple[str, str] | None = None,
        locale: int | None = None,
    ) -> Process:
        process = Process(
            gen, name, track if track is not None else ("threads", name), locale
        )
        process.park = threading.Lock()
        process.park.acquire()
        process.parked = False
        process.value = None
        process.buffer = [] if self._tracing else None
        self._processes.append(process)
        if self._t0 is None:
            self._t0 = time.perf_counter()
        process.thread = threading.Thread(
            target=self._drive,
            args=(process,),
            name=f"repro-{name}",
            daemon=True,
        )
        process.thread.start()
        return process

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        # Remote-atomic latency collapses to zero in shared memory: the
        # callback's effect (a flag write, a queue push) is immediately
        # visible, exactly like a same-node atomic.
        fn()

    # -- what the interpreter core asks of a backend ------------------------

    def _resume(self, process: Process, value: Any) -> None:
        # Callers hold self._lock.  A process that is not parked any more
        # (a failure cancelled it) can still sit in a waiter list: that
        # wake-up is stale and dropped.
        if process.parked:
            process.parked = False
            process.value = value
            self._resumes += 1
            process.park.release()

    def _span(
        self, process: Process, name: str, start: float, duration: float
    ) -> None:
        process.buffer.append((name, start, duration, None))

    def _park(self, process: Process, command: Any, blocked_at: float) -> Any:
        """Execute one blocking command on the calling worker's thread:
        dispatch it, sleep until resumed, trace the wait, and return the
        value to send into the generator."""
        with self._lock:
            if self._failure is not None:
                raise _Cancelled
            process.parked = True
            self._dispatch(process, command)
        process.park.acquire()
        process.waiting_on = None
        if self._tracing:
            if process.block is None:
                process.block = command.wait_label
                process.block_start = blocked_at
            self._observe_wait(process, self.now)
        if process.value is _CANCEL:
            raise _Cancelled
        return process.value

    # -- failures -------------------------------------------------------------

    def _fail(self, err: BackendError) -> None:
        """Record the run's (first) failure and cancel every parked worker."""
        with self._lock:
            if self._failure is None:
                self._failure = err
            for parked in self._processes:
                self._resume(parked, _CANCEL)

    def _drive(self, process: Process) -> None:
        """Thread main: interpret the generator; whatever it raises fails
        the run."""
        try:
            self._interpret(process)
        except _Cancelled:
            pass
        except BaseException as exc:  # noqa: BLE001 -> BackendError
            self._fail(
                self._worker_error(
                    exc, f"worker {process.name!r}", process.locale
                )
            )

    def _interpret(self, process: Process) -> None:
        gen = process.gen
        value: Any = None
        buf = process.buffer
        t0 = self._t0
        last_resume = time.perf_counter()
        try:
            while True:
                command = gen.send(value)
                blocked_at = time.perf_counter()
                if isinstance(command, Timeout):
                    value = None
                    # Charge-after-work: the span covers the real work
                    # done since the last yield; nothing sleeps.
                    if buf is not None and command.label is not None:
                        buf.append((
                            command.label,
                            last_resume - t0,
                            blocked_at - last_resume,
                            command.args,
                        ))
                else:
                    value = self._park(process, command, blocked_at - t0)
                last_resume = time.perf_counter()
        except StopIteration:
            pass

    def run(self) -> float:
        """Join all workers; returns wall-clock seconds since first spawn.

        Raises the first worker's failure, or a
        :class:`~repro.errors.BackendError` when the watchdog finds every
        live worker parked and nobody resumed for
        :attr:`watchdog_seconds`.
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
                continue
            with self._lock:
                seq = self._resumes
                all_parked = all(p.parked for p in alive)
            if not all_parked or seq != stuck_seq:
                stuck_since, stuck_seq = None, seq
                continue
            if stuck_since is None:
                stuck_since = time.perf_counter()
            elif time.perf_counter() - stuck_since > self.watchdog_seconds:
                _, text = self._blocked_report(alive)
                self._fail(
                    BackendError(
                        "parallel backend deadlock, nobody resumed "
                        f"for {self.watchdog_seconds:.0f}s: {text}"
                    )
                )
        elapsed = time.perf_counter() - self._t0
        # All workers have joined: merge their spans *before* propagating
        # any failure, so the partial trace of a failed or deadlocked run
        # stays inspectable.
        if self._trace is not None:
            self._merge_trace()
        if self._failure is not None:
            raise self._failure
        return elapsed

    def _merge_trace(self) -> None:
        """Write every process's spans, in the order it recorded them (so
        each track stays monotone), then the counter samples, to the
        trace, labelled wall clock."""
        trace = self._trace
        trace.mark_wall()
        for process in self._processes:
            for span in process.buffer:
                trace.complete(process.track, *span)
        for sample in self._samples:
            trace.counter(*sample)


#: Backend name -> executor class: the one table ``Cluster(backend=...)``,
#: ``--backend`` and :func:`get_executor` go by.
_EXECUTORS = {cls.name: cls for cls in (Simulator, ThreadExecutor)}

#: Names accepted by ``Cluster(backend=...)`` / ``--backend``.
BACKENDS = tuple(_EXECUTORS)


def executor_class(backend: str) -> type[Executor]:
    """The executor class behind a backend name."""
    try:
        return _EXECUTORS[backend]
    except KeyError:
        raise BackendError(
            f"unknown execution backend {backend!r}; choose from {BACKENDS}"
        ) from None


def get_executor(cluster, trace=None) -> Executor:
    """The executor for ``cluster``'s configured backend, with its
    watchdog timeout on a wall-clock one; ``trace`` is an optional
    :class:`~repro.telemetry.trace.TraceRecorder`."""
    ex = executor_class(cluster.backend)(trace=trace)
    if ex.wall_clock:
        ex.watchdog_seconds = cluster.watchdog_timeout
    return ex
