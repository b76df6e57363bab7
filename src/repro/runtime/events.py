"""The command language of the distributed protocols and what interprets it.

The producer-consumer matrix-vector product (Sec. 5.3 of the paper) and
everything else that runs on a :class:`~repro.runtime.cluster.Cluster`
is written as generator *processes*: Chapel tasks become Python
generators, the atomics of the ``RemoteBuffer`` protocol become
:class:`SimFlag` objects, the per-locale NIC port a :class:`SimResource`.
A process yields *commands*:

``Timeout(dt)``
    ``dt`` seconds of modelled work (protocol code is *charge-after-work*:
    it does the real work first, then yields the labelled ``Timeout``
    that models it — timing-identical on the simulator, where work
    between yields takes no simulated time, and what lets a wall-clock
    backend stamp a span over the work just done);
``WaitFlag(flag, value)``
    block until ``flag`` holds ``value`` (resumes immediately if it does);
``Pop(queue)``
    block until an item is available; the item is sent back into the
    generator (``item = yield Pop(q)``);
``Acquire(resource)``
    block until the resource is free; the holder must call
    ``resource.release()`` later.

Between yields, processes run ordinary Python — this is where the *real*
data movement happens, so one pass produces correct results and timings.

One implementation of each primitive and of the :class:`Process` record
serves every backend.  A primitive keeps its waiters in arrival order
and hands a flag write, a queue item or a resource unit *directly* to
the first of them, so wake-ups are first come, first served and a flag
wait is edge-triggered: a flag pulsed ``True`` then ``False`` resumes
whoever was waiting for ``True``.  :class:`Executor` documents the
surface protocol code uses and holds the interpreter core the backends
share.  Each backend is one class: :class:`Simulator`, the ``sim``
backend in modelled time, is defined here, the ``threads`` backend in
:mod:`repro.runtime.executor`.

Tracing (optional, nothing on the untraced path): labelled ``Timeout``
commands become busy spans, blocking waits become ``stall`` / ``idle`` /
``wait:<resource>`` spans on the blocked process's track, named queues
emit depth samples and named resources in-use samples.
"""

from __future__ import annotations

import heapq
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterator

from repro.errors import BackendError, DeadlockError

__all__ = [
    "Executor",
    "Simulator",
    "SimFlag",
    "SimQueue",
    "SimResource",
    "Timeout",
    "WaitFlag",
    "Pop",
    "Acquire",
    "Process",
]

ProcessGen = Generator[Any, Any, None]

#: What a simulator heap entry of ``call_later`` holds in its process slot.
_CALLBACK = object()


@dataclass(frozen=True)
class Timeout:
    delay: float
    #: optional span name for the trace (busy work, e.g. "generate")
    label: str | None = None
    #: optional span args for the trace (e.g. {"src": 0, "dst": 3,
    #: "bytes": 65536, "msgs": 1} on a "send" span) — only recorded when
    #: ``label`` is set
    args: "dict | None" = None


@dataclass(frozen=True)
class WaitFlag:
    flag: "SimFlag"
    value: bool
    #: the span a traced wait is recorded as (see :attr:`SimFlag.wait_label`)
    wait_label = property(lambda self: self.flag.wait_label)


@dataclass(frozen=True)
class Pop:
    queue: "SimQueue"
    wait_label = property(lambda self: self.queue.wait_label)


@dataclass(frozen=True)
class Acquire:
    resource: "SimResource"
    wait_label = property(lambda self: self.resource.wait_label)


class Process:
    """Bookkeeping for one running generator, on either backend.

    The constructor sets what every backend reads.  The slots from
    ``thread`` on are how a process lives on a thread and only
    ``ThreadExecutor.spawn`` fills them in: its ``thread``; ``park``, the
    lock it sleeps on (held while it runs, released by whoever resumes
    it); ``parked`` and the ``value`` it is resumed with; and ``buffer``,
    its spans ``(name, start, duration, args)`` in the order it recorded
    them when tracing (one writer, so no lock; ``run()`` merges them).
    """

    __slots__ = (
        "gen", "name", "finished", "track", "block", "block_start",
        "locale", "waiting_on", "thread", "park", "parked", "value", "buffer",
    )

    def __init__(
        self,
        gen: ProcessGen,
        name: str,
        track: tuple[str, str],
        locale: int | None = None,
    ) -> None:
        self.gen = gen
        self.name = name
        self.finished = False
        #: (process_label, thread_label) naming this process's trace track
        self.track = track
        #: while blocked and traced: the wait's span name and when it
        #: started
        self.block: str | None = None
        self.block_start = 0.0
        #: locale this process runs on (None = not locale-bound)
        self.locale = locale
        #: human-readable wait target while blocked (deadlock report)
        self.waiting_on: str | None = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Process({self.name!r}, finished={self.finished})"


class SimFlag:
    """An atomic boolean with waiters (Chapel ``atomic bool``)."""

    __slots__ = ("_ex", "value", "_waiters", "name", "wait_label")

    def __init__(
        self, ex: "Executor", value: bool = False, name: str | None = None
    ) -> None:
        self._ex = ex
        self.value = value
        self.name = name
        #: the span a traced wait on this flag is recorded as
        self.wait_label = "stall"
        self._waiters: dict[bool, list[Process]] = {False: [], True: []}

    def set(self, value: bool) -> None:
        """Write the flag and resume the processes waiting for this value."""
        self.value = value
        waiters = self._waiters[value]
        if waiters:
            self._waiters[value] = []
            for process in waiters:
                self._ex._resume(process, True)

    def _wait(self, process: Process, value: bool) -> None:
        if self.value == value:
            self._ex._resume(process, True)
            return
        self._ex._mark_blocked(
            process,
            f"flag {self.name}={value}" if self.name else f"flag={value}",
            self.wait_label,
        )
        self._waiters[value].append(process)


class SimQueue:
    """An unbounded FIFO queue with blocking pop.

    A named queue on an observing executor emits a depth sample whenever
    its backlog changes (an item handed straight to a waiting process
    never enters the backlog).
    """

    __slots__ = ("_ex", "_items", "_waiters", "name", "wait_label")

    def __init__(self, ex: "Executor", name: str | None = None) -> None:
        self._ex = ex
        self._items: deque = deque()
        self._waiters: deque[Process] = deque()
        self.name = name
        self.wait_label = "idle"

    def __len__(self) -> int:
        return len(self._items)

    def _sample_depth(self) -> None:
        ex = self._ex
        if ex._sample is not None and self.name is not None:
            ex._sample(
                ("queues", self.name), self.name, ex.now, len(self._items)
            )

    def push(self, item: Any) -> None:
        if self._waiters:
            self._ex._resume(self._waiters.popleft(), item)
        else:
            self._items.append(item)
            self._sample_depth()

    def _pop(self, process: Process) -> None:
        if self._items:
            self._ex._resume(process, self._items.popleft())
            self._sample_depth()
        else:
            self._ex._mark_blocked(
                process,
                f"queue {self.name or '<anonymous>'}",
                self.wait_label,
            )
            self._waiters.append(process)


class SimResource:
    """A unit resource with FIFO waiters (a NIC port).

    A named resource on a tracing executor emits an in-use sample (0 or
    1) at every acquire/release transition.
    """

    __slots__ = ("_ex", "in_use", "_waiters", "name", "wait_label")

    def __init__(self, ex: "Executor", name: str | None = None) -> None:
        self._ex = ex
        self.in_use = 0
        self._waiters: deque[Process] = deque()
        self.name = name
        self.wait_label = "wait:" + (name if name is not None else "resource")

    def _sample_in_use(self) -> None:
        ex = self._ex
        if ex._sample is not None and self.name is not None:
            ex._sample(
                ("resources", self.name), self.name, ex.now, self.in_use
            )

    def _acquire(self, process: Process) -> None:
        ex = self._ex
        if not self.in_use:
            self.in_use = 1
            ex._resume(process, None)
            self._sample_in_use()
        else:
            ex._mark_blocked(
                process,
                f"resource {self.name or '<anonymous>'}",
                self.wait_label,
            )
            self._waiters.append(process)

    def release(self) -> None:
        ex = self._ex
        if self._waiters:
            # Direct hand-off: the unit never goes free.
            ex._resume(self._waiters.popleft(), None)
        else:
            self.in_use = 0
            self._sample_in_use()


class _Counter:
    """A shared counter on the simulator: plain Python is already atomic
    between yields, so this is just a number with the executor-counter API.
    """

    __slots__ = ("value",)

    def __init__(self, value: float = 0) -> None:
        self.value = value

    def add(self, amount: float = 1):
        self.value += amount
        return self.value

    def get(self):
        return self.value


class Executor:
    """What protocol code may ask of a backend, and the interpreter core.

    The protocol surface (every backend, same semantics) is exactly what
    :mod:`repro.distributed` calls:

    - ``flag(value, name)`` / ``queue(name)`` / ``resource(name)``: the
      primitives the yielded ``WaitFlag`` / ``Pop`` / ``Acquire`` commands
      block on (a resource is one unit, a NIC port); ``flag.set``,
      ``queue.push`` and ``resource.release`` may be called from any
      process or callback;
    - ``counter(value)``: an atomic shared counter (``add`` returns the
      new value) — what cross-process counts go through;
    - ``spawn(gen, name, track, locale)``: start a generator process
      (``locale`` names the locale it works for, in failures);
    - ``call_later(delay, fn)``: fire-and-forget callback after a
      *modelled* latency (delayed on the simulator, inline on threads);
    - ``run()``: drive everything to completion, returning elapsed
      seconds of this backend's clock; ``now``: the current reading;
    - ``mutex``: a context manager to wrap telemetry/ledger mutations in
      (never held while setting a flag or pushing to a queue);
      ``lock(name)``: a fresh one per shared NumPy accumulation target
      (``np.add.at``); both are no-ops on the simulator.

    Class attributes ``name`` ("sim"/"threads") and ``wall_clock``
    (whether timings are wall seconds) let callers label reports without
    isinstance checks.

    Both backends trace the *same* span vocabulary — the simulator with
    modelled durations, the threads backend with measured ones.

    A backend is one subclass, registered in
    ``repro.runtime.executor._EXECUTORS``.  It supplies ``spawn``,
    ``run``, ``now``, ``call_later``, ``mutex``, ``lock`` and
    ``counter`` from the list above, and for the interpreter core
    ``_resume(process, value)`` (make a process that a primitive just
    served run again with ``value``),
    ``_span(process, name, start, duration)`` (where a stall span goes)
    and ``_sample`` (where queue-depth / in-use samples go, or ``None``).
    """

    name: str = "abstract"
    wall_clock: bool = False
    #: The primitive classes; a backend whose processes run concurrently
    #: substitutes subclasses that lock the methods protocol code calls.
    _Flag, _Queue, _Resource = SimFlag, SimQueue, SimResource

    def __init__(self, tracing: bool) -> None:
        self._tracing = tracing
        self._processes: list[Process] = []

    # -- the protocol surface -------------------------------------------------

    def flag(self, value: bool = False, name: str | None = None) -> SimFlag:
        return self._Flag(self, value, name)

    def queue(self, name: str | None = None) -> SimQueue:
        return self._Queue(self, name)

    def resource(self, name: str | None = None) -> SimResource:
        return self._Resource(self, name)

    # -- the interpreter core -------------------------------------------------

    def _dispatch(self, process: Process, command: Any) -> None:
        """Hand a blocking command to its primitive, which resumes
        ``process`` at once or marks it blocked and queues it."""
        if isinstance(command, WaitFlag):
            command.flag._wait(process, command.value)
        elif isinstance(command, Pop):
            command.queue._pop(process)
        elif isinstance(command, Acquire):
            command.resource._acquire(process)
        else:
            raise TypeError(
                f"process {process.name!r} yielded {command!r}; expected "
                "Timeout, WaitFlag, Pop, or Acquire"
            )

    def _mark_blocked(self, process: Process, detail: str, label: str) -> None:
        """Remember that a process just blocked: what it waits on for the
        deadlock report and, when tracing, which wait started when."""
        process.waiting_on = detail
        if self._tracing:
            process.block = label
            process.block_start = self.now

    def _observe_wait(self, process: Process, now: float) -> None:
        """A marked process resumes: emit its wait span (zero-length ones
        are dropped to keep traces small)."""
        waited = now - process.block_start
        if waited > 0.0:
            self._span(process, process.block, process.block_start, waited)
        process.block = None

    @staticmethod
    def _worker_error(exc: BaseException, who: str, locale: int | None):
        """What a run raises for the exception of worker / task ``who``:
        a :class:`~repro.errors.BackendError` naming it and its locale,
        the original chained as ``__cause__``."""
        if isinstance(exc, BackendError):
            return exc
        if locale is not None:
            who += f" (locale {locale})"
        err = BackendError(
            f"{who} failed mid-run: {type(exc).__name__}: {exc}", locale=locale
        )
        err.__cause__ = exc
        return err

    @staticmethod
    def _blocked_report(processes) -> tuple[list[tuple[str, str]], str]:
        """(name, wait target) of each blocked process, and the sentence
        naming the first few."""
        blocked = [(p.name, p.waiting_on or "<unknown>") for p in processes]
        text = f"{len(blocked)} process(es) blocked: " + "; ".join(
            f"{name} waiting on {target}" for name, target in blocked[:8]
        )
        if len(blocked) > 8:
            text += f"; ... and {len(blocked) - 8} more"
        return blocked, text


class Simulator(Executor):
    """The ``sim`` backend: one thread, a heap of timed events.

    Typical use::

        sim = Simulator()
        flag = sim.flag()
        sim.spawn(producer(flag), name="producer")
        sim.spawn(consumer(flag), name="consumer")
        elapsed = sim.run()

    Commands advance a simulated clock, so timings are a pure function of
    the machine model.  ``trace`` (a
    :class:`~repro.telemetry.trace.TraceRecorder`) receives spans and
    counter samples directly, stamped with simulated time.  What is
    trivial on one thread is trivial here: no-op ``mutex`` / ``lock()``,
    an unguarded counter.
    """

    name = "sim"
    mutex = nullcontext()

    def __init__(self, trace=None) -> None:
        # Only keep an enabled recorder; every tracing site then guards on
        # a single `is not None` check, so untraced runs stay fast.
        self._trace = trace if trace is not None and trace.enabled else None
        super().__init__(self._trace is not None)
        self._sample = self._trace.counter if self._trace is not None else None
        self.now = 0.0
        self._heap: list[tuple[float, int, Any, Any]] = []
        self._sequence = 0
        self._active = 0

    # -- processes ----------------------------------------------------------

    def spawn(
        self,
        gen: ProcessGen | Iterator,
        name: str = "task",
        track: tuple[str, str] | None = None,
        locale: int | None = None,
    ) -> Process:
        process = Process(
            gen, name, track if track is not None else ("sim", name), locale
        )
        self._active += 1
        self._processes.append(process)
        self._resume(process, None)
        return process

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` after ``delay`` simulated seconds (fire-and-forget,
        e.g. the arrival of a remote atomic write): one timed event."""
        self._sequence += 1
        event = (self.now + max(delay, 0.0), self._sequence, _CALLBACK, fn)
        heapq.heappush(self._heap, event)

    def counter(self, value: float = 0) -> _Counter:
        return _Counter(value)

    def lock(self, name: str | None = None):
        # Locks cannot contend on one thread.
        return self.mutex

    def _resume(self, process: Process, value: Any) -> None:
        self._sequence += 1
        heapq.heappush(self._heap, (self.now, self._sequence, process, value))

    def _span(
        self, process: Process, name: str, start: float, duration: float
    ) -> None:
        if self._trace is not None:
            self._trace.complete(process.track, name, start, duration)

    # -- event loop -----------------------------------------------------------

    def _step(self, process: Process, value: Any) -> None:
        if process.block is not None:
            self._observe_wait(process, self.now)
        process.waiting_on = None
        try:
            command = process.gen.send(value)
        except StopIteration:
            process.finished = True
            self._active -= 1
            return
        except Exception as exc:
            raise self._worker_error(
                exc, f"worker {process.name!r}", process.locale
            )
        if isinstance(command, Timeout):
            delay = max(command.delay, 0.0)
            if self._trace is not None and command.label is not None:
                self._trace.complete(
                    process.track,
                    command.label,
                    self.now,
                    delay,
                    command.args,
                )
            self._sequence += 1
            heapq.heappush(
                self._heap, (self.now + delay, self._sequence, process, None)
            )
        else:
            self._dispatch(process, command)

    def run(self) -> float:
        """Run until no events remain; returns the final simulated time.

        Raises :class:`~repro.errors.DeadlockError` (a ``BackendError``
        and ``RuntimeError`` subclass) if processes remain blocked with an
        empty event heap, naming every blocked process and the
        flag/queue/resource it waits on — an orphaned wait is a loud,
        typed failure, never a silent partial result.
        """
        while self._heap:
            time, _, process, value = heapq.heappop(self._heap)
            self.now = time
            if process is _CALLBACK:
                value()
            else:
                self._step(process, value)
        if self._active:
            blocked, text = self._blocked_report(
                p for p in self._processes if not p.finished
            )
            raise DeadlockError(
                f"simulation deadlock, no pending events: {text}",
                blocked=blocked,
            )
        return self.now
