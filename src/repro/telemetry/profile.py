"""Executor profiling: per-thread span buffers and contention metrics.

The discrete-event simulator can write trace spans directly — one thread,
monotone simulated time.  The real ``threads`` backend cannot: dozens of
workers would contend on the recorder's event list, and a lock around
every span would perturb the very timings being measured.  This module is
the thread-safe wall-clock recording mode:

- :class:`SpanBuffer` — a bounded, single-writer span buffer.  Each
  executor process appends to its own buffer with no locking (list
  appends under the GIL; only the owning thread writes).
- :class:`ExecutorProfiler` — owns the buffers plus per-thread metric
  observation lists, and merges everything into the shared
  :class:`~repro.telemetry.trace.TraceRecorder` /
  :class:`~repro.telemetry.metrics.MetricsRegistry` at :meth:`flush`
  (called by ``run()`` on either backend once the workers have joined —
  including on failure, so partial traces of crashed or deadlocked runs
  remain inspectable).
- :class:`ProfiledLock` — a ``threading.Lock``/``RLock`` wrapper that
  measures wait and hold durations into the profiler (the
  ``executor.lock_wait_seconds`` / ``executor.lock_hold_seconds``
  histograms).

Both executors feed the same ``executor.*`` metric families, so a
simulator run and a threads run of one workload expose comparable
contention figures — the simulator observes *modelled* durations, the
threads backend *measured* ones.  The families, their labels and their
readers are catalogued once, in ``docs/OBSERVABILITY.md`` ("Metric
catalogue"); :data:`WAIT_FAMILIES` and :data:`HOLD_FAMILIES` below map
each primitive to its histogram.

Everything here is opt-in: with tracing and metrics disabled the
profiler's ``enabled``/``tracing``/``metering`` flags are all False and
the executors skip every hook (the CI overhead gate holds the disabled
path to <=2% of the instrumented one).
"""

from __future__ import annotations

import threading
import time

__all__ = [
    "SpanBuffer",
    "ExecutorProfiler",
    "ProfiledLock",
    "NULL_PROFILER",
    "WAIT_FAMILIES",
    "HOLD_FAMILIES",
]

#: wait-primitive kind -> (histogram family, label key)
WAIT_FAMILIES = {
    "flag": ("executor.flag_wait_seconds", "flag"),
    "queue": ("executor.queue_wait_seconds", "queue"),
    "resource": ("executor.resource_wait_seconds", "resource"),
    "lock": ("executor.lock_wait_seconds", "lock"),
}

#: hold-primitive kind -> (histogram family, label key)
HOLD_FAMILIES = {
    "resource": ("executor.resource_hold_seconds", "resource"),
    "lock": ("executor.lock_hold_seconds", "lock"),
}

#: default per-process span capacity; overflow drops spans (counted) so a
#: runaway process cannot exhaust memory through its own trace
DEFAULT_BUFFER_CAPACITY = 65536


class SpanBuffer:
    """A bounded span buffer with exactly one writer (its process's thread).

    Appends are plain list appends — atomic under the GIL, no lock — and
    the start times are monotone per buffer by construction (a thread
    records its own history in order), which is what keeps the merged
    trace monotone per track.
    """

    __slots__ = ("track", "spans", "capacity", "dropped")

    def __init__(
        self, track: tuple[str, str], capacity: int = DEFAULT_BUFFER_CAPACITY
    ) -> None:
        self.track = track
        self.spans: list[tuple[str, float, float, dict | None]] = []
        self.capacity = capacity
        self.dropped = 0

    def span(
        self,
        name: str,
        start: float,
        duration: float,
        args: dict | None = None,
    ) -> None:
        """Record one complete span (seconds relative to the run start)."""
        if len(self.spans) >= self.capacity:
            self.dropped += 1
            return
        self.spans.append((name, start, duration, args))


class ExecutorProfiler:
    """Collects executor-primitive telemetry and merges it at the end.

    ``trace`` / ``metrics`` may be None or disabled sinks; the profiler
    keeps only enabled ones and exposes ``tracing`` / ``metering`` /
    ``enabled`` flags the executors guard their hooks on.  ``wall=True``
    (the threads backend) switches the merged trace's clock domain to
    wall seconds via :meth:`TraceRecorder.mark_wall`.

    Write paths and their synchronization:

    - span buffers: one writer each, no lock (see :class:`SpanBuffer`);
    - metric observations (:meth:`wait` / :meth:`hold` / :meth:`worker`):
      appended to a per-thread list (``threading.local``), registered
      once per thread under a small lock;
    - queue-depth stats and trace counter samples: callers must already
      be serialized (the thread executor updates them under its lock;
      the simulator is single-threaded).

    :meth:`flush` drains everything; it must only run when no writer
    thread is live (after ``run()`` joined the workers).  It is
    idempotent — a second flush merges only what arrived in between.
    """

    def __init__(self, trace=None, metrics=None, wall: bool = False) -> None:
        self.trace = (
            trace
            if trace is not None and getattr(trace, "enabled", False)
            else None
        )
        self.metrics = (
            metrics
            if metrics is not None and getattr(metrics, "enabled", False)
            else None
        )
        self.tracing = self.trace is not None
        self.metering = self.metrics is not None
        self.enabled = self.tracing or self.metering
        self.wall = wall
        self._reg_lock = threading.Lock()
        self._buffers: list[SpanBuffer] = []
        self._obs_lists: list[list] = []
        self._local = threading.local()
        #: (track, name, when, value) trace counter samples (caller-serialized)
        self._samples: list[tuple[tuple[str, str], str, float, float]] = []
        #: queue name -> [last depth, peak depth] (caller-serialized)
        self._queue_stats: dict[str, list[float]] = {}

    # -- recording ----------------------------------------------------------

    def buffer(
        self,
        track: tuple[str, str],
        capacity: int = DEFAULT_BUFFER_CAPACITY,
    ) -> SpanBuffer:
        """A fresh registered span buffer for one executor process."""
        buf = SpanBuffer(track, capacity)
        with self._reg_lock:
            self._buffers.append(buf)
        return buf

    def _obs(self) -> list:
        lst = getattr(self._local, "obs", None)
        if lst is None:
            lst = self._local.obs = []
            with self._reg_lock:
                self._obs_lists.append(lst)
        return lst

    def wait(self, kind: str, target: str, seconds: float) -> None:
        """One wait observation for a primitive (``kind`` in WAIT_FAMILIES)."""
        self._obs().append(("wait", kind, target, seconds))

    def hold(self, kind: str, target: str, seconds: float) -> None:
        """One hold observation (resource acquire->release, lock held)."""
        self._obs().append(("hold", kind, target, seconds))

    def worker(
        self, name: str, locale: int | None, busy: float, blocked: float
    ) -> None:
        """Lifetime busy/blocked seconds of one finished worker process."""
        self._obs().append(("worker", name, locale, busy, blocked))

    def queue_depth(self, name: str, depth: int) -> None:
        """Update the last/peak depth of a named queue (caller-serialized)."""
        stats = self._queue_stats.get(name)
        if stats is None:
            self._queue_stats[name] = [float(depth), float(depth)]
        else:
            stats[0] = float(depth)
            if depth > stats[1]:
                stats[1] = float(depth)

    def sample(
        self, track: tuple[str, str], name: str, when: float, value: float
    ) -> None:
        """Buffer one trace counter sample (caller-serialized)."""
        self._samples.append((track, name, when, value))

    # -- merge --------------------------------------------------------------

    def flush(self) -> None:
        """Merge buffered spans and observations into the shared sinks.

        Only call when no writer thread is running.  Buffers and lists
        are drained, so flushing twice never double-counts.
        """
        trace, metrics = self.trace, self.metrics
        dropped_total = 0
        if trace is not None:
            if self.wall:
                trace.mark_wall()
            with self._reg_lock:
                buffers = list(self._buffers)
            for buf in buffers:
                spans, buf.spans = buf.spans, []
                for name, start, duration, args in spans:
                    trace.complete(buf.track, name, start, duration, args)
                dropped_total += buf.dropped
                buf.dropped = 0
            samples, self._samples = self._samples, []
            for track, name, when, value in samples:
                trace.counter(track, name, when, value)
        if metrics is None:
            return
        if dropped_total:
            metrics.counter("executor.trace_spans_dropped").inc(dropped_total)
        with self._reg_lock:
            obs_lists = list(self._obs_lists)
        for lst in obs_lists:
            drained = lst[:]
            del lst[: len(drained)]
            for entry in drained:
                kind = entry[0]
                if kind == "wait":
                    _, primitive, target, seconds = entry
                    family, label = WAIT_FAMILIES[primitive]
                    metrics.histogram(family, **{label: target}).observe(
                        seconds
                    )
                elif kind == "hold":
                    _, primitive, target, seconds = entry
                    family, label = HOLD_FAMILIES[primitive]
                    metrics.histogram(family, **{label: target}).observe(
                        seconds
                    )
                else:  # worker
                    _, name, locale, busy, blocked = entry
                    labels = {"worker": name}
                    if locale is not None:
                        labels["locale"] = locale
                    metrics.counter(
                        "executor.worker_busy_seconds", **labels
                    ).inc(busy)
                    metrics.counter(
                        "executor.worker_blocked_seconds", **labels
                    ).inc(blocked)
        queue_stats = list(self._queue_stats.items())
        self._queue_stats.clear()
        for name, (depth, peak) in queue_stats:
            metrics.gauge("executor.queue_depth", queue=name).set(depth)
            metrics.gauge("executor.queue_depth_max", queue=name).set(peak)


#: A shared disabled profiler (all flags False, every hook skipped).
NULL_PROFILER = ExecutorProfiler()


class ProfiledLock:
    """A lock measuring wait and hold durations into a profiler.

    Wraps a ``threading.Lock`` or ``RLock``; reentrant acquires are
    counted so only the outermost acquire/release pair observes the
    wait/hold histograms.  ``_depth`` and ``_acquired_at`` are only
    mutated while the underlying lock is held, so they need no extra
    synchronization.
    """

    __slots__ = ("_lock", "_profile", "name", "_acquired_at", "_depth")

    def __init__(self, lock, profile: ExecutorProfiler, name: str) -> None:
        self._lock = lock
        self._profile = profile
        self.name = name
        self._acquired_at = 0.0
        self._depth = 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        t0 = time.perf_counter()
        ok = self._lock.acquire(blocking, timeout)
        if ok:
            if self._depth == 0:
                now = time.perf_counter()
                self._profile.wait("lock", self.name, now - t0)
                self._acquired_at = now
            self._depth += 1
        return ok

    def release(self) -> None:
        if self._depth == 1:
            self._profile.hold(
                "lock", self.name, time.perf_counter() - self._acquired_at
            )
        self._depth -= 1
        self._lock.release()

    def __enter__(self) -> "ProfiledLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()
