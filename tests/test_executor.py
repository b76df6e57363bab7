"""Backend-conformance suite for the executor abstraction.

Every test in :class:`TestConformance` drives the *same* generator
protocol code through every registered backend (``BACKENDS``: the
discrete-event simulator and the real thread backend today) and asserts
the same observable behaviour: FIFO queue ordering, flag handshake
semantics (edge-triggered waits), atomic counters, arrival-order
service, and RemoteBuffer-style buffer-reuse handoff.  The protocol code never mentions a backend; that is the point
of the abstraction.

Thread-only behaviour — prompt typed failure instead of a hang — is
covered separately.
"""

from __future__ import annotations

import os
import random
import sys
import time

import pytest

from repro.errors import BackendError
from repro.runtime import Cluster, laptop_machine
from repro.runtime.events import Acquire, Pop, Simulator, Timeout, WaitFlag
from repro.runtime.executor import (
    BACKENDS,
    ThreadExecutor,
    executor_class,
    get_executor,
)


@pytest.fixture(params=BACKENDS)
def ex(request):
    return executor_class(request.param)()


class TestConformance:
    def test_queue_is_fifo(self, ex):
        queue = ex.queue(name="work")
        seen = []

        def producer():
            for item in range(10):
                queue.push(item)
                yield Timeout(1e-6)

        def consumer():
            for _ in range(10):
                item = yield Pop(queue)
                seen.append(item)

        ex.spawn(producer(), name="producer")
        ex.spawn(consumer(), name="consumer")
        ex.run()
        assert seen == list(range(10))

    def test_flag_handshake_alternates(self, ex):
        """Two processes ping-pong through a pair of flags; the observed
        event order must strictly alternate on every backend."""
        ping = ex.flag(False, name="ping")
        pong = ex.flag(True, name="pong")
        events = []

        def pinger():
            for i in range(5):
                ok = yield WaitFlag(pong, True)
                assert ok is True
                pong.set(False)
                with ex.mutex:
                    events.append(("ping", i))
                ping.set(True)

        def ponger():
            for i in range(5):
                ok = yield WaitFlag(ping, True)
                assert ok is True
                ping.set(False)
                with ex.mutex:
                    events.append(("pong", i))
                pong.set(True)

        ex.spawn(pinger(), name="pinger")
        ex.spawn(ponger(), name="ponger")
        ex.run()
        assert events == [
            (side, i) for i in range(5) for side in ("ping", "pong")
        ]

    def test_counter_add_is_atomic_and_returns_new_value(self, ex):
        counter = ex.counter(0)
        claimed = []

        def worker():
            local = []
            for _ in range(200):
                local.append(counter.add(1) - 1)
            with ex.mutex:
                claimed.extend(local)
            yield Timeout(0.0)

        for i in range(4):
            ex.spawn(worker(), name=f"adder-{i}")
        ex.run()
        # 800 adds -> 800 distinct claimed slots, no lost updates.
        assert counter.get() == 800
        assert sorted(claimed) == list(range(800))

    def test_buffer_reuse_handoff(self, ex):
        """The RemoteBuffer protocol shape: one reusable slot, a ``full``
        flag in each direction, strict item ordering, no lost writes."""
        full = ex.flag(False, name="full")
        slot = [None]
        received = []

        def producer():
            for item in range(25):
                ok = yield WaitFlag(full, False)
                assert ok is True
                slot[0] = item
                full.set(True)

        def consumer():
            for _ in range(25):
                ok = yield WaitFlag(full, True)
                assert ok is True
                received.append(slot[0])
                full.set(False)

        ex.spawn(producer(), name="producer")
        ex.spawn(consumer(), name="consumer")
        ex.run()
        assert received == list(range(25))

    def test_call_later_effect_is_visible_after_run(self, ex):
        flag = ex.flag(False, name="late")
        results = []

        def waiter():
            ok = yield WaitFlag(flag, True)
            results.append(ok)

        ex.spawn(waiter(), name="waiter")
        ex.call_later(1e-4, lambda: flag.set(True))
        ex.run()
        assert results == [True]


    def test_pulsed_flag_resumes_the_waiter_with_true(self, ex):
        """A flag wait is edge-triggered on every backend: a write of the
        awaited value resumes whoever is parked, even if the flag is
        written back before that process runs again."""
        flag = ex.flag(False, name="pulse")
        results = []

        def waiter():
            ok = yield WaitFlag(flag, True)
            results.append(ok)

        def pulser():
            if ex.wall_clock:
                time.sleep(0.05)  # let the waiter park first
            yield Timeout(1e-3)
            flag.set(True)
            flag.set(False)

        ex.spawn(waiter(), name="waiter")
        ex.spawn(pulser(), name="pulser")
        ex.run()
        assert results == [True]
        assert flag.value is False

    @pytest.mark.parametrize("primitive", ["resource", "queue"])
    def test_waiters_are_served_in_arrival_order(self, ex, primitive):
        """Three processes parked in a known order on a resource / on a
        queue get the unit / the items in that order."""
        port = ex.resource(name="port")
        queue = ex.queue(name="work")
        served = []

        def waiter(i):
            if ex.wall_clock:
                time.sleep(0.04 * (i + 1))  # park in index order
            yield Timeout(1e-3 * (i + 1))
            if primitive == "resource":
                yield Acquire(port)
                served.append(i)
                yield Timeout(1e-3)
                port.release()
            else:
                item = yield Pop(queue)
                served.append((i, item))

        def server():
            if primitive == "resource":
                yield Acquire(port)
            if ex.wall_clock:
                time.sleep(0.2)
            yield Timeout(1.0)
            if primitive == "resource":
                port.release()
            else:
                for item in range(3):
                    queue.push(item)

        ex.spawn(server(), name="server")
        for i in range(3):
            ex.spawn(waiter(i), name=f"waiter-{i}")
        ex.run()
        if primitive == "resource":
            # Appended while holding the unit: the order of service.
            assert served == [0, 1, 2]
        else:
            # Who got which item (the appends themselves may interleave).
            assert sorted(served) == [(0, 0), (1, 1), (2, 2)]

    def test_raising_worker_fails_the_run_with_others_parked(self, ex):
        """A worker that raises while others are parked on a flag, a
        queue and a resource: a typed error naming its locale, promptly,
        with what was traced so far flushed."""
        from repro.telemetry import TraceRecorder

        trace = TraceRecorder()
        ex = type(ex)(trace=trace)
        never = ex.flag(False, name="never")
        empty = ex.queue(name="empty")
        port = ex.resource(name="port")

        def on_flag():
            yield WaitFlag(never, True)

        def on_queue():
            yield Pop(empty)

        def on_resource():
            yield Acquire(port)

        def failing():
            yield Acquire(port)  # held, so on_resource parks
            if ex.wall_clock:
                time.sleep(0.1)
            yield Timeout(1e-3, label="before-kaboom")
            raise RuntimeError("injected kaboom")

        ex.spawn(failing(), name="failing", track=("locale3", "w"), locale=3)
        ex.spawn(on_flag(), name="on-flag", locale=0)
        ex.spawn(on_queue(), name="on-queue", locale=1)
        ex.spawn(on_resource(), name="on-resource", locale=2)
        t0 = time.perf_counter()
        with pytest.raises(BackendError, match="injected kaboom") as excinfo:
            ex.run()
        assert time.perf_counter() - t0 < 5.0, "failure should not hang"
        assert excinfo.value.locale == 3
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        names = {
            event["name"]
            for event in trace.to_chrome()["traceEvents"]
            if event.get("ph") == "X"
        }
        assert "before-kaboom" in names


class TestThreadHandoffStress:
    """Race hunting: many more workers than cores trading hand-offs through
    all three primitives under a shortened, randomized switch interval.  A
    lost wake-up trips the watchdog; a misdirected one breaks the order."""

    WORKERS = 8  # 4x the 2-vCPU runner
    HANDOFFS = 500

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ring_of_handoffs_keeps_order_and_finishes(self, seed):
        rng = random.Random(seed)
        n = self.WORKERS
        ex = ThreadExecutor()
        ex.watchdog_seconds = 5.0
        queues = [ex.queue(name=f"ring{w}") for w in range(n)]
        credit = [ex.flag(True, name=f"credit{w}") for w in range(n)]
        nic = ex.resource(name="nic")
        received = [[] for _ in range(n)]
        yields = [
            [rng.random() < 0.05 for _ in range(self.HANDOFFS)]
            for _ in range(n)
        ]

        def worker(w):
            left, right = (w - 1) % n, (w + 1) % n
            for i in range(self.HANDOFFS):
                # One credit per item in flight to the right neighbour.
                yield WaitFlag(credit[w], True)
                credit[w].set(False)
                yield Acquire(nic)
                queues[right].push((w, i))
                nic.release()
                if yields[w][i]:
                    time.sleep(0)
                item = yield Pop(queues[w])
                received[w].append(item)
                credit[left].set(True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(10 ** rng.uniform(-6, -4))
        try:
            for w in range(n):
                ex.spawn(worker(w), name=f"ring-{w}")
            ex.run()
        finally:
            sys.setswitchinterval(interval)
        for w in range(n):
            assert received[w] == [
                ((w - 1) % n, i) for i in range(self.HANDOFFS)
            ]
        assert nic.in_use == 0


class TestThreadFailureSemantics:
    """A raising worker must produce a typed error, promptly — not a hang."""

    def test_worker_exception_becomes_backend_error_with_locale(self):
        ex = ThreadExecutor()
        never = ex.flag(False, name="never")

        def victim():
            # Blocked forever unless the failure cancels it.
            yield WaitFlag(never, True)

        def failing():
            yield Timeout(0.0)
            raise RuntimeError("injected kaboom")

        ex.spawn(victim(), name="victim", locale=0)
        ex.spawn(failing(), name="failing", locale=3)
        t0 = time.perf_counter()
        with pytest.raises(BackendError) as excinfo:
            ex.run()
        assert time.perf_counter() - t0 < 5.0, "failure should not hang"
        assert "locale 3" in str(excinfo.value)
        assert excinfo.value.locale == 3
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_watchdog_turns_deadlock_into_typed_error(self):
        ex = ThreadExecutor()
        ex.watchdog_seconds = 0.3
        never = ex.flag(False, name="stuck-flag")

        def stuck():
            yield WaitFlag(never, True)

        ex.spawn(stuck(), name="stuck-worker")
        with pytest.raises(BackendError, match="deadlock"):
            ex.run()


class TestBackendSelection:
    def test_cluster_default_backend_is_sim(self):
        cluster = Cluster(2, laptop_machine())
        assert cluster.backend == "sim"
        assert isinstance(get_executor(cluster), Simulator)

    def test_cluster_threads_backend(self):
        cluster = Cluster(2, laptop_machine(), backend="threads")
        assert cluster.backend == "threads"
        assert isinstance(get_executor(cluster), ThreadExecutor)

    def test_unknown_backend_rejected(self):
        with pytest.raises(BackendError, match="mpi"):
            Cluster(2, laptop_machine(), backend="mpi")

    def test_watchdog_window_is_the_class_constant(self):
        ex = get_executor(Cluster(2, laptop_machine(), backend="threads"))
        assert isinstance(ex, ThreadExecutor)
        assert ex.watchdog_seconds == ThreadExecutor.watchdog_seconds == 20.0

    def test_backends_tuple_is_the_contract(self):
        assert BACKENDS == ("sim", "threads")
        assert Simulator.name == "sim" and not Simulator.wall_clock
        assert ThreadExecutor.name == "threads" and ThreadExecutor.wall_clock


class TestProfilingConformance:
    """Both backends trace the same span *names* per primitive.

    The simulator records modelled durations, the threads backend
    measured ones; what must match is the vocabulary — span names on the
    locale tracks — so the analysis layer and ``repro-inspect calibrate``
    can align the two.  The real sleeps below only matter on the threads
    backend (they force the waiter to genuinely block); on the simulator
    the same blocking comes from the modelled ``Timeout`` delays.
    """

    #: span names both backends must stamp on the locale tracks
    SPAN_NAMES = {
        "produce", "arm", "hold", "consume", "stall", "idle", "wait:port",
    }

    @staticmethod
    def _drive(ex):
        queue = ex.queue(name="work")
        flag = ex.flag(False, name="go")
        port = ex.resource(name="port")
        count = ex.counter(0)

        def holder():
            yield Acquire(port)
            time.sleep(0.03)
            yield Timeout(5e-3, label="hold")
            port.release()

        def producer():
            time.sleep(0.01)
            yield Timeout(2e-3, label="produce")
            queue.push(7)
            queue.push(8)  # lands in the deque: samples queue depth

        def setter():
            time.sleep(0.02)
            yield Timeout(3e-3, label="arm")
            flag.set(True)

        def waiter():
            item = yield Pop(queue)
            ok = yield WaitFlag(flag, True)
            assert ok is True
            yield Acquire(port)
            yield Timeout(1e-3, label="consume")
            port.release()
            count.add(item)

        ex.spawn(holder(), name="holder", track=("locale0", "holder"), locale=0)
        ex.spawn(waiter(), name="waiter", track=("locale0", "waiter"), locale=0)
        ex.spawn(setter(), name="setter", track=("locale0", "setter"), locale=0)
        ex.spawn(
            producer(), name="producer", track=("locale0", "producer"),
            locale=0,
        )
        ex.run()
        assert count.get() == 7

    def _run(self, backend):
        from repro.telemetry import TraceRecorder

        trace = TraceRecorder()
        self._drive(executor_class(backend)(trace=trace))
        return trace

    def test_same_span_names_on_both_backends(self):
        for backend in ("sim", "threads"):
            trace = self._run(backend)
            names = {
                event["name"]
                for event in trace.to_chrome()["traceEvents"]
                if event.get("ph") == "X"
            }
            missing = self.SPAN_NAMES - names
            assert not missing, f"{backend} backend missing spans {missing}"

    def test_clock_domain_marks_the_backend(self):
        sim_trace = self._run("sim")
        wall_trace = self._run("threads")
        assert sim_trace.to_chrome()["clock"] == "sim"
        assert wall_trace.to_chrome()["clock"] == "wall"

    def test_partial_trace_flushed_on_worker_failure(self):
        from repro.telemetry import TraceRecorder

        trace = TraceRecorder()
        ex = ThreadExecutor(trace=trace)

        def worker():
            yield Timeout(1e-3, label="before-crash")
            raise RuntimeError("boom")

        ex.spawn(worker(), name="worker", track=("locale0", "w0"), locale=0)
        with pytest.raises(BackendError, match="boom"):
            ex.run()
        names = [
            event["name"]
            for event in trace.to_chrome()["traceEvents"]
            if event.get("ph") == "X"
        ]
        assert "before-crash" in names
        assert trace.to_chrome()["clock"] == "wall"

    def test_partial_trace_flushed_on_watchdog_deadlock(self):
        from repro.telemetry import TraceRecorder

        trace = TraceRecorder()
        ex = ThreadExecutor(trace=trace)
        ex.watchdog_seconds = 0.3
        flag = ex.flag(False, name="never")

        def stuck():
            yield Timeout(1e-3, label="pre-deadlock")
            yield WaitFlag(flag, True)

        ex.spawn(stuck(), name="stuck", track=("locale0", "w0"), locale=0)
        with pytest.raises(BackendError, match="deadlock"):
            ex.run()
        names = [
            event["name"]
            for event in trace.to_chrome()["traceEvents"]
            if event.get("ph") == "X"
        ]
        assert "pre-deadlock" in names
