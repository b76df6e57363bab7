"""Tests for the discrete-event simulator."""

import pytest

from repro.runtime.events import (
    Acquire,
    Pop,
    Simulator,
    Timeout,
    WaitFlag,
)


class TestTimeouts:
    def test_single_timeout(self):
        sim = Simulator()

        def proc():
            yield Timeout(2.5)

        sim.spawn(proc())
        assert sim.run() == pytest.approx(2.5)

    def test_sequential_timeouts_accumulate(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)
            yield Timeout(2.0)

        sim.spawn(proc())
        assert sim.run() == pytest.approx(3.0)

    def test_parallel_processes_overlap(self):
        sim = Simulator()

        def proc(dt):
            yield Timeout(dt)

        sim.spawn(proc(3.0))
        sim.spawn(proc(1.0))
        assert sim.run() == pytest.approx(3.0)

    def test_execution_order(self):
        sim = Simulator()
        log = []

        def proc(name, dt):
            yield Timeout(dt)
            log.append(name)

        sim.spawn(proc("late", 2.0))
        sim.spawn(proc("early", 1.0))
        sim.run()
        assert log == ["early", "late"]

    def test_negative_delay_clamped(self):
        sim = Simulator()

        def proc():
            yield Timeout(-5.0)

        sim.spawn(proc())
        assert sim.run() == 0.0


class TestFlags:
    def test_wait_already_satisfied(self):
        sim = Simulator()
        flag = sim.flag(True)
        done = []

        def proc():
            yield WaitFlag(flag, True)
            done.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert done == [0.0]

    def test_wait_then_set(self):
        sim = Simulator()
        flag = sim.flag(False)
        done = []

        def waiter():
            yield WaitFlag(flag, True)
            done.append(sim.now)

        def setter():
            yield Timeout(4.0)
            flag.set(True)

        sim.spawn(waiter())
        sim.spawn(setter())
        sim.run()
        assert done == [pytest.approx(4.0)]

    def test_set_wakes_all_waiters(self):
        sim = Simulator()
        flag = sim.flag(False)
        done = []

        def waiter(i):
            yield WaitFlag(flag, True)
            done.append(i)

        for i in range(3):
            sim.spawn(waiter(i))

        def setter():
            yield Timeout(1.0)
            flag.set(True)

        sim.spawn(setter())
        sim.run()
        assert sorted(done) == [0, 1, 2]

    def test_producer_consumer_ping_pong(self):
        # The paper's RemoteBuffer protocol in miniature.
        sim = Simulator()
        is_full = sim.flag(False)
        transferred = []

        def producer():
            for item in range(3):
                yield WaitFlag(is_full, False)
                is_full.set(True)
                transferred.append(("put", item, sim.now))
                yield Timeout(1.0)

        def consumer():
            for _ in range(3):
                yield WaitFlag(is_full, True)
                yield Timeout(2.0)
                transferred.append(("got", sim.now))
                is_full.set(False)

        sim.spawn(producer())
        sim.spawn(consumer())
        elapsed = sim.run()
        # consumer is the bottleneck: 3 items x 2.0 seconds, pipelined
        assert elapsed == pytest.approx(6.0)
        assert len(transferred) == 6


class TestQueues:
    def test_push_then_pop(self):
        sim = Simulator()
        q = sim.queue()
        got = []

        def consumer():
            item = yield Pop(q)
            got.append(item)

        q.push("hello")
        sim.spawn(consumer())
        sim.run()
        assert got == ["hello"]

    def test_pop_blocks_until_push(self):
        sim = Simulator()
        q = sim.queue()
        got = []

        def consumer():
            item = yield Pop(q)
            got.append((item, sim.now))

        def producer():
            yield Timeout(5.0)
            q.push(42)

        sim.spawn(consumer())
        sim.spawn(producer())
        sim.run()
        assert got == [(42, pytest.approx(5.0))]

    def test_fifo_order(self):
        sim = Simulator()
        q = sim.queue()
        got = []

        def consumer():
            while True:
                item = yield Pop(q)
                if item is None:
                    break
                got.append(item)

        for i in range(5):
            q.push(i)
        q.push(None)
        sim.spawn(consumer())
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_len(self):
        sim = Simulator()
        q = sim.queue()
        q.push(1)
        q.push(2)
        assert len(q) == 2


class TestResources:
    def test_capacity_one_serializes(self):
        sim = Simulator()
        r = sim.resource()

        def worker():
            yield Acquire(r)
            yield Timeout(2.0)
            r.release()

        for _ in range(3):
            sim.spawn(worker())
        assert sim.run() == pytest.approx(6.0)


class TestErrorHandling:
    def test_deadlock_detected(self):
        sim = Simulator()
        flag = sim.flag(False)

        def stuck():
            yield WaitFlag(flag, True)

        sim.spawn(stuck())
        with pytest.raises(RuntimeError, match="deadlock"):
            sim.run()

    def test_bad_yield_rejected(self):
        sim = Simulator()

        def bad():
            yield "not-a-command"

        sim.spawn(bad())
        with pytest.raises(TypeError):
            sim.run()

    def test_deadlock_error_names_blocked_processes(self):
        from repro.errors import BackendError, DeadlockError

        sim = Simulator()
        flag = sim.flag(False, name="never")

        def stuck():
            yield WaitFlag(flag, True)

        sim.spawn(stuck(), name="stuck-proc")
        with pytest.raises(DeadlockError, match="stuck-proc") as excinfo:
            sim.run()
        assert isinstance(excinfo.value, BackendError)
        assert excinfo.value.blocked
        name, target = excinfo.value.blocked[0]
        assert name == "stuck-proc"
        assert "never" in target

    def test_call_later(self):
        sim = Simulator()
        fired = []
        sim.call_later(3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [pytest.approx(3.0)]


class TestCallLater:
    """A simulated remote write is one timed event, not a process."""

    def test_fires_at_now_plus_delay_and_a_negative_delay_at_now(self):
        sim = Simulator()
        fired = []

        def proc():
            yield Timeout(1.0)
            sim.call_later(0.5, lambda: fired.append(("later", sim.now)))
            sim.call_later(-2.0, lambda: fired.append(("negative", sim.now)))

        sim.spawn(proc())
        sim.run()
        assert fired == [("negative", 1.0), ("later", 1.5)]

    def test_callbacks_due_together_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.call_later(1.0, lambda i=i: fired.append(i))
        sim.call_later(0.0, lambda: fired.append("zero"))
        sim.call_later(-1.0, lambda: fired.append("negative"))
        sim.run()
        assert fired == ["zero", "negative", 0, 1, 2, 3, 4]

    def test_run_returns_the_time_of_the_last_callback(self):
        sim = Simulator()
        for delay in (2.0, 7.25, 3.0):
            sim.call_later(delay, lambda: None)
        assert sim.run() == 7.25

    def test_no_process_is_spawned(self):
        sim = Simulator()
        flag = sim.flag(False)
        sim.call_later(1.0, lambda: flag.set(True))
        assert sim._processes == []
        sim.run()
        assert flag.value
        assert sim._processes == []
