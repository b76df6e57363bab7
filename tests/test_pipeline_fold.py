"""One pipeline, two hand-offs (``repro.distributed.matvec_pc``).

The producer-consumer pipeline has one body; what varies is the hand-off
protocol — the paper's ``isFull`` flag, or stop-and-wait ARQ — and which
one runs follows from what can go wrong, not from an option.  These tests
pin the evidence that one body serves both (the ARQ hand-off with nothing
to check reports the flag hand-off's simulated seconds to the last bit),
the selection rule, and agreement with the serial operator over the
product backend x protection x work stealing x block width.
"""

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.basis import SymmetricBasis
from repro.distributed import (
    DistributedOperator,
    DistributedVector,
    enumerate_states,
    matvec_producer_consumer,
)
from repro.distributed import matvec_pc
from repro.distributed.matvec_common import begin_matvec
from repro.errors import FaultError
from repro.operators.compile import compile_expression
from repro.resilience import FaultPlan, ResilienceConfig
from repro.runtime import Cluster, laptop_machine
from repro.runtime.executor import get_executor
from repro.symmetry import chain_symmetries
from repro.telemetry import Telemetry

CHAOS = dict(seed=21, drop=0.08, duplicate=0.08, corrupt=0.05)


def build(backend, n=16, n_locales=4):
    group = chain_symmetries(n, momentum=0, parity=0, inversion=0)
    serial = SymmetricBasis(group, hamming_weight=n // 2)
    template = SymmetricBasis(group, hamming_weight=n // 2, build=False)
    cluster = Cluster(n_locales, laptop_machine(cores=4), backend=backend)
    dbasis, _ = enumerate_states(cluster, template, use_weight_shortcut=True)
    return serial, dbasis, repro.heisenberg_chain(n)


@pytest.fixture(scope="module")
def sim16():
    return build("sim")


class TestOneBodyServesBothHandoffs:
    """sim, chain-16 on 4 locales, 3 + 1 workers, 64-element buffers."""

    KNOBS = dict(
        batch_size=256,
        buffer_capacity=64,
        producers_per_locale=3,
        consumers_per_locale=1,
    )
    #: work_stealing -> (flag hand-off, ARQ with checksums) simulated
    #: seconds, as the two separate pipelines of the parent commit read
    PINNED = {
        False: (0.0006119945, 0.0006124728999999992),
        True: (0.0005884288999999997, 0.0005888904999999988),
    }

    def run(self, sim16, work_stealing, **protection):
        _, dbasis, expr = sim16
        x = DistributedVector.full_random(dbasis, seed=7)
        _, report = matvec_producer_consumer(
            compile_expression(expr, 16), dbasis, x,
            work_stealing=work_stealing, **self.KNOBS, **protection,
        )
        return report

    @pytest.mark.parametrize("work_stealing", [False, True])
    def test_arq_with_nothing_to_check_is_the_flag_handoff(
        self, sim16, work_stealing
    ):
        flag = self.run(sim16, work_stealing)
        arq = self.run(
            sim16, work_stealing, resilience=ResilienceConfig(checksums=False)
        )
        assert flag.elapsed == self.PINNED[work_stealing][0]
        assert (flag.messages, flag.bytes_sent) == (44, 35360)
        assert arq.elapsed == flag.elapsed
        assert (arq.messages, arq.bytes_sent) == (44, 35360)
        # (stall differs by design: ARQ producers wait out their last
        # acknowledgements, flag producers leave that to the closer)
        for phase in ("generate", "search+accum"):
            np.testing.assert_array_equal(
                arq.ledger.per_locale(phase), flag.ledger.per_locale(phase)
            )
        assert "resilient" not in flag.extras
        assert arq.extras["resilient"] == 1.0

    @pytest.mark.parametrize("work_stealing", [False, True])
    def test_checksums_cost_what_they_cost_at_the_parent(
        self, sim16, work_stealing
    ):
        arq = self.run(sim16, work_stealing, resilience=ResilienceConfig())
        assert arq.elapsed == self.PINNED[work_stealing][1]
        assert (arq.messages, arq.bytes_sent) == (44, 35360)


class TestHandoffSelection:
    @pytest.fixture
    def ran(self, monkeypatch):
        """Names of the hand-off classes whose pipelines ran."""
        names = []
        for cls in (matvec_pc._FlagPipeline, matvec_pc._ArqPipeline):
            original = cls.run

            def run(self, original=original):
                names.append(type(self).__name__)
                return original(self)

            monkeypatch.setattr(cls, "run", run)
        return names

    @pytest.mark.parametrize(
        "backend, protection, expected",
        [
            ("sim", {}, "_FlagPipeline"),
            ("threads", {}, "_FlagPipeline"),
            ("sim", dict(resilience=ResilienceConfig()), "_ArqPipeline"),
            ("threads", dict(resilience=ResilienceConfig()), "_FlagPipeline"),
            ("sim", dict(faults=FaultPlan(seed=1)), "_ArqPipeline"),
            ("threads", dict(faults=FaultPlan(seed=1)), "_ArqPipeline"),
            (
                "threads",
                dict(faults=FaultPlan(seed=1), resilience=ResilienceConfig()),
                "_ArqPipeline",
            ),
        ],
    )
    def test_follows_from_what_can_go_wrong(
        self, ran, backend, protection, expected
    ):
        _, dbasis, expr = build(backend, n=12, n_locales=2)
        x = DistributedVector.full_random(dbasis, seed=7)
        tele = Telemetry.enabled()
        with telemetry.use(tele):
            dop = DistributedOperator(
                expr, dbasis, method="pc", batch_size=64, plan=False,
                **protection,
            )
            dop.matvec(x)
        assert ran == [expected]
        assert ("resilient" in dop.last_report.extras) == bool(protection)
        if expected == "_FlagPipeline":
            snapshot = tele.metrics.snapshot()
            assert not [
                name for name, _ in snapshot.counters
                if name.startswith(("recovery.", "fault."))
            ]


class TestAgreesWithTheSerialOperator:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("work_stealing", [False, True])
    @pytest.mark.parametrize("protection", ["none", "bare", "chaos"])
    @pytest.mark.parametrize("backend", ["sim", "threads"])
    def test_or_raises_a_typed_fault(
        self, backend, protection, work_stealing, k, rng
    ):
        serial, dbasis, expr = build(backend, n=12, n_locales=3)
        shape = (serial.dim,) if k == 1 else (serial.dim, k)
        x = rng.standard_normal(shape)
        reference = repro.Operator(expr, serial).matvec(x)
        kwargs = {
            "none": {},
            "bare": dict(resilience=ResilienceConfig()),
            "chaos": dict(
                faults=FaultPlan(**CHAOS),
                resilience=ResilienceConfig(
                    ack_timeout=0.05 if backend == "sim" else 0.005
                ),
            ),
        }[protection]
        dx = DistributedVector.from_serial(dbasis, serial, x)
        try:
            y, _ = matvec_producer_consumer(
                compile_expression(expr, 12), dbasis, dx,
                batch_size=64, buffer_capacity=16,
                work_stealing=work_stealing, **kwargs,
            )
        except FaultError:
            assert protection == "chaos"
            return
        np.testing.assert_allclose(y.to_serial(serial), reference, atol=1e-12)


class TestStaleDuplicateNeverPassesForTheNextPayload:
    """A duplicated delivery popped late — after its payload was consumed
    and acknowledged and the producer has loaded the next one, but before
    that one is on the wire — must be discarded as a duplicate.  The seq,
    the checksum and the wire fields are therefore published in one step
    (on ``threads`` a consumer can run at any point in between)."""

    @pytest.mark.parametrize("checksums", [True, False])
    def test_discarded_and_reacknowledged(self, checksums):
        _, dbasis, expr = build("threads", n=12, n_locales=2)
        x = DistributedVector.full_random(dbasis, seed=7)
        y = DistributedVector.zeros(dbasis)
        faults = FaultPlan(seed=1)
        resilience = ResilienceConfig(checksums=checksums)
        compiled = compile_expression(expr, 12)
        y, report, metrics, trace = begin_matvec(compiled, dbasis, x, y, 64)
        ex = get_executor(dbasis.cluster, faults=faults, resilience=resilience)
        pipe = matvec_pc._ArqPipeline(
            ex, report, metrics, trace, compiled, dbasis, x, y, 64, 0.25, 16,
            False, None, None, None, faults, resilience,
        )

        def drive(gen):
            """Run a hand-off generator to its end, outside the executor."""
            try:
                while True:
                    next(gen)
            except StopIteration as stop:
                return stop.value

        rb = pipe.buffers(0, 0)[1]
        states = dbasis.parts[1][:3]
        first = (states, np.array([1.0, 2.0, 3.0]), None)
        second = (states, np.array([10.0, 20.0, 30.0]), None)
        # The consumer multiplies each value by its row's norm.
        once = first[1] * dbasis.norms[1][:3]
        twice = once + second[1] * dbasis.norms[1][:3]
        acct = {"generate": 0.0, "stall": 0.0, "search+accum": 0.0}

        drive(pipe.deliver(rb, first, acct))
        seq, dt = drive(pipe.accept(rb, acct))
        assert (seq, dt is not None) == (1, True)
        np.testing.assert_array_equal(y.parts[1][:3], once)
        pipe.release(rb, seq)
        assert rb.acked_seq == 1

        # The producer loads the next payload; its transmission has not
        # reached the wire when the stale duplicate of seq 1 is popped.
        sending = pipe.deliver(rb, second, acct)
        seq, dt = drive(pipe.accept(rb, acct))
        assert (seq, dt) == (1, None)
        np.testing.assert_array_equal(y.parts[1][:3], once)

        drive(sending)
        seq, dt = drive(pipe.accept(rb, acct))
        assert (seq, dt is not None) == (2, True)
        np.testing.assert_array_equal(y.parts[1][:3], twice)
