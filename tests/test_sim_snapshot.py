"""The sim backend still does, to the last bit, what the recording says.

The whole grid, as ``python tests/sim_snapshot.py --check`` runs it (see
that module for what is recorded and how to diff a mismatch).  A warm product replays the record of a simulation the
product that completed the plan ran out of sight
(``DistributedOperator._record``): the grid's second products and the
``lanczos/*`` runs replay it, and
:func:`test_a_replay_is_the_product_it_replays` holds a replay equal to
the product it recorded.
"""

import json

import numpy as np
import pytest

import repro
import repro.distributed.operator as operator_module
import sim_snapshot
from repro import telemetry
from repro.distributed import DistributedOperator, DistributedVector
from repro.runtime.events import Simulator
from repro.telemetry import Telemetry


def test_recording_covers_the_grid():
    recorded = json.loads(sim_snapshot.RECORDING.read_text())
    assert set(recorded) == set(sim_snapshot.NAMES)


def test_grid_equals_the_recording():
    assert len(sim_snapshot.NAMES) == 60
    assert sim_snapshot.mismatches() == []


#: every method, shape and block width of the grid with a plan
REPLAYED = [
    name for name in sim_snapshot.NAMES
    if name.split("/")[0] in sim_snapshot.METHODS
    and name.split("/")[2] == "plan"
]


def _products(op, x, count):
    """``count`` products of ``op``, each under fresh telemetry whose trace
    starts at a nonzero offset: ``(report, metric lines, trace, offset),
    y``."""
    products = []
    for _ in range(count):
        tele = Telemetry.enabled()
        tele.trace.offset = 0.125  # the events land relative to it
        with telemetry.use(tele):
            y = op.matvec(x)
        products.append(
            (
                (
                    sim_snapshot._report_lines(op.last_report),
                    sim_snapshot._metric_lines(tele.metrics.snapshot()),
                    tele.trace.to_chrome(),
                    tele.trace.offset,
                ),
                np.concatenate(y.parts),
            )
        )
    return products


@pytest.mark.parametrize("name", REPLAYED)
def test_a_replay_is_the_product_it_replays(name, monkeypatch, plan_budget):
    """The first product records, out of sight, a simulation of the second;
    products 2 and 3 replay it.  Each equals product 2 of an operator whose
    plan cannot hold the matrices, so that simulates: the same report to
    the last bit, the same metric updates and the same trace events from
    the same offset, and ``y`` to 1e-14 relative (the replayed matrix
    holds each element times its destination norm, the simulated
    consumer multiplies the norm in after ``x``); the two replays' ``y``
    to the last bit — and neither replay ran a schedule or spawned a
    process."""
    method, shape, _, k, _ = name.split("/")
    n_sites, _, batch_size, pipeline_options = sim_snapshot.SHAPES[shape]
    options = dict(batch_size=batch_size)
    if method == "pc":
        options.update(pipeline_options)
    basis = sim_snapshot._basis(shape)
    expression = repro.heisenberg_chain(n_sites)
    op = DistributedOperator(expression, basis, method=method, **options)
    x = DistributedVector.full_random(
        basis, seed=7, columns=None if k == "k1" else int(k[1:])
    )
    spawned, scheduled = [], []
    spawn, impl = Simulator.spawn, operator_module.IMPLS[method]
    monkeypatch.setattr(
        Simulator, "spawn",
        lambda *args, **kwargs: spawned.append(1) or spawn(*args, **kwargs),
    )
    monkeypatch.setitem(
        operator_module.IMPLS, method,
        lambda *args, **kwargs: scheduled.append(1) or impl(*args, **kwargs),
    )
    op.matvec(x)
    counts = (len(scheduled), len(spawned))
    replayed = _products(op, x, 2)
    assert counts[0] == 2 and (len(scheduled), len(spawned)) == counts

    with plan_budget(op.plan.nbytes - 8):  # no matrices
        simulating = DistributedOperator(expression, basis, method=method, **options)
    simulated, y = _products(simulating, x, 2)[1]
    assert len(scheduled) == 4
    assert [record for record, _ in replayed] == [simulated, simulated]
    np.testing.assert_array_equal(replayed[0][1], replayed[1][1])
    assert np.linalg.norm(replayed[0][1] - y) <= 1e-14 * np.linalg.norm(y)
    assert simulated[1] and len(simulated[2]["traceEvents"]) > 1
