"""The sim backend still does, to the last bit, what the recording says.

The subset tier-1 affords; ``python tests/sim_snapshot.py --check`` runs
the whole grid (see that module for what is recorded and how to diff a
mismatch).
"""

import json

import sim_snapshot


def test_recording_covers_the_grid():
    recorded = json.loads(sim_snapshot.RECORDING.read_text())
    assert set(recorded) == set(sim_snapshot.NAMES)


def test_tier1_subset_equals_the_recording():
    assert len(sim_snapshot.TIER1) >= 100
    assert sim_snapshot.mismatches(sim_snapshot.TIER1) == []
