"""``state_info``, ``basis.index`` and what sits on them still return, to
the last bit, what the recording says (``tests/kernel_snapshot.py`` says
what is recorded and at which commit to re-record)."""

import json

import kernel_snapshot


def test_recording_covers_the_cases():
    recorded = json.loads(kernel_snapshot.RECORDING.read_text())
    assert set(recorded) == set(kernel_snapshot.CASES)


def test_cases_equal_the_recording():
    assert kernel_snapshot.mismatches() == []
