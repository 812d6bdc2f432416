"""The records the decision loop builds per candidate, ranking step,
attempt, iteration and emitted row: immutable, hashable tuples with a
fixed field order and defaults."""
import dataclasses

import pytest

from react_irs.engine import Attempt, IterationRecord
from react_irs.harness import SelectionRow
from react_irs.model import CandidateInstance
from react_irs.selection import SelectionOutcome
from _support import make_response

CANDIDATE = CandidateInstance(make_response(1), "a")
ATTEMPT = Attempt(1, "a", 1.0, 2.0, 3.0, True)
RECORDS = {
    CandidateInstance: CANDIDATE,
    SelectionOutcome: SelectionOutcome(CANDIDATE, 1.0, 1),
    Attempt: ATTEMPT,
    IterationRecord: IterationRecord(1, 50.0, 200.0, 3, (ATTEMPT,), ATTEMPT, "success", None, None, 0.5),
    SelectionRow: SelectionRow(1, 1, "a", 2.0, 3.0, 200.0, 0.5),
}
FIELDS = {
    CandidateInstance: ("response", "target_asset"),
    SelectionOutcome: ("chosen", "score", "feasible_count", "fallback", "rest"),
    Attempt: (
        "response_index", "target_asset", "score", "cost", "benefit",
        "precondition_passed", "selection_time_ms",
    ),
    IterationRecord: (
        "iteration", "velocity_kmh", "impact", "candidate_count", "attempts", "applied",
        "verdict", "adapted_weights", "adapted_levels", "selection_time_ms",
    ),
    SelectionRow: (
        "step", "response_index", "target_asset", "cost", "benefit", "impact",
        "selection_time_ms", "velocity_kmh",
    ),
}
TYPES = list(FIELDS)


@pytest.mark.parametrize("kind", TYPES, ids=lambda kind: kind.__name__)
def test_fields_keep_their_order(kind):
    assert issubclass(kind, tuple) and not dataclasses.is_dataclass(kind)
    assert kind._fields == FIELDS[kind]


@pytest.mark.parametrize("kind", TYPES, ids=lambda kind: kind.__name__)
def test_records_are_immutable_and_hashable(kind):
    record = RECORDS[kind]
    for name in kind._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert hash(record) == hash(kind(*record))


def test_defaults_hold():
    assert ATTEMPT.selection_time_ms == 0.0
    assert RECORDS[SelectionRow].velocity_kmh is None
    outcome = RECORDS[SelectionOutcome]
    assert outcome.fallback is False
    assert list(outcome.rest) == []


def test_equal_candidates_hash_alike():
    spec = make_response(3)
    first, second = CandidateInstance(spec, "a"), CandidateInstance(spec, "a")
    assert first == second and hash(first) == hash(second)
    assert first != CandidateInstance(spec, "b")
