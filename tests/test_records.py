"""The records the decision loop builds per candidate, ranking step,
attempt, iteration and emitted row: immutable, hashable tuples with a
fixed field order and defaults."""
import dataclasses
import random

import pytest

from react_irs.engine import Attempt, IterationRecord, inner_loop
from react_irs.harness import SelectionRow
from react_irs.model import CandidateInstance
from react_irs.risk import event_impact
from react_irs.selection import ALGORITHMS, SAW_FOREST_MIN, SelectionOutcome, make_selector
from _support import level_grid_set, make_event, make_response

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


# The rankers and the inner loop build their records with ``tuple.__new__``,
# which skips the NamedTuple's arity check, so full drains check what they
# build: at the SAW scan's size and the forest's, each under the default
# event and under an impact of 0, where no LP candidate is feasible (the
# ranking ends at the terminal fallback) and the SAW bound is 0 (every step
# is the fallback).  The forest's fallback under a positive bound needs a
# set where no preference is below it; the rescan tests in
# ``test_selection_oracle.py`` meet it.
DRAIN_SETS = {
    "scan": (20, make_event()),
    "forest": (SAW_FOREST_MIN, make_event()),
    "scan-nothing-feasible": (20, make_event(s=0, o=0, w_e=0.0)),
    "forest-nothing-feasible": (SAW_FOREST_MIN, make_event(s=0, o=0, w_e=0.0)),
}


@pytest.mark.parametrize("name", DRAIN_SETS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_drains_build_full_records(algorithm, name):
    n, event = DRAIN_SETS[name]
    candidates = level_grid_set(random.Random(n), n)
    assert (len(candidates) >= SAW_FOREST_MIN) == name.startswith("forest")
    selector = make_selector(algorithm)
    head = selector(candidates, event_impact(event), event)
    outcomes = [head, *head.rest]
    if name.endswith("nothing-feasible"):
        assert all(o.fallback for o in outcomes)
    for outcome in outcomes:
        assert type(outcome) is SelectionOutcome
        assert len(outcome) == len(SelectionOutcome._fields)
        assert outcome == SelectionOutcome(*outcome)
    for outcome in outcomes[1:]:
        assert outcome.rest is SelectionOutcome._field_defaults["rest"]

    _, attempts = inner_loop(
        event, candidates, selector, event.vehicle.facts, precondition_policy=lambda cand: False
    )
    assert len(attempts) == len(outcomes)
    for attempt in attempts:
        assert type(attempt) is Attempt
        assert len(attempt) == len(Attempt._fields)
        assert attempt == Attempt(*attempt)
