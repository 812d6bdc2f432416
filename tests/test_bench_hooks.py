"""The benchmark's tracer patches package names from outside; a rename or
deletion of one of them must fail here, not only in a traced benchmark run."""
import sys
from pathlib import Path

import react_irs.engine as engine
import react_irs.files as files
import react_irs.harness as harness
import react_irs.responses as responses
import react_irs.selection as selection
from react_irs.preconditions import Precondition

BENCH = Path(__file__).resolve().parent.parent / "bench"
OWNERS = (engine, files, harness, responses, selection, Precondition, engine.Engine)


def _load_tracer():
    sys.path.insert(0, str(BENCH))
    try:
        from tracing import Tracer
    finally:
        sys.path.remove(str(BENCH))
    return Tracer


def test_tracer_installs_and_restores_every_patched_name():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = _load_tracer()()
    tracer.install()
    try:
        changed = {
            (owner.__name__, attr)
            for owner, snapshot in zip(OWNERS, before)
            for attr, value in vars(owner).items()
            if snapshot.get(attr) is not value
        }
    finally:
        tracer.uninstall()
    assert ("react_irs.selection", "make_selector") in changed
    assert ("react_irs.harness", "event_impact") in changed
    assert ("react_irs.engine", "adapt_on_success") in changed
    for owner, snapshot in zip(OWNERS, before):
        current = vars(owner)
        assert current.keys() == snapshot.keys(), owner.__name__
        assert all(current[attr] is value for attr, value in snapshot.items()), owner.__name__
