"""A candidate's derived fields (its catalog index, static cost and
benefit totals and terminal flag) equal its spec's wherever the instance
comes from: a random spec, a set generated from a shipped catalog, an
engine's adaptation, a copy, a pickle or ``_replace``."""
import copy
import dataclasses
import json
import pickle

import pytest
from hypothesis import given, strategies as st

from react_irs.engine import AdaptationConfig, Engine, Failure
from react_irs.files import data_dir, load_catalog, load_scenario
from react_irs.model import CandidateInstance, CostVector, ImpactVector, IntrusionResult
from react_irs.responses import generate_candidates
from react_irs.selection import ALGORITHMS, make_selector
from _support import LEVELS, make_event, make_response, replay

CATALOGS = sorted(path.name for path in data_dir().glob("catalog_*.json"))

levels = st.sampled_from(LEVELS)
weights = st.floats(min_value=0.0, max_value=1e6).map(abs)
impact_vectors = st.builds(ImpactVector, levels, levels, levels, levels,
                           weights, weights, weights, weights)
specs = st.builds(
    lambda index, cost, benefit, original, terminal: dataclasses.replace(
        make_response(index), cost=cost, benefit=benefit, original_benefit=original,
        terminal=terminal,
    ),
    st.integers(0, 10**6),
    st.builds(CostVector, levels, levels, weights, weights),
    impact_vectors,
    impact_vectors,
    st.booleans(),
)
targets = st.text(max_size=4)


def assert_derived(cand):
    spec = cand.response
    derived = (spec.index, spec.cost.total, spec.benefit.total, spec.terminal)
    assert type(cand) is CandidateInstance
    assert cand[2:] == (cand.response_index, cand.cost, cand.benefit, cand.terminal) == derived


@given(specs, targets)
def test_fields_equal_the_specs(spec, target):
    cand = CandidateInstance(spec, target)
    assert cand[:2] == (spec, target)
    assert_derived(cand)


@given(specs, targets, specs, targets)
def test_copies_and_replacements_derive_the_fields_again(spec, target, other, other_target):
    cand = CandidateInstance(spec, target)
    for again in (copy.copy(cand), copy.deepcopy(cand), pickle.loads(pickle.dumps(cand))):
        assert again == cand
        assert_derived(again)
    replaced = cand._replace(response=other)
    assert replaced == CandidateInstance(other, target)
    assert_derived(replaced)
    moved = cand._replace(target_asset=other_target)
    assert moved == CandidateInstance(spec, other_target)
    assert_derived(moved)
    made = CandidateInstance._make(iter(cand))
    assert made == cand
    assert_derived(made)


def test_make_rejects_fields_that_disagree_with_the_spec():
    cand = CandidateInstance(make_response(5, a=10), "a")
    with pytest.raises(ValueError, match="disagree"):
        CandidateInstance._make((*cand[:2], 0, 0.0, 0.0, True))


@pytest.mark.parametrize("name", ["response_index", "cost", "benefit", "terminal", "spec"])
def test_replace_rejects_a_derived_or_unknown_field(name):
    with pytest.raises(ValueError, match=name):
        CandidateInstance(make_response(1), "a")._replace(**{name: 0})


@pytest.mark.parametrize("catalog", CATALOGS)
def test_every_generated_set_of_a_shipped_catalog(data, catalog):
    doc = json.loads((data / "architecture.json").read_text(encoding="utf-8"))
    assets = [asset["id"] for asset in doc["assets"]]
    responses = load_catalog(data / catalog).responses
    for result in IntrusionResult:
        for infected in assets:
            for affected in assets:
                event = make_event(infected=infected, affected=affected, result=result)
                for cand in generate_candidates(event, responses):
                    assert_derived(cand)


SCENARIOS = {name: load_scenario(data_dir() / f"{name}.json")
             for name in ("scenario1", "scenario2")}


@given(st.sampled_from(ALGORITHMS), st.sampled_from(sorted(SCENARIOS)), st.integers(0, 6),
       st.integers(0, 2**32))
def test_instances_adapted_after_failure_and_success(algorithm, name, failures, seed):
    """``failures`` failures, then a success, on a scenario's dynamic run:
    every instance the engine applied or adapted, and every one of its
    current set."""
    scenario = SCENARIOS[name]
    catalog = load_catalog(scenario.catalog_path("dynamic-fail", algorithm)).responses
    engine = Engine(catalog, make_selector(algorithm), AdaptationConfig(rng_seed=seed))
    event = scenario.event()
    applied = []
    script = replay([Failure()] * failures)
    engine.run(event, lambda iteration, cand: applied.append(cand) or script(iteration, cand))
    assert len(engine._adapted) >= 1
    for cand in [*applied, *engine._adapted.values(), *engine._candidates_for(event)]:
        assert_derived(cand)
