"""Each input rule is stated once, and every place that applies it accepts
and rejects alike: a fact map through the scenario loader (facts and
effects), ``Engine(effects=...)``, ``VehicleState`` and
``engine.inner_loop``; a flag through ``check_facts``, the catalog loader
and ``ResponseSpec``; a weight through the loader and the model; a
velocity through ``environment_from_velocity``, ``VehicleState``,
``Scenario.event``, the loader and the CLI, on the band too; a catalog
entry's index, place and applies rule through the loader and
``ResponseSpec``; the terminal entry through the catalog loader,
``CatalogResponses`` and ``Engine``; the type of each part of an event
or a catalog entry where it is built, directly or through
``dataclasses.replace``, and of the event an engine decides on; that an
event's facts cannot change after it is built, through ``VehicleState``,
the loader and ``Scenario.event``.  The loader adds the JSON path in
front of the model's message."""
import copy
import dataclasses
import json
import math
import pickle

import pytest

from react_irs.cli import main
from react_irs.engine import Engine, inner_loop
from react_irs.files import SchemaError, parse_catalog, parse_scenario
from react_irs.model import (
    DomainError,
    EnvironmentTerm,
    IntrusionEvent,
    IntrusionResult,
    Place,
    ResponseSpec,
    VehicleState,
    check_facts,
    check_flag,
    environment_from_velocity,
)
from react_irs.responses import CatalogError, CatalogResponses, generate_candidates
from react_irs.selection import compute_impact_alphas, make_selector
from _support import CliRunner, make_event, make_response, replay

RULE = "not a fact name ([a-z_][a-z0-9_]*, not true or false)"
NOT_A_MAP = ": expected a mapping of facts to flags, got "

#: (facts, the message after the path or None if accepted, the loader's
#: message after the path where it differs: it names a JSON object).
FACT_MAPS = [
    pytest.param(["x"], NOT_A_MAP + "['x']", ": expected a JSON object, got ['x']", id="list"),
    pytest.param(None, NOT_A_MAP + "None", ": expected a JSON object, got None", id="none"),
    pytest.param("no", NOT_A_MAP + "'no'", ": expected a JSON object, got 'no'", id="string"),
    pytest.param({"redundant_source_available": "no"},
                 ".redundant_source_available: expected true or false, got 'no'", None,
                 id="string-flag"),
    pytest.param({"driving": 1}, ".driving: expected true or false, got 1", None, id="int-flag"),
    pytest.param({"driving": None}, ".driving: expected true or false, got None", None,
                 id="none-flag"),
    pytest.param({"Driving": True}, f".Driving: {RULE}", None, id="capital-name"),
    pytest.param({"true": True}, f".true: {RULE}", None, id="literal-name"),
    pytest.param({5: True}, f".5: {RULE}", None, id="int-name"),
    pytest.param({"driving": True, "update_available": False}, None, None, id="valid"),
]


def _scenario_doc(data, **changes):
    doc = json.loads((data / "scenario1.json").read_text(encoding="utf-8"))
    return {**doc, **changes}


def _message(raises, call):
    """The message ``call`` raises as ``raises``, or None if it returns."""
    try:
        call()
    except raises as exc:
        return str(exc)
    return None


def _with(path, suffix):
    return None if suffix is None else path + suffix


@pytest.mark.parametrize("facts,suffix,loader_suffix", FACT_MAPS)
class TestFactMaps:
    def test_scenario_facts(self, data, facts, suffix, loader_suffix):
        doc = _scenario_doc(data, facts=facts)
        got = _message(SchemaError, lambda: parse_scenario(doc))
        assert got == _with("scenario.facts", loader_suffix or suffix)

    def test_scenario_effects(self, data, facts, suffix, loader_suffix):
        doc = _scenario_doc(data, effects={"17": facts})
        got = _message(SchemaError, lambda: parse_scenario(doc))
        assert got == _with("scenario.effects.17", loader_suffix or suffix)

    def test_engine_effects(self, facts, suffix, loader_suffix):
        catalog = [make_response(17), make_response(31, terminal=True)]
        selector = make_selector("lp-max")
        got = _message(DomainError, lambda: Engine(catalog, selector, effects={17: facts}))
        assert got == _with("effects[17]", suffix)

    def test_vehicle_state(self, facts, suffix, loader_suffix):
        got = _message(DomainError, lambda: VehicleState(70.0, facts))
        assert got == _with("facts", suffix)

    def test_the_rule_itself(self, facts, suffix, loader_suffix):
        got = _message(DomainError, lambda: check_facts(facts, "here"))
        assert got == _with("here", suffix)


def test_accepted_facts_are_kept_as_given(data):
    """Nothing coerces or filters a fact map it accepts."""
    facts = {"driving": True, "update_available": False}
    kept = VehicleState(70.0, facts).facts
    assert kept == facts and kept is not facts
    with pytest.raises(TypeError):
        kept["driving"] = False
    scenario = parse_scenario(_scenario_doc(data, facts=facts, effects={"17": facts}))
    assert scenario.initial_event.vehicle.facts == facts
    assert scenario.effects == {17: facts}
    engine = Engine([make_response(17), make_response(31, terminal=True)],
                    make_selector("lp-max"), effects={17: facts})
    assert engine._effects == {17: facts}


WEIGHTS = [
    pytest.param(-3.0, id="negative"),
    pytest.param(-0.0, id="negative-zero"),
    pytest.param("x", id="string"),
    pytest.param(True, id="bool"),
    pytest.param(math.inf, id="inf"),
    pytest.param(math.nan, id="nan"),
    pytest.param(10**400, id="huge-int"),
]


@pytest.mark.parametrize("value", WEIGHTS)
def test_a_weight_is_rejected_alike(data, value):
    suffix = f" must be a finite non-negative number, got {value!r}"
    doc = _scenario_doc(data, velocity_kmh=value)
    assert _message(SchemaError, lambda: parse_scenario(doc)) == "scenario.velocity_kmh" + suffix
    assert _message(DomainError, lambda: VehicleState(value)) == "velocity_kmh" + suffix
    doc = _scenario_doc(data, environment_weight=value)
    assert (_message(SchemaError, lambda: parse_scenario(doc))
            == "scenario.environment_weight" + suffix)
    assert _message(DomainError, lambda: EnvironmentTerm(1, value)) == "w_e" + suffix


def test_an_omitted_vector_weight_is_one_everywhere(data):
    """Every vector the loader reads, an entry's ``cost`` and ``benefit`` and a
    scenario's ``impact_params``, weighs each level it gives no weight 1.0."""
    spec = parse_catalog(_catalog_doc(1)).responses[0]
    doc = _scenario_doc(data, impact_params={"s": 100, "f": 0, "o": 100, "p": 0})
    params = parse_scenario(doc).initial_event.impact_params
    weights = (spec.cost.w_a, spec.cost.w_perf, *spec.benefit.weights(), *params.weights())
    assert [(w, type(w)) for w in weights] == [(1.0, float)] * 10


#: Values that are no part of an event or a catalog entry: nothing, and a
#: dict that names fields, as a JSON object would.
PART_VALUES = [pytest.param(None, id="none"), pytest.param({"s": 10}, id="dict")]


def _init_fields(value):
    """The fields ``value``'s constructor takes, by name."""
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value) if f.init}


class TestEventFields:
    """An event's own fields are checked where it is built, never coerced."""

    @pytest.mark.parametrize("result", ["bogus", 5, None, "falsify_alter_behavior"])
    def test_a_result_must_be_an_intrusion_result(self, scenario1, result):
        with pytest.raises(DomainError, match=r"^result must be an IntrusionResult, got "):
            dataclasses.replace(scenario1.event(), result=result)

    def test_every_result_is_accepted(self, scenario1):
        for result in IntrusionResult:
            assert dataclasses.replace(scenario1.event(), result=result).result is result

    @pytest.mark.parametrize("name,kind", [
        ("impact_params", "an ImpactVector"), ("env", "an EnvironmentTerm"),
        ("vehicle", "a VehicleState"),
    ])
    @pytest.mark.parametrize("value", PART_VALUES)
    def test_each_part_must_have_its_type(self, scenario1, name, kind, value):
        message = f"{name} must be {kind}, got {value!r}"
        event = scenario1.event()
        assert _message(DomainError, lambda: IntrusionEvent(
            **{**_init_fields(event), name: value})) == message
        assert _message(DomainError, lambda: dataclasses.replace(event, **{name: value})) == message

    @pytest.mark.parametrize("value", [*PART_VALUES, pytest.param("x", id="str")])
    def test_an_engine_decides_only_on_an_event(self, value):
        engine = Engine([make_response(31, terminal=True)], make_selector("lp-max"))
        message = f"event: expected an IntrusionEvent, got {value!r}"
        assert _message(DomainError, lambda: engine.decide(value)) == message
        assert _message(DomainError, lambda: engine.run(value, replay([]))) == message


TERMINAL_COUNTS = [0, 1, 2]


def _catalog_doc(terminals):
    def entry(index, **fields):
        return {"index": index, "action": f"action {index}", "general": True,
                "cost": {"a": 1, "perf": 1}, "benefit": {"s": 10, "f": 0, "o": 0, "p": 0},
                **fields}
    responses = [entry(5)] + [entry(31 + i, terminal=True) for i in range(terminals)]
    return {"schema_version": 1, "kind": "catalog", "name": "terminals", "responses": responses}


def _catalog_specs(terminals):
    return [make_response(5, s=10, a=1)] + [
        make_response(31 + i, terminal=True) for i in range(terminals)
    ]


@pytest.mark.parametrize("terminals", TERMINAL_COUNTS)
class TestTerminalEntry:
    """A catalog has exactly one terminal entry, however it is built."""

    def test_parse_catalog(self, terminals):
        doc = _catalog_doc(terminals)
        if terminals == 1:
            responses = parse_catalog(doc).responses
            assert responses.terminal is responses[-1] and responses.terminal.index == 31
        else:
            with pytest.raises(SchemaError) as info:
                parse_catalog(doc)
            assert str(info.value) == (
                f"catalog: needs exactly one terminal entry, found {terminals}"
            )

    def test_catalog_responses(self, terminals):
        specs = _catalog_specs(terminals)
        if terminals == 1:
            assert CatalogResponses(specs).terminal is specs[-1]
        else:
            with pytest.raises(CatalogError) as info:
                CatalogResponses(specs)
            assert str(info.value) == f"needs exactly one terminal entry, found {terminals}"

    def test_engine(self, terminals):
        specs = _catalog_specs(terminals)
        if terminals == 1:
            engine = Engine(specs, make_selector("lp-max"))
            chosen = engine.decide(make_event(), lambda cand: False)[0]
            assert chosen.response is specs[-1]
        else:
            with pytest.raises(CatalogError) as info:
                Engine(specs, make_selector("lp-max"))
            assert str(info.value) == f"needs exactly one terminal entry, found {terminals}"


def _flag_message(value, what):
    """The flag rule's message for ``value`` at ``what``, or None if accepted."""
    return None if type(value) is bool else f"{what}: expected true or false, got {value!r}"


def _entry_doc(**fields):
    """A catalog of entry 5, with ``fields`` over its defaults, and a terminal entry."""
    doc = _catalog_doc(1)
    doc["responses"][0].update(fields)
    return doc


BEHAVIOR = IntrusionResult.FALSIFY_ALTER_BEHAVIOR


@pytest.mark.parametrize("value", ["no", 1, 0, None, True, False])
class TestFlags:
    """One flag rule, ``model.check_flag``: a ``bool``, nothing truthy or falsy."""

    def test_the_rule_itself(self, value):
        assert _message(DomainError, lambda: check_flag(value, "here")) == _flag_message(
            value, "here")
        if type(value) is bool:
            assert check_flag(value, "here") is value

    def test_check_facts(self, value):
        got = _message(DomainError, lambda: check_facts({"driving": value}, "facts"))
        assert got == _flag_message(value, "facts.driving")

    def test_loader_general(self, value):
        doc = _entry_doc(general=value, applies_to=[BEHAVIOR.value])
        got = _message(SchemaError, lambda: parse_catalog(doc))
        assert got == _flag_message(value, "catalog.responses[0]: general")
        if got is None:
            assert parse_catalog(doc).responses[0].is_general is value

    def test_loader_terminal(self, value):
        doc = _entry_doc(terminal=value)
        got = _message(SchemaError, lambda: parse_catalog(doc))
        if value is True:  # a flag the rule accepts; a second terminal entry is the catalog's
            assert got == "catalog: needs exactly one terminal entry, found 2"
        else:
            assert got == _flag_message(value, "catalog.responses[0]: terminal")
        if got is None:
            assert parse_catalog(doc).responses[0].terminal is value

    def test_response_spec(self, value):
        applicable = frozenset({BEHAVIOR})
        got = _message(DomainError, lambda: make_response(
            5, is_general=value, applicable=applicable))
        assert got == _flag_message(value, "general")
        got = _message(DomainError, lambda: make_response(5, terminal=value))
        assert got == _flag_message(value, "terminal")
        spec = make_response(5)
        got = _message(DomainError, lambda: dataclasses.replace(spec, terminal=value))
        assert got == _flag_message(value, "terminal")


VELOCITY = " must be a finite non-negative number, got "
BAD_VELOCITIES = [
    pytest.param(-0.0, id="negative-zero"),
    pytest.param(-1, id="negative"),
    pytest.param(10**400, id="huge-int"),
    pytest.param(math.nan, id="nan"),
    pytest.param(math.inf, id="inf"),
    pytest.param(-math.inf, id="minus-inf"),
    pytest.param(True, id="bool"),
    pytest.param("fast", id="string"),
]
#: (velocity, its environment level E).
GOOD_VELOCITIES = [(0, 0), (29.999, 0), (30, 1), (75, 100), (1e308, 100)]


def _sweep(runner, velocities):
    return runner.invoke(main, [
        "run", "--scenario", "scenario2", "--algo", "lp-max", "--mode", "velocity-sweep",
        "--velocities", velocities, "--format", "jsonl", "--no-timings",
    ])


class TestVelocities:
    """One velocity rule, ``model.check_weight``, then one set of bands."""

    @pytest.mark.parametrize("velocity", BAD_VELOCITIES)
    def test_rejected_alike(self, data, velocity):
        assert (_message(DomainError, lambda: environment_from_velocity(velocity))
                == f"velocity{VELOCITY}{velocity!r}")
        assert (_message(DomainError, lambda: VehicleState(velocity))
                == f"velocity_kmh{VELOCITY}{velocity!r}")
        assert (_message(DomainError, lambda: parse_scenario(_scenario_doc(data)).event(velocity))
                == f"velocity{VELOCITY}{velocity!r}")
        doc = _scenario_doc(data, velocity_kmh=velocity)
        assert (_message(SchemaError, lambda: parse_scenario(doc))
                == f"scenario.velocity_kmh{VELOCITY}{velocity!r}")
        result = _sweep(CliRunner(), str(velocity))
        assert result.exit_code == 2, result.output
        assert result.stdout == ""

    @pytest.mark.parametrize("velocity,level", GOOD_VELOCITIES)
    def test_accepted_alike_on_one_band(self, data, velocity, level):
        assert environment_from_velocity(velocity) == level
        event = dataclasses.replace(make_event(), vehicle=VehicleState(velocity))
        assert compute_impact_alphas(event)[4] == (1.0 if level else 0.0)
        doc = _scenario_doc(data, velocity_kmh=velocity, environment_weight=1.0)
        assert compute_impact_alphas(parse_scenario(doc).event())[4] == (1.0 if level else 0.0)
        result = _sweep(CliRunner(), str(velocity))
        assert result.exit_code == 0, result.stderr
        (row,) = [json.loads(line) for line in result.stdout.splitlines()]
        assert row["impact"] == 120.0 + level  # scenario2: static levels 120, w_E 1

    @pytest.mark.parametrize("velocity,level", GOOD_VELOCITIES)
    def test_a_zero_environment_weight_has_no_alpha_on_any_band(self, data, velocity, level):
        event = make_event(velocity=velocity, w_e=0.0)
        assert event.env.e == level and compute_impact_alphas(event)[4] == 0.0
        doc = _scenario_doc(data, velocity_kmh=velocity, environment_weight=0.0)
        assert compute_impact_alphas(parse_scenario(doc).event())[4] == 0.0


ENTRY_INDICES = [pytest.param("6", id="str"), pytest.param(True, id="bool"),
                 pytest.param(6.0, id="float")]


class TestEntries:
    """A catalog entry checks itself: an ``int`` index, a ``Place``, and
    ``general`` or some ``applies_to``, however it is built."""

    @pytest.mark.parametrize("index", ENTRY_INDICES)
    def test_index(self, index):
        got = _message(SchemaError, lambda: parse_catalog(_entry_doc(index=index)))
        assert got == f"catalog.responses[0]: index: expected an integer, got {index!r}"
        message = f"index: expected an integer, got {index!r}"
        assert _message(DomainError, lambda: make_response(index)) == message
        spec = make_response(5)
        assert _message(DomainError, lambda: dataclasses.replace(spec, index=index)) == message

    def test_applies_rule(self):
        doc = _entry_doc(general=False)
        assert (_message(SchemaError, lambda: parse_catalog(doc))
                == "catalog.responses[0]: needs applies_to entries or general=true")
        message = "needs applies_to entries or general=true"
        assert _message(DomainError, lambda: make_response(5, is_general=False)) == message
        spec = make_response(5, is_general=False, applicable=frozenset({BEHAVIOR}))
        empty = frozenset()
        got = _message(DomainError, lambda: dataclasses.replace(spec, applicable_results=empty))
        assert got == message

    def test_place(self):
        """The loader spells a place as its JSON string and builds the enum;
        code must pass the enum, so a spec cannot be placed on both assets
        by a string that is not ``Place.DESTINATION``."""
        catalog = parse_catalog(_entry_doc(place="destination"))
        assert catalog.responses[0].place is Place.DESTINATION
        message = "place must be a Place, got 'destination'"
        assert _message(DomainError, lambda: make_response(5, place="destination")) == message
        spec = make_response(5)
        got = _message(DomainError, lambda: dataclasses.replace(spec, place="destination"))
        assert got == message
        specs = [make_response(5), make_response(31, terminal=True)]
        targets = [(c.response_index, c.target_asset) for c in generate_candidates(
            make_event(), CatalogResponses(specs))]
        assert targets[0] == (5, "ecu") and (5, "cam") not in targets

    @pytest.mark.parametrize("name,kind", [
        ("precondition", "a Precondition"), ("stop", "a StopCondition"),
        ("cost", "a CostVector"), ("benefit", "an ImpactVector"),
        ("original_benefit", "an ImpactVector"),
    ])
    @pytest.mark.parametrize("value", PART_VALUES)
    def test_each_part_must_have_its_type(self, name, kind, value):
        """A part of another type is rejected where the entry is built, not
        at its first decision."""
        message = f"{name} must be {kind}, got {value!r}"
        spec = make_response(5)
        assert _message(DomainError, lambda: ResponseSpec(
            **{**_init_fields(spec), name: value})) == message
        assert _message(DomainError, lambda: dataclasses.replace(spec, **{name: value})) == message


@pytest.mark.parametrize("facts,message", [
    (["x"], "facts: expected a mapping of facts to flags, got ['x']"),
    ({"driving": "no"}, "facts.driving: expected true or false, got 'no'"),
])
def test_inner_loop_checks_facts_not_the_events_own(facts, message):
    specs = [make_response(5, s=100, precondition="driving"), make_response(31, terminal=True)]
    event = make_event()
    cands = generate_candidates(event, CatalogResponses(specs))
    selector = make_selector("lp-max")
    assert _message(DomainError, lambda: inner_loop(event, cands, selector, facts)) == message
    chosen, _ = inner_loop(event, cands, selector, {"driving": True})
    assert chosen.response_index == 5


def _built_directly(data, facts):
    return make_event(facts=facts)


def _initial_event(data, facts):
    return parse_scenario(_scenario_doc(data, facts=facts)).initial_event


def _scenario_event(data, facts):
    return parse_scenario(_scenario_doc(data, facts=facts)).event()


def _scenario_event_at_50(data, facts):
    return parse_scenario(_scenario_doc(data, facts=facts)).event(velocity_kmh=50.0)


#: Every way an event gets its facts: ``VehicleState``, the loader's
#: ``initial_event``, and ``Scenario.event`` with and without a velocity.
EVENT_BUILDS = [
    pytest.param(_built_directly, id="vehicle-state"),
    pytest.param(_initial_event, id="initial-event"),
    pytest.param(_scenario_event, id="scenario-event"),
    pytest.param(_scenario_event_at_50, id="scenario-event-at-50"),
]


@pytest.mark.parametrize("build", EVENT_BUILDS)
def test_an_events_facts_cannot_change_after_it_is_built(data, build):
    """The facts an event was checked with are the ones it is decided on:
    a write to its own map is refused, a write to the caller's dict does
    not reach it, and a copy keeps them read-only.  Entry 17 reads
    ``driving``, which is false when the event is built; ``"no"`` written
    after would pass its precondition, so only the terminal 31 applies."""
    specs = [make_response(17, s=100, precondition="driving"), make_response(31, terminal=True)]
    given = {"driving": False}
    event = build(data, given)
    with pytest.raises(TypeError):
        event.vehicle.facts["driving"] = "no"
    given["driving"] = "no"
    assert event.vehicle.facts == {"driving": False}
    assert Engine(specs, make_selector("lp-max")).decide(event)[0].response_index == 31
    for duplicate in (copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))):
        vehicle, twin = duplicate(event.vehicle), duplicate(event)
        assert (vehicle, twin) == (event.vehicle, event)
        for facts in (vehicle.facts, twin.vehicle.facts):
            with pytest.raises(TypeError):
                facts["driving"] = True


@pytest.mark.parametrize("velocity", [v for v, _ in GOOD_VELOCITIES])
def test_a_state_at_another_velocity_shares_its_checked_facts(data, velocity):
    """``Scenario.event(v)`` checks only the velocity: the facts were
    checked when the scenario's event was built, and the swept event's
    state shares their read-only copy, which its copies keep read-only."""
    scenario = parse_scenario(_scenario_doc(data))
    state = scenario.initial_event.vehicle
    moved = scenario.event(velocity).vehicle
    assert moved == VehicleState(velocity, dict(state.facts))
    assert type(moved.velocity_kmh) is type(velocity)
    assert moved.facts is state.facts
    for duplicate in (copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))):
        twin = duplicate(moved)
        assert twin == moved
        with pytest.raises(TypeError):
            twin.facts["driving"] = False
