import copy
import json
import os
import pickle
from dataclasses import replace
from types import MappingProxyType

import pytest

from react_irs.files import (
    SchemaError,
    data_dir,
    load_architecture,
    load_catalog,
    load_scenario,
    parse_architecture,
    parse_catalog,
    parse_scenario,
    resolve_scenario_ref,
    validate_file,
)
from react_irs.harness import run_dynamic
from react_irs.model import EnvironmentTerm, IntrusionResult, StopKind, VehicleState
from react_irs.preconditions import Precondition
from _support import (
    BAD_FILES, BAD_PATHS, by_index, report_rows, write_bad_file, write_scenario,
)

OVERRIDE_KEY = (
    "not <mode>:<algorithm> or <mode>:* (modes: static, dynamic-success, dynamic-fail, "
    "velocity-sweep; algorithms: saw, lp-max, lp-min)"
)
FACT_NAME_RULE = "not a fact name ([a-z_][a-z0-9_]*, not true or false)"


def scenario1_doc(data):
    return json.loads((data / "scenario1.json").read_text())


def minimal_catalog_doc(**overrides):
    doc = {
        "schema_version": 1,
        "kind": "catalog",
        "name": "tiny",
        "responses": [
            {
                "index": 5,
                "action": "change settings",
                "applies_to": ["falsify_alter_behavior"],
                "precondition": "true",
                "place": "destination",
                "stop": {"kind": "persistent"},
                "cost": {"a": 10, "perf": 10, "w_a": 1.0, "w_perf": 1.0},
                "benefit": {"s": 10, "f": 10, "o": 1, "p": 1,
                            "w_s": 1.0, "w_f": 1.0, "w_o": 1.0, "w_p": 1.0},
            },
            {
                "index": 31,
                "action": "no action",
                "general": True,
                "precondition": "true",
                "place": "destination",
                "stop": {"kind": "persistent"},
                "cost": {"a": 0, "perf": 0, "w_a": 1.0, "w_perf": 1.0},
                "benefit": {"s": 0, "f": 0, "o": 0, "p": 0,
                            "w_s": 1.0, "w_f": 1.0, "w_o": 1.0, "w_p": 1.0},
                "terminal": True,
            },
        ],
    }
    doc.update(overrides)
    return doc


def overlay_doc(extends="base.json", **fields):
    return {"schema_version": 1, "kind": "catalog", "name": "overlay",
            "extends": extends, "responses": [], **fields}


class TestArchitecture:
    def test_shipped_assets(self, data):
        assert load_architecture(data / "architecture.json") == frozenset({
            "front_camera", "rear_lidar", "acceleration_control", "brake_control",
            "telematics_unit", "infotainment_gateway", "central_gateway", "powertrain_bus"})

    def test_duplicate_id_rejected(self):
        doc = {
            "schema_version": 1,
            "kind": "architecture",
            "assets": [
                {"id": "x", "name": "X", "kind": "ecu"},
                {"id": "x", "name": "X again", "kind": "bus"},
            ],
        }
        with pytest.raises(SchemaError, match="duplicate"):
            parse_architecture(doc)

    def test_bad_kind_rejected(self):
        doc = {
            "schema_version": 1,
            "kind": "architecture",
            "assets": [{"id": "x", "name": "X", "kind": "toaster"}],
        }
        with pytest.raises(SchemaError):
            parse_architecture(doc)

    @pytest.mark.parametrize(
        "second, message",
        [
            ({"id": "y", "kind": "toaster"},
             "architecture.assets[1].kind: 'toaster' is not one of: sensor, ecu, gateway, bus"),
            ({"kind": "ecu"}, "architecture.assets[1]: missing required field 'id'"),
            ({"id": 5, "kind": "ecu"}, "architecture.assets[1].id: expected a string, got 5"),
            ({"id": "y", "name": [1], "kind": "ecu"},
             "architecture.assets[1].name: expected a string, got [1]"),
            ({"id": "y"}, "architecture.assets[1]: missing required field 'kind'"),
            ("y", "architecture.assets[1]: expected a JSON object, got 'y'"),
            ({"id": "x", "kind": "bus"}, "architecture.assets[1].id: duplicate asset id 'x'"),
        ],
        ids=["kind", "no-id", "id-type", "name-type", "no-kind", "not-object", "duplicate-id"],
    )
    def test_errors_name_the_asset_position(self, second, message):
        doc = {
            "schema_version": 1,
            "kind": "architecture",
            "assets": [{"id": "x", "kind": "ecu"}, second, {"id": "z", "kind": "bus"}],
        }
        with pytest.raises(SchemaError) as info:
            parse_architecture(doc)
        assert str(info.value) == message


class TestCatalog:
    def test_minimal_doc_parses(self):
        catalog = parse_catalog(minimal_catalog_doc())
        assert by_index(catalog, 31).terminal
        assert not by_index(catalog, 5).is_general

    def test_wrong_kind_rejected(self):
        with pytest.raises(SchemaError, match="kind"):
            parse_catalog(minimal_catalog_doc(kind="scenario"))

    def test_wrong_schema_version_rejected(self):
        # ``True == 1.0 == 1``, but only the int 1 is version 1.
        for version in (99, True, 1.0, "1"):
            with pytest.raises(SchemaError, match="schema_version"):
                parse_catalog(minimal_catalog_doc(schema_version=version))

    def test_missing_terminal_rejected(self):
        doc = minimal_catalog_doc()
        doc["responses"] = doc["responses"][:1]
        with pytest.raises(SchemaError, match="terminal"):
            parse_catalog(doc)

    def test_duplicate_index_rejected(self):
        doc = minimal_catalog_doc()
        doc["responses"].append(dict(doc["responses"][0]))
        with pytest.raises(SchemaError, match="duplicate"):
            parse_catalog(doc)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"cost": {"a": 10, "perf": 10, "w_a": -1}},
             "catalog.responses[1].cost: w_a must be a finite non-negative number, got -1"),
            ({"benefit": {"s": 7, "f": 0, "o": 0, "p": 0}},
             "catalog.responses[1].benefit: S must be one of (0, 1, 10, 100), got 7"),
            ({"index": "6"}, "catalog.responses[1].index: expected an integer, got '6'"),
            ({"index": 5}, "catalog.responses[1].index: duplicate response index 5"),
            ({"place": "roof"},
             "catalog.responses[1].place: 'roof' is not one of: source, destination, both"),
            ({"precondition": "a &"},
             "catalog.responses[1].precondition: unexpected character '&' at offset 2"),
            ({"applies_to": ["x"]},
             "catalog.responses[1].applies_to: 'x' is not one of: "
             + ", ".join(r.value for r in IntrusionResult)),
            ({"stop": {"kind": "sometimes"}},
             "catalog.responses[1].stop.kind: 'sometimes' is not one of: "
             + ", ".join(k.value for k in StopKind)),
            ({"action": None}, "catalog.responses[1].action: expected a string, got None"),
            ({"applies_to": []}, "catalog.responses[1]: needs applies_to entries or general=true"),
            ("x", "catalog.responses[1]: expected a JSON object, got 'x'"),
            ({"cost": {"a": 0}}, "catalog.responses[1].cost: missing required field 'perf'"),
            ({"benefit": {"s": 100, "f": 0, "o": 0, "p": 0, "w_s": 1e307}},
             "catalog.responses[1].benefit: weighted total must be finite, got inf"),
            ({"cost": {"a": 100, "perf": 0, "w_a": 1e307}},
             "catalog.responses[1].cost: weighted total must be finite, got inf"),
            ({"stop": {"kind": "after_duration"}},
             "catalog.responses[1].stop: after_duration stop requires positive seconds"),
            ({"stop": {"kind": "persistent", "seconds": 3}},
             "catalog.responses[1].stop: persistent stop takes no duration"),
            ({"precondition": "(a b"}, "catalog.responses[1].precondition: expected ')'"),
        ],
        ids=["cost", "benefit", "index-type", "duplicate-index", "place", "precondition",
             "applies-to", "stop-kind", "action", "no-result", "not-object",
             "cost-missing-level", "benefit-overflow", "cost-overflow",
             "stop-without-seconds", "stop-with-seconds", "precondition-unclosed"],
    )
    def test_errors_name_the_response_position(self, change, message):
        doc = minimal_catalog_doc()
        first, terminal = doc["responses"]
        second = {**first, "index": 6, **change} if isinstance(change, dict) else change
        doc["responses"] = [first, second, terminal]
        with pytest.raises(SchemaError) as info:
            parse_catalog(doc)
        assert str(info.value) == message

    def test_invalid_level_rejected(self):
        doc = minimal_catalog_doc()
        doc["responses"][0]["benefit"]["s"] = 7
        with pytest.raises(SchemaError):
            parse_catalog(doc)

    def test_bad_precondition_rejected(self):
        doc = minimal_catalog_doc()
        doc["responses"][0]["precondition"] = "a &&"
        with pytest.raises(SchemaError):
            parse_catalog(doc)

    def test_entry_needs_applicability(self):
        doc = minimal_catalog_doc()
        del doc["responses"][0]["applies_to"]
        with pytest.raises(SchemaError):
            parse_catalog(doc)


class TestCatalogOverlay:
    """A catalog that ``extends`` a full catalog: ``remove`` drops base
    indices, ``responses`` replace or add entries by index, and the result
    is in index order."""

    @staticmethod
    def write(tmp_path, name, doc):
        (tmp_path / name).write_text(json.dumps(doc))
        return tmp_path / name

    def test_entries_are_removed_replaced_and_added_in_index_order(self, tmp_path):
        base = minimal_catalog_doc()
        extra = {**base["responses"][0], "index": 7}
        base["responses"].insert(1, extra)
        self.write(tmp_path, "base.json", base)
        added = {**base["responses"][0], "index": 9, "action": "added"}
        replaced = {**base["responses"][2], "action": "do nothing"}
        path = self.write(tmp_path, "overlay.json",
                          overlay_doc(remove=[5], responses=[replaced, added]))
        catalog = load_catalog(path)
        assert [spec.index for spec in catalog.responses] == [7, 9, 31]
        assert [spec.action for spec in catalog.responses] == [
            "change settings", "added", "do nothing"]
        assert parse_catalog(json.loads(path.read_text()), base_dir=tmp_path) == catalog
        assert validate_file(path) == "catalog"

    def test_an_overlay_of_an_overlay_is_rejected(self, tmp_path):
        self.write(tmp_path, "base.json", minimal_catalog_doc())
        self.write(tmp_path, "middle.json", overlay_doc())
        load_catalog(tmp_path / "middle.json")  # kept as an overlay, then named as a base
        path = self.write(tmp_path, "top.json", overlay_doc("middle.json"))
        with pytest.raises(SchemaError) as info:
            load_catalog(path)
        assert str(info.value) == (
            "catalog.extends: middle.json: an overlay's base must be a full catalog,"
            " not another overlay")
        path = self.write(tmp_path, "self.json", overlay_doc("self.json"))
        with pytest.raises(SchemaError, match="not another overlay"):
            load_catalog(path)

    def test_a_missing_base_is_rejected(self, tmp_path):
        path = self.write(tmp_path, "overlay.json", overlay_doc("absent.json"))
        for load in (load_catalog, validate_file):
            with pytest.raises(SchemaError) as info:
                load(path)
            assert str(info.value) == (
                f"catalog.extends: absent.json: no such file: {tmp_path / 'absent.json'}")
        with pytest.raises(SchemaError) as info:
            parse_catalog(overlay_doc(5))
        assert str(info.value) == "catalog.extends: expected a string, got 5"

    @pytest.mark.parametrize("index", [6, "5", True, [5]])
    def test_removing_an_index_the_base_lacks_is_rejected(self, tmp_path, index):
        self.write(tmp_path, "base.json", minimal_catalog_doc())
        with pytest.raises(SchemaError) as info:
            parse_catalog(overlay_doc(remove=[5, index]), base_dir=tmp_path)
        assert str(info.value) == f"catalog.remove[1]: base.json has no response index {index!r}"

    def test_only_an_overlay_removes(self):
        with pytest.raises(SchemaError) as info:
            parse_catalog(minimal_catalog_doc(remove=[5]))
        assert str(info.value) == "catalog.remove: only an overlay (with extends) removes entries"

    def test_an_overlay_still_needs_one_terminal(self, tmp_path):
        self.write(tmp_path, "base.json", minimal_catalog_doc())
        with pytest.raises(SchemaError, match="exactly one terminal entry, found 0"):
            parse_catalog(overlay_doc(remove=[31]), base_dir=tmp_path)

    def test_shipped_overlays_restate_no_base_entry(self, data):
        """Each shipped overlay extends a full catalog, removes only indices
        that its base holds, and lists only entries that differ from the
        base's or are new."""
        overlays = 0
        for path in sorted(data.glob("catalog_*.json")):
            doc = json.loads(path.read_text())
            if "extends" not in doc:
                continue
            overlays += 1
            base = json.loads((data / doc["extends"]).read_text())
            assert "extends" not in base, path.name
            base_entries = {entry["index"]: entry for entry in base["responses"]}
            assert set(doc["remove"]) <= set(base_entries), path.name
            for entry in doc["responses"]:
                assert entry != base_entries.get(entry["index"]), (path.name, entry["index"])
        assert overlays == 5


class TestScenario:
    def test_event_construction(self, scenario1):
        event = scenario1.event()
        assert event.infected_asset == "front_camera"
        assert event.affected_asset == "acceleration_control"
        assert event.vehicle.velocity_kmh == 70.0
        assert event.impact_params.levels() == (100, 0, 100, 0)

    def test_event_velocity_override(self, scenario1):
        assert scenario1.event(velocity_kmh=100.0).vehicle.velocity_kmh == 100.0
        assert scenario1.event().vehicle.velocity_kmh == 70.0

    def test_event_is_the_initial_event(self, scenario1):
        assert scenario1.event() == scenario1.initial_event

    def test_each_event_has_facts_of_its_own(self, data):
        scenario = parse_scenario(scenario1_doc(data), base_dir=data)
        facts = dict(scenario.initial_event.vehicle.facts)
        event = scenario.event()
        event.vehicle.facts["intruder_seen"] = True
        assert scenario.event().vehicle.facts == facts
        assert scenario.initial_event.vehicle.facts == facts

    def test_event_at_a_velocity_derives_e_and_keeps_the_rest(self, data):
        scenario = parse_scenario({**scenario1_doc(data), "environment_weight": 0.5},
                                  base_dir=data)
        initial, fast = scenario.initial_event, scenario.event(velocity_kmh=100.0)
        assert initial.env == EnvironmentTerm(e=10, w_e=0.5)
        assert fast == replace(initial, env=EnvironmentTerm(e=100, w_e=0.5),
                               vehicle=VehicleState(100.0, initial.vehicle.facts))

    def test_catalog_override_resolution(self, scenario1):
        assert scenario1.catalog_path("static", "saw").name == "catalog_scenario1_saw.json"
        assert scenario1.catalog_path("static", "lp-max").name == "catalog_scenario1.json"
        # no override for dynamic modes: default reference applies
        assert (
            scenario1.catalog_path("dynamic-fail", "saw").name
            == "catalog_scenario1_dynamic.json"
        )

    def test_wildcard_override(self, data):
        doc = scenario1_doc(data)
        doc["catalog_overrides"] = {"static:*": "catalog_scenario1_saw.json"}
        sc = parse_scenario(doc, base_dir=data)
        assert sc.catalog_path("static", "lp-min").name == "catalog_scenario1_saw.json"
        assert sc.catalog_path("velocity-sweep", "lp-min").name == (
            "catalog_scenario1_dynamic.json"
        )

    def test_unknown_asset_rejected_on_load(self, data, tmp_path):
        doc = scenario1_doc(data)
        doc["infected_asset"] = "flux_capacitor"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        (tmp_path / "architecture.json").write_text(
            (data / "architecture.json").read_text()
        )
        with pytest.raises(SchemaError, match="flux_capacitor"):
            load_scenario(bad)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"facts": {"driving": "no"}},
             "scenario.facts.driving: expected true or false, got 'no'"),
            ({"velocity_kmh": -3.0},
             "scenario.velocity_kmh: expected a finite non-negative number, got -3.0"),
            ({"environment_weight": "x"},
             "scenario.environment_weight: expected a finite non-negative number, got 'x'"),
            ({"infected_asset": "flux_capacitor"},
             "scenario.infected_asset: 'flux_capacitor' not in architecture"),
            ({"affected_asset": 5}, "scenario.affected_asset: expected a string, got 5"),
            ({"effects": {"x": {}}}, "scenario.effects.x: key is not a response index"),
            ({"effects": {"20": {"attacker_isolated": 1}}},
             "scenario.effects.20.attacker_isolated: expected true or false, got 1"),
            ({"catalog_overrides": {"static:*": 5}},
             "scenario.catalog_overrides.static:*: expected a string, got 5"),
            ({"impact_params": {"s": 7, "f": 0, "o": 0, "p": 0}},
             "scenario.impact_params: S must be one of (0, 1, 10, 100), got 7"),
            ({"intrusion_result": "x"},
             "scenario.intrusion_result: 'x' is not one of: "
             + ", ".join(r.value for r in IntrusionResult)),
            ({"effects": {"2_0": {}}}, "scenario.effects.2_0: key is not a response index"),
            ({"effects": {" -3 ": {}}}, "scenario.effects. -3 : key is not a response index"),
            ({"effects": {"\u0662": {}}}, "scenario.effects.\u0662: key is not a response index"),
            ({"impact_params": {"s": 100, "f": 0, "o": 100}},
             "scenario.impact_params: missing required field 'p'"),
            ({"impact_params": {"s": 100, "f": 0, "o": 0, "p": 0, "w_s": 1e307}},
             "scenario.impact_params: weighted total must be finite, got inf"),
            ({"environment_weight": 1e307},
             "scenario.environment_weight: impact at E = 100 must be finite"),
            ({"catalog_overrides": {"static:lpmax": "catalog_scenario1.json"}},
             f"scenario.catalog_overrides.static:lpmax: {OVERRIDE_KEY}"),
            ({"catalog_overrides": {"statc:saw": "catalog_scenario1.json"}},
             f"scenario.catalog_overrides.statc:saw: {OVERRIDE_KEY}"),
            ({"catalog_overrides": {"static": "catalog_scenario1.json"}},
             f"scenario.catalog_overrides.static: {OVERRIDE_KEY}"),
            ({"effects": {"20": {"a": True}, "020": {"b": True}}},
             "scenario.effects.020: key is not a response index"),
            ({"effects": {"00": {}}}, "scenario.effects.00: key is not a response index"),
            ({"effects": {"1" * 5000: {}}},
             f"scenario.effects.{'1' * 5000}: key is not a response index"),
            ({"facts": {"Driving": True}}, f"scenario.facts.Driving: {FACT_NAME_RULE}"),
            ({"facts": {"driver-notified": True}},
             f"scenario.facts.driver-notified: {FACT_NAME_RULE}"),
            ({"facts": {"true": True}}, f"scenario.facts.true: {FACT_NAME_RULE}"),
            ({"effects": {"20": {"Isolated": True}}},
             f"scenario.effects.20.Isolated: {FACT_NAME_RULE}"),
        ],
        ids=["facts", "velocity", "environment-weight", "unknown-asset", "asset-type",
             "effects-key", "effects-flag", "override", "impact-params", "result",
             "effects-key-underscore", "effects-key-signed", "effects-key-arabic-indic",
             "impact-params-missing-level", "impact-params-overflow", "environment-overflow",
             "override-key-algorithm", "override-key-mode", "override-key-no-algorithm",
             "effects-key-leading-zero", "effects-key-double-zero", "effects-key-long",
             "fact-name-upper", "fact-name-hyphen", "fact-name-literal", "effects-flag-name"],
    )
    def test_errors_name_the_json_path(self, data, tmp_path, change, message):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**scenario1_doc(data), **change}))
        (tmp_path / "architecture.json").write_text((data / "architecture.json").read_text())
        with pytest.raises(SchemaError) as info:
            load_scenario(path)
        assert str(info.value) == message

    def test_negative_velocity_rejected(self, data):
        doc = scenario1_doc(data)
        doc["velocity_kmh"] = -3.0
        with pytest.raises(SchemaError):
            parse_scenario(doc, base_dir=data)

    def test_effects_keys_are_indices(self, demo_scenario):
        assert demo_scenario.effects == {20: {"attacker_isolated": True}}

    def test_its_mappings_are_read_only(self, data):
        """A write to the facts, either level of the effects or the
        overrides raises, and a later event or run reads what was loaded."""
        doc = {**json.loads((data / "demo.json").read_text()),
               "catalog_overrides": {"dynamic-fail:*": "catalog_generic.json"}}
        scenario = parse_scenario(doc, base_dir=data)
        views = [scenario.initial_event.vehicle.facts, scenario.effects, scenario.effects[20],
                 scenario.catalog_overrides]
        for view in views:
            key = next(iter(view))
            with pytest.raises(TypeError):
                view[key] = view[key]
            with pytest.raises(TypeError):
                del view[key]
            with pytest.raises(TypeError):
                view["intruder_seen"] = True
        fresh = parse_scenario(doc, base_dir=data)
        assert scenario == fresh
        assert scenario.event().vehicle.facts == doc["facts"]
        assert scenario.effects == {20: {"attacker_isolated": True}}
        assert scenario.catalog_overrides == doc["catalog_overrides"]
        report = run_dynamic(scenario, "lp-max", "failure")
        assert report_rows(report) == report_rows(run_dynamic(fresh, "lp-max", "failure"))
        assert 20 in {row.response_index for row in report.selections}

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda scenario: pickle.loads(pickle.dumps(scenario))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_a_copy_keeps_its_values_and_read_only_views(self, demo_scenario, clone):
        again = clone(demo_scenario)
        assert again == demo_scenario and again.base_dir == demo_scenario.base_dir
        for view in (again.initial_event.vehicle.facts, again.effects, again.effects[20],
                     again.catalog_overrides):
            assert type(view) is MappingProxyType


class TestValidateAndResolve:
    @pytest.mark.parametrize(
        "path", sorted(data_dir().glob("*.json")), ids=lambda path: path.name
    )
    def test_validate_reports_kind(self, path):
        """Every shipped document validates, as the kind its name says."""
        if path.name == "architecture.json":
            kind = "architecture"
        else:
            kind = "catalog" if path.name.startswith("catalog") else "scenario"
        assert validate_file(path) == kind

    def test_validate_rejects_non_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json {")
        with pytest.raises(SchemaError):
            validate_file(path)

    def test_validate_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"schema_version": 1, "kind": "recipe"}))
        with pytest.raises(SchemaError):
            validate_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError):
            validate_file(tmp_path / "absent.json")

    def test_resolve_packaged_names(self):
        assert resolve_scenario_ref("scenario1").name == "scenario1.json"
        assert resolve_scenario_ref("scenario2").exists()
        assert resolve_scenario_ref("demo").exists()

    def test_resolve_path_passthrough(self, data):
        path = data / "scenario1.json"
        assert resolve_scenario_ref(str(path)) == path

    def test_resolve_unknown_name(self):
        with pytest.raises(SchemaError):
            resolve_scenario_ref("no_such_scenario")


class TestReferences:
    """A reference to a path no file can have is a ``SchemaError``, and
    ``validate_file`` loads every catalog a scenario names."""

    @pytest.mark.parametrize("case", BAD_PATHS)
    def test_an_unusable_extends_is_rejected(self, tmp_path, case):
        path = tmp_path / "overlay.json"
        path.write_text(json.dumps(overlay_doc(BAD_PATHS[case])))
        for load in (load_catalog, validate_file):
            with pytest.raises(SchemaError) as info:
                load(path)
            assert str(info.value).startswith(f"catalog.extends: {BAD_PATHS[case]}: ")
            assert "not a usable path" in str(info.value)

    @pytest.mark.parametrize(
        "ref, error",
        [*((BAD_PATHS[case], "not a usable path") for case in BAD_PATHS),
         ("absent.json", "no such file")],
        ids=[*BAD_PATHS, "missing"],
    )
    def test_an_unusable_architecture_ref_is_rejected(self, tmp_path, ref, error):
        path = write_scenario(tmp_path, architecture_ref=ref)
        for load in (load_scenario, validate_file):
            with pytest.raises(SchemaError) as info:
                load(path)
            assert str(info.value).startswith(f"scenario.architecture_ref: {ref}: ")
            assert error in str(info.value)

    @pytest.mark.parametrize(
        "field, ref, error",
        [
            ("catalog_ref", "missing.json", "no such file"),
            ("catalog_ref", BAD_PATHS["nul"], "not a usable path"),
            ("catalog_ref", BAD_PATHS["surrogate"], "not a usable path"),
            ("catalog_ref", "architecture.json", "expected kind 'catalog', got 'architecture'"),
            ("catalog_overrides.static:saw", "missing.json", "no such file"),
            ("catalog_overrides.static:saw", BAD_PATHS["nul"], "not a usable path"),
        ],
        ids=["missing", "nul", "surrogate", "not-a-catalog", "override-missing", "override-nul"],
    )
    def test_validate_loads_every_catalog_a_scenario_names(self, tmp_path, field, ref, error):
        if field == "catalog_ref":
            path = write_scenario(tmp_path, catalog_ref=ref)
        else:
            path = write_scenario(tmp_path, catalog_overrides={"static:saw": ref})
        load_scenario(path)  # the scenario itself is well formed
        with pytest.raises(SchemaError) as info:
            validate_file(path)
        assert str(info.value).startswith(f"scenario.{field}: {ref}: ")
        assert error in str(info.value)


@pytest.mark.parametrize(
    "loader", [load_architecture, load_catalog, load_scenario, validate_file],
    ids=lambda loader: loader.__name__,
)
@pytest.mark.parametrize("case", BAD_FILES)
def test_loaders_raise_only_schema_errors(tmp_path, loader, case):
    path = write_bad_file(tmp_path, case)
    with pytest.raises(SchemaError) as info:
        loader(path)
    if case in ("directory", "non-utf8", "deep-array", "long-number"):
        assert str(path) in str(info.value)


class TestCatalogCache:
    """``load_catalog`` parses a file once per content and re-parses when
    its bytes change."""

    @pytest.fixture()
    def parses(self, monkeypatch):
        calls = []
        parse = Precondition.__dict__["parse"].__func__

        def counting(cls, text):
            calls.append(text)
            return parse(cls, text)

        monkeypatch.setattr(Precondition, "parse", classmethod(counting))
        return calls

    def test_unchanged_file_is_parsed_once(self, tmp_path, parses):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(minimal_catalog_doc()))
        first = load_catalog(path)
        # Both entries read "true": one parse per distinct text.
        assert parses == ["true"]
        assert load_catalog(path) is first
        assert load_catalog(str(path)) is first
        assert parses == ["true"]

    def test_same_size_rewrite_is_reparsed(self, tmp_path):
        path = tmp_path / "catalog.json"
        doc = minimal_catalog_doc()
        path.write_text(json.dumps(doc))
        assert by_index(load_catalog(path), 5).cost.w_a == 1.0
        before = path.stat()
        doc["responses"][0]["cost"]["w_a"] = 1.5
        path.write_text(json.dumps(doc))
        # Same size, and the same mtime as a rewrite within one tick.
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert path.stat().st_size == before.st_size
        assert by_index(load_catalog(path), 5).cost.w_a == 1.5

    def test_same_size_base_rewrite_reparses_the_overlay(self, tmp_path):
        doc = minimal_catalog_doc()
        base = tmp_path / "base.json"
        base.write_text(json.dumps(doc))
        path = tmp_path / "overlay.json"
        path.write_text(json.dumps(overlay_doc()))
        first = load_catalog(path)
        assert load_catalog(path) is first
        assert by_index(first, 5).cost.w_a == 1.0
        before = base.stat()
        doc["responses"][0]["cost"]["w_a"] = 1.5
        base.write_text(json.dumps(doc))
        os.utime(base, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert base.stat().st_size == before.st_size
        assert by_index(load_catalog(path), 5).cost.w_a == 1.5

    def test_malformed_rewrite_fails_and_restoring_loads_again(self, tmp_path):
        path = tmp_path / "catalog.json"
        good = json.dumps(minimal_catalog_doc())
        path.write_text(good)
        first = load_catalog(path)
        path.write_text(good[:-1])
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_catalog(path)
        path.write_text(json.dumps(minimal_catalog_doc(responses=[])))
        with pytest.raises(SchemaError, match="terminal"):
            load_catalog(path)
        path.write_text(good)
        assert load_catalog(path) == first

    def test_deleted_file_fails(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(minimal_catalog_doc()))
        load_catalog(path)
        path.unlink()
        with pytest.raises(SchemaError, match="no such file"):
            load_catalog(path)


def _entry(index, precondition="true", applies_to=("falsify_alter_behavior",), **fields):
    return {"index": index, "action": f"response {index}", "applies_to": list(applies_to),
            "precondition": precondition, "cost": {"a": 1, "perf": 1},
            "benefit": {"s": 1, "f": 1, "o": 1, "p": 1}, **fields}


def _values(spec):
    return spec.precondition, spec.applicable_results, spec.stop


class TestSharedValues:
    """One parse builds each distinct precondition, ``applies_to`` set and
    stop rule once; two parses share none of them."""

    def test_equal_values_within_a_catalog_are_one_object(self):
        doc = minimal_catalog_doc()
        doc["responses"] += [
            _entry(6, stop={"kind": "after_duration", "seconds": 5}),
            _entry(7, "driving", applies_to=["system_unavailability"],
                   stop={"kind": "after_duration", "seconds": 5}),
            _entry(8, "driving", applies_to=["system_unavailability"]),
        ]
        catalog = parse_catalog(doc)
        five, six, seven, eight = (by_index(catalog, i) for i in (5, 6, 7, 8))
        assert five.precondition is six.precondition is by_index(catalog, 31).precondition
        assert seven.precondition is eight.precondition is not five.precondition
        assert five.applicable_results is six.applicable_results
        assert seven.applicable_results is eight.applicable_results
        assert five.stop is eight.stop is by_index(catalog, 31).stop
        assert six.stop is seven.stop is not five.stop

    def test_two_parses_share_nothing(self):
        first, second = parse_catalog(minimal_catalog_doc()), parse_catalog(minimal_catalog_doc())
        assert first == second
        for a, b in zip(first.responses, second.responses):
            assert all(x is not y for x, y in zip(_values(a), _values(b)))

    def test_a_rewrite_gets_fresh_values(self, tmp_path):
        path = tmp_path / "catalog.json"
        doc = minimal_catalog_doc()
        path.write_text(json.dumps(doc))
        first = load_catalog(path)
        doc["responses"][0]["cost"]["w_a"] = 1.5
        path.write_text(json.dumps(doc))
        second = load_catalog(path)
        doc["responses"][0]["cost"]["w_a"] = 1.0
        path.write_text(json.dumps(doc))
        third = load_catalog(path)
        assert third == first and third is not first
        for catalog in (second, third):
            for a, b in zip(first.responses, catalog.responses):
                assert all(x is not y for x, y in zip(_values(a), _values(b)))

    def test_an_overlay_shares_nothing_with_its_base(self, tmp_path):
        (tmp_path / "base.json").write_text(json.dumps(minimal_catalog_doc()))
        (tmp_path / "overlay.json").write_text(json.dumps(overlay_doc(responses=[_entry(6)])))
        overlay = load_catalog(tmp_path / "overlay.json")
        base = load_catalog(tmp_path / "base.json")
        assert by_index(overlay, 5) is by_index(base, 5)
        added, kept = by_index(overlay, 6), by_index(base, 5)
        assert _values(added) == _values(kept)
        assert all(x is not y for x, y in zip(_values(added), _values(kept)))

    def test_a_repeated_bad_precondition_names_its_first_entry(self):
        doc = minimal_catalog_doc()
        doc["responses"][1:1] = [_entry(6, "driving &&"), _entry(7), _entry(8, "driving &&")]
        with pytest.raises(SchemaError, match=r"^catalog\.responses\[1\]\.precondition: "):
            parse_catalog(doc)

    def test_a_drain_shaped_catalog_retains_little(self):
        """A 1,025-entry catalog with 14 precondition texts, in the shape
        of the benchmark's drain catalog.  Python 3.11 measures about 1,240 KiB
        retained when every entry parses its own precondition and keeps its
        own set and stop rule, and 646 KiB with them shared."""
        import gc
        import random
        import tracemalloc

        rng = random.Random(1)
        facts = ("driver_notified", "vehicle_stationary", "redundant_source_available",
                 "update_available", "driving")
        texts = ["true", *facts, *(f"{a} || {b}" for a, b in zip(facts, facts[1:])),
                 *(f"{a} && !{b}" for a, b in zip(facts, facts[2:])),
                 "(driver_notified || vehicle_stationary) && !driving"]
        assert len(texts) == 14

        def weight():
            return round(rng.uniform(0.5, 1.5), 2)

        def level():
            return rng.choice((0, 1, 10, 100))

        responses = [
            {"index": index, "action": f"Synthetic response {index}", "general": True,
             "precondition": rng.choice(texts), "place": rng.choice(("destination", "source")),
             "cost": {"a": level(), "perf": level(), "w_a": weight(), "w_perf": weight()},
             "benefit": {"s": level(), "f": level(), "o": level(), "p": level(), "w_s": weight(),
                         "w_f": weight(), "w_o": weight(), "w_p": weight()}}
            for index in range(1, 1026) if index != 31
        ]
        responses.insert(30, _entry(31, general=True, terminal=True))
        text = json.dumps({"schema_version": 1, "kind": "catalog", "responses": responses})
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            catalog = parse_catalog(json.loads(text))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(catalog.responses) == 1025
        assert retained <= 900 * 1024, f"a parse retains {retained / 1024:.0f} KiB"
