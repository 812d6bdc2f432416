import json
import os

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
from react_irs.preconditions import Precondition
from _support import BAD_FILES, write_bad_file


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


class TestArchitecture:
    def test_shipped_assets(self, data):
        assets = load_architecture(data / "architecture.json")
        assert assets["front_camera"].kind.value == "sensor"
        assert assets["infotainment_gateway"].kind.value == "gateway"
        assert len(assets) == 8

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
        assert catalog.by_index(31).terminal
        assert not catalog.by_index(5).is_general

    def test_wrong_kind_rejected(self):
        with pytest.raises(SchemaError, match="kind"):
            parse_catalog(minimal_catalog_doc(kind="scenario"))

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(SchemaError):
            parse_catalog(minimal_catalog_doc(schema_version=99))

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

    def test_by_index_missing_raises(self, generic_catalog):
        with pytest.raises(KeyError):
            generic_catalog.by_index(99)


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

    def test_negative_velocity_rejected(self, data):
        doc = scenario1_doc(data)
        doc["velocity_kmh"] = -3.0
        with pytest.raises(SchemaError):
            parse_scenario(doc, base_dir=data)

    def test_effects_keys_are_indices(self, demo_scenario):
        assert demo_scenario.effects == {20: {"attacker_isolated": True}}


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


@pytest.mark.parametrize(
    "loader", [load_architecture, load_catalog, load_scenario, validate_file],
    ids=lambda loader: loader.__name__,
)
@pytest.mark.parametrize("case", BAD_FILES)
def test_loaders_raise_only_schema_errors(tmp_path, loader, case):
    path = write_bad_file(tmp_path, case)
    with pytest.raises(SchemaError) as info:
        loader(path)
    if case in ("directory", "non-utf8"):
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
        assert len(parses) == 2
        assert load_catalog(path) is first
        assert load_catalog(str(path)) is first
        assert len(parses) == 2

    def test_same_size_rewrite_is_reparsed(self, tmp_path):
        path = tmp_path / "catalog.json"
        doc = minimal_catalog_doc()
        path.write_text(json.dumps(doc))
        assert load_catalog(path).by_index(5).cost.w_a == 1.0
        before = path.stat()
        doc["responses"][0]["cost"]["w_a"] = 1.5
        path.write_text(json.dumps(doc))
        # Same size, and the same mtime as a rewrite within one tick.
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert path.stat().st_size == before.st_size
        assert load_catalog(path).by_index(5).cost.w_a == 1.5

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
