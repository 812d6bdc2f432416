import json

import pytest
from click.testing import CliRunner

from react_irs.cli import main
from react_irs.files import (
    SchemaError,
    data_dir,
    parse_catalog,
    parse_scenario,
    validate_file,
)
from _support import BAD_FILES, write_bad_file


@pytest.fixture()
def runner():
    return CliRunner()


class TestRun:
    @pytest.mark.parametrize("algo", ["saw", "lp-max", "lp-min"])
    def test_static_mode_emits_csv(self, runner, algo):
        result = runner.invoke(main, ["run", "--scenario", "scenario1", "--algo", algo])
        assert result.exit_code == 0, result.output
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("step,response_index,target_asset")
        assert len(lines) > 20

    def test_dynamic_fail_run(self, runner):
        result = runner.invoke(
            main,
            [
                "run", "--scenario", "scenario1", "--algo", "lp-max",
                "--mode", "dynamic-fail", "--no-timings",
            ],
        )
        assert result.exit_code == 0
        picks = [line.split(",")[1] for line in result.output.strip().splitlines()[1:]]
        assert picks == ["17", "20", "20", "26", "26"]

    def test_velocity_sweep_custom_velocities(self, runner):
        result = runner.invoke(
            main,
            [
                "run", "--scenario", "scenario2", "--algo", "lp-max",
                "--mode", "velocity-sweep", "--velocities", "0,80",
                "--format", "jsonl", "--no-timings",
            ],
        )
        assert result.exit_code == 0
        rows = [json.loads(line) for line in result.output.strip().splitlines()]
        assert [r["impact"] for r in rows] == [120.0, 220.0]

    def test_scenario_path_accepted(self, runner):
        path = str(data_dir() / "scenario2.json")
        result = runner.invoke(main, ["run", "--scenario", path, "--algo", "lp-min"])
        assert result.exit_code == 0

    def test_out_file_written(self, runner, tmp_path):
        out = tmp_path / "trace.csv"
        result = runner.invoke(
            main,
            ["run", "--scenario", "scenario1", "--algo", "saw", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert out.exists()

    def test_no_timings_output_is_bytewise_stable(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            result = runner.invoke(
                main,
                [
                    "run", "--scenario", "scenario1", "--algo", "saw",
                    "--mode", "dynamic-success", "--seed", "7",
                    "--no-timings", "--out", str(out),
                ],
            )
            assert result.exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_env_var_used(self, runner, tmp_path):
        outs = {}
        for name, env in (("cli", None), ("env", {"REACT_SEED": "11"})):
            out = tmp_path / f"{name}.csv"
            args = [
                "run", "--scenario", "scenario1", "--algo", "lp-max",
                "--mode", "dynamic-success", "--no-timings", "--out", str(out),
            ]
            if name == "cli":
                args += ["--seed", "11"]
            result = runner.invoke(main, args, env=env)
            assert result.exit_code == 0
            outs[name] = out.read_bytes()
        assert outs["cli"] == outs["env"]

    def test_unknown_scenario_is_validation_error(self, runner):
        result = runner.invoke(main, ["run", "--scenario", "ghost", "--algo", "saw"])
        assert result.exit_code == 2

    def test_unknown_algo_is_usage_error(self, runner):
        result = runner.invoke(main, ["run", "--scenario", "scenario1", "--algo", "best"])
        assert result.exit_code == 2

    def test_runtime_error_exit_code(self, runner):
        result = runner.invoke(
            main,
            [
                "run", "--scenario", "scenario1", "--algo", "lp-max",
                "--mode", "dynamic-fail", "--iterations", "0",
            ],
        )
        assert result.exit_code == 3

    def test_bad_velocities_string(self, runner):
        result = runner.invoke(
            main,
            [
                "run", "--scenario", "scenario1", "--algo", "lp-max",
                "--mode", "velocity-sweep", "--velocities", "0,fast",
            ],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("velocities", ["nan", "inf", "0,-5", "0,-0"])
    def test_bad_velocity_is_usage_error(self, runner, velocities):
        result = runner.invoke(
            main,
            [
                "run", "--scenario", "scenario1", "--algo", "lp-max",
                "--mode", "velocity-sweep", "--velocities", velocities,
            ],
        )
        assert result.exit_code == 2, result.output
        assert "step," not in result.output

    def test_saw_weight_override_changes_choice(self, runner):
        base = runner.invoke(
            main,
            ["run", "--scenario", "scenario1", "--algo", "saw", "--no-timings"],
        )
        cost_led = runner.invoke(
            main,
            [
                "run", "--scenario", "scenario1", "--algo", "saw",
                "--saw-benefit-weight", "0.01", "--no-timings",
            ],
        )
        assert base.exit_code == 0 and cost_led.exit_code == 0
        first = lambda res: res.output.strip().splitlines()[1].split(",")[1]
        assert first(base) == "17"
        assert first(cost_led) == "30"  # zero-cost notification wins under cost focus


class TestValidate:
    def test_valid_file(self, runner):
        path = str(data_dir() / "catalog_generic.json")
        result = runner.invoke(main, ["validate", path])
        assert result.exit_code == 0
        assert "valid catalog file" in result.output

    def test_invalid_file(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "kind": "catalog", "responses": []}))
        result = runner.invoke(main, ["validate", str(bad)])
        assert result.exit_code == 2
        assert "terminal" in result.stderr

    def test_missing_file(self, runner, tmp_path):
        result = runner.invoke(main, ["validate", str(tmp_path / "none.json")])
        assert result.exit_code == 2


@pytest.mark.parametrize(
    "command",
    [["validate"], ["run", "--algo", "saw", "--scenario"], ["catalog", "list", "--catalog"]],
    ids=lambda command: command[0],
)
@pytest.mark.parametrize("case", BAD_FILES)
def test_unreadable_or_non_object_file_is_validation_error(runner, tmp_path, command, case):
    path = write_bad_file(tmp_path, case)
    result = runner.invoke(main, command + [str(path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


# A JSON integer too large for a float: it passes a weight's range test,
# since an int is below ``math.inf``, and then overflows when converted.
HUGE = 10**400


def _assert_catalog_rejected(runner, tmp_path, doc):
    with pytest.raises(SchemaError):
        parse_catalog(doc)
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    for args in (["validate", str(path)], ["catalog", "list", "--catalog", str(path)]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, (args, result.output)


class TestBadNumbers:
    """Bad numbers, flags and indices fail as schema errors, never reaching
    the engine."""

    @pytest.mark.parametrize(
        "vector, field, value",
        [
            ("benefit", "w_s", float("nan")),
            ("cost", "w_a", float("inf")),
            ("cost", "w_perf", float("-inf")),
            ("benefit", "s", True),
            ("cost", "a", True),
            ("benefit", "w_p", True),
            pytest.param("cost", "w_a", HUGE, id="cost-w_a-huge"),
            pytest.param("cost", "w_a", -0.0, id="cost-w_a-negative-zero"),
            pytest.param("benefit", "w_s", -0.0, id="benefit-w_s-negative-zero"),
        ],
    )
    def test_catalog_rejects(self, runner, tmp_path, vector, field, value):
        doc = json.loads((data_dir() / "catalog_scenario1.json").read_text())
        doc["responses"][0][vector][field] = value
        _assert_catalog_rejected(runner, tmp_path, doc)

    @pytest.mark.parametrize(
        "index, field, value",
        [
            (1, "general", "false"),
            (31, "terminal", 1),
            (1, "index", "1"),
            (1, "index", 1.0),
            (1, "index", True),
            (1, "benefit", 5),
            (1, "cost", 5),
            (1, "stop", 7),
            (1, "applies_to", 5),
            (1, "precondition", 5),
            (1, "stop", {"kind": "after_duration", "seconds": "x"}),
            (1, "stop", {"kind": "after_duration", "seconds": True}),
            (1, "stop", {"kind": "after_duration", "seconds": float("nan")}),
            pytest.param(1, "stop", {"kind": "after_duration", "seconds": HUGE}, id="1-stop-huge"),
            pytest.param(1, "precondition", "!" * 5000 + "a", id="1-precondition-deep-not"),
            pytest.param(1, "precondition", "(" * 5000 + "a" + ")" * 5000,
                         id="1-precondition-deep-parens"),
            pytest.param(1, "precondition", " && ".join(["a"] * 3000), id="1-precondition-long-and"),
        ],
    )
    def test_catalog_entry_rejects(self, runner, tmp_path, index, field, value):
        doc = json.loads((data_dir() / "catalog_scenario1.json").read_text())
        entry = next(r for r in doc["responses"] if r["index"] == index)
        entry[field] = value
        _assert_catalog_rejected(runner, tmp_path, doc)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("velocity_kmh", "fast"),
            ("velocity_kmh", True),
            ("velocity_kmh", float("nan")),
            ("velocity_kmh", float("inf")),
            ("environment_weight", -1),
            ("environment_weight", float("nan")),
            ("facts", {"driving": "no"}),
            ("effects", {"20": {"attacker_isolated": "yes"}}),
            ("facts", ["driving"]),
            ("effects", [1]),
            ("effects", {"5": [1]}),
            ("catalog_overrides", "x"),
            ("impact_params", 5),
            ("infected_asset", ["x"]),
            ("affected_asset", ["x"]),
            ("architecture_ref", 5),
            ("catalog_ref", 5),
            ("catalog_overrides", {"static:*": 5}),
            ("name", [1]),
            pytest.param("velocity_kmh", HUGE, id="velocity_kmh-huge"),
            pytest.param("environment_weight", HUGE, id="environment_weight-huge"),
            pytest.param("velocity_kmh", -0.0, id="velocity_kmh-negative-zero"),
            pytest.param("environment_weight", -0.0, id="environment_weight-negative-zero"),
        ],
    )
    def test_scenario_rejects(self, runner, tmp_path, field, value):
        data = data_dir()
        doc = json.loads((data / "scenario1.json").read_text())
        doc[field] = value
        with pytest.raises(SchemaError):
            parse_scenario(doc, base_dir=data)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        (tmp_path / "architecture.json").write_text((data / "architecture.json").read_text())
        for args in (["validate", str(path)], ["run", "--scenario", str(path), "--algo", "saw"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, (args, result.output)

    @pytest.mark.parametrize(
        "name, field, value",
        [
            ("architecture.json", "assets", 5),
            ("architecture.json", "assets", [5]),
            ("architecture.json", "assets", [{"id": ["cam"], "kind": "sensor"}]),
            ("catalog_scenario1.json", "responses", 5),
            ("catalog_scenario1.json", "responses", [5]),
            ("architecture.json", "assets", [{"id": "cam", "name": [1], "kind": "sensor"}]),
        ],
    )
    def test_document_lists_reject(self, runner, tmp_path, name, field, value):
        doc = json.loads((data_dir() / name).read_text())
        doc[field] = value
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            validate_file(path)
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 2, result.output


    @pytest.mark.parametrize(
        "index, field, value",
        [(None, "name", [1]), (1, "action", 5), (31, "action", None)],
    )
    def test_catalog_names_reject(self, runner, tmp_path, index, field, value):
        data = data_dir()
        doc = json.loads((data / "catalog_scenario1.json").read_text())
        target = doc if index is None else next(r for r in doc["responses"] if r["index"] == index)
        target[field] = value
        _assert_catalog_rejected(runner, tmp_path, doc)
        scenario = json.loads((data / "scenario1.json").read_text())
        scenario["catalog_ref"] = "catalog.json"
        scenario["catalog_overrides"] = {}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        (tmp_path / "architecture.json").write_text((data / "architecture.json").read_text())
        result = runner.invoke(main, ["run", "--scenario", str(path), "--algo", "saw"])
        assert result.exit_code == 2, result.output


class TestCatalogList:
    def test_packaged_default(self, runner):
        result = runner.invoke(main, ["catalog", "list"])
        assert result.exit_code == 0
        assert "No action" in result.output
        assert result.output.count("\n") >= 33

    def test_explicit_catalog(self, runner):
        path = str(data_dir() / "catalog_scenario1.json")
        result = runner.invoke(main, ["catalog", "list", "--catalog", path])
        assert result.exit_code == 0
        assert "Safe mode" in result.output

    def test_terminal_cost_shown_as_impact(self, runner):
        result = runner.invoke(main, ["catalog", "list"])
        terminal_line = next(
            line for line in result.output.splitlines() if "No action" in line
        )
        assert "impact" in terminal_line
