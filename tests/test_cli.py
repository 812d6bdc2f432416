import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from react_irs.cli import MODES, main
from react_irs.files import (
    SchemaError,
    data_dir,
    parse_catalog,
    parse_scenario,
    validate_file,
)
from react_irs.selection import ALGORITHMS
from _reference import _entries, _instances
from _support import (
    BAD_FILES,
    BAD_PATHS,
    CliRunner,
    fixture_rows,
    load_expected,
    reference_csv,
    write_bad_file,
    write_scenario,
)


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
        """REACT_SEED sets the seed when --seed is not given; --seed wins."""
        outs = {}
        for name, seed, env in (
            ("cli", "11", None),
            ("env", None, {"REACT_SEED": "11"}),
            ("cli-8", "8", None),
            ("both", "8", {"REACT_SEED": "11"}),
            ("default", None, {"REACT_SEED": None}),
            ("env-empty", None, {"REACT_SEED": ""}),
            ("cli-8-env-bad", "8", {"REACT_SEED": "x"}),
        ):
            out = tmp_path / f"{name}.csv"
            args = [
                "run", "--scenario", "scenario1", "--algo", "lp-max",
                "--mode", "dynamic-success", "--no-timings", "--out", str(out),
            ]
            if seed is not None:
                args += ["--seed", seed]
            result = runner.invoke(main, args, env=env)
            assert result.exit_code == 0
            outs[name] = out.read_bytes()
        assert outs["cli"] == outs["env"]
        assert outs["both"] == outs["cli-8"] == outs["cli-8-env-bad"] != outs["cli"]
        assert outs["env-empty"] == outs["default"] != outs["cli"]
        result = runner.invoke(main, ["run", "--scenario", "scenario1", "--algo", "lp-max",
                                      "--mode", "dynamic-success"], env={"REACT_SEED": "x"})
        assert result.exit_code == 2 and result.stdout == "", result.output

    def test_unknown_scenario_is_validation_error(self, runner):
        result = runner.invoke(main, ["run", "--scenario", "ghost", "--algo", "saw"])
        assert result.exit_code == 2

    def test_unknown_algo_is_usage_error(self, runner):
        result = runner.invoke(main, ["run", "--scenario", "scenario1", "--algo", "best"])
        assert result.exit_code == 2

    def test_runtime_error_exit_code(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "run", "--scenario", "scenario1", "--algo", "lp-max",
                "--out", str(tmp_path / "missing" / "run.csv"),
            ],
        )
        assert result.exit_code == 3
        assert "cannot write output" in result.stderr

    def test_runtime_domain_error_exit_code(self, runner, tmp_path):
        """A weight that loads finite can overflow under success nudges."""
        data = data_dir()
        catalog = json.loads((data / "catalog_scenario1.json").read_text())
        entry = next(r for r in catalog["responses"] if r["index"] == 1)
        entry["benefit"] = {"s": 1, "f": 0, "o": 0, "p": 0, "w_s": 1.7e308}
        (tmp_path / "catalog.json").write_text(json.dumps(catalog))
        scenario = json.loads((data / "scenario1.json").read_text())
        scenario.update(catalog_ref="catalog.json", catalog_overrides={})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        (tmp_path / "architecture.json").write_text((data / "architecture.json").read_text())
        # Seed 2 draws 1.18 as the first w_s factor, which overflows 1.7e308.
        result = runner.invoke(main, [
            "run", "--scenario", str(path), "--algo", "lp-max", "--mode", "dynamic-success",
            "--seed", "2",
        ])
        assert result.exit_code == 3, result.output
        assert result.stderr == "error: w_s must be a finite non-negative number, got inf\n"

    @pytest.mark.parametrize(
        "option",
        [
            ["--mode", "dynamic-fail", "--iterations", "0"],
            ["--mode", "dynamic-fail", "--iterations", "-3"],
            ["--saw-benefit-weight", "2"],
            ["--saw-benefit-weight", "nan"],
            ["--saw-benefit-weight", "-0.5"],
            ["--mode", "velocity-sweep", "--velocities", ","],
            ["--mode", "velocity-sweep", "--velocities", ""],
            ["--scen", "scenario1"],
        ],
        ids=" ".join,
    )
    def test_bad_option_value_is_usage_error(self, runner, option):
        result = runner.invoke(
            main, ["run", "--scenario", "scenario1", "--algo", "saw"] + option
        )
        assert result.exit_code == 2, result.output
        assert option[-2] in result.stderr
        assert BAD_VALUE_TEXT.get(option[-2], "") in result.stderr

    def test_out_directory_is_usage_error(self, runner, tmp_path):
        """Rejected while the options are parsed, before the scenario loads."""
        result = runner.invoke(
            main, ["run", "--scenario", "ghost", "--algo", "saw", "--out", str(tmp_path)]
        )
        assert result.exit_code == 2, result.output
        assert "--out" in result.stderr and "ghost" not in result.stderr
        assert result.stdout == "" and list(tmp_path.iterdir()) == []

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
        assert "velocity must be a finite non-negative number" in result.stderr

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


#: The text a rejected option value keeps in its usage error.
BAD_VALUE_TEXT = {"--saw-benefit-weight": "w_benefit", "--velocities": "needs at least one velocity"}


@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ["scenario1", "scenario2"])
def test_run_output_matches_frozen_series(runner, name, mode, algo):
    """What ``react run --no-timings`` prints, in both formats, against the
    frozen series; the CSV is the JSONL's projection onto ``CSV_COLUMNS``."""
    args = ["run", "--scenario", name, "--algo", algo, "--mode", mode, "--no-timings"]
    if mode == "velocity-sweep":
        table = load_expected("velocity_sweep.json")[name][algo]
        args += ["--velocities", ",".join(str(row["velocity_kmh"]) for row in table)]
    else:
        doc = load_expected(f"{mode}_{name}_{algo}.json")
        if mode != "static":
            args += ["--iterations", str(doc["iterations"]), "--seed", str(doc.get("seed", 7))]
    out = {}
    for fmt in ("jsonl", "csv"):
        result = runner.invoke(main, args + ["--format", fmt])
        assert result.exit_code == 0, result.output
        out[fmt] = result.output
    records = [json.loads(line) for line in out["jsonl"].splitlines()]
    assert out["csv"] == reference_csv(records)
    assert all(r["selection_time_ms"] == 0.0 for r in records)
    if mode == "velocity-sweep":
        assert [(r["step"], r["velocity_kmh"], r["impact"], r["response_index"]) for r in records] == [
            (step, row["velocity_kmh"], row["impact"], row["response_index"])
            for step, row in enumerate(table, start=1)
        ]
        # The table pins no target, cost or benefit: each row must be an
        # instance of the sweep's candidate set, re-derived from the JSON.
        scenario = json.loads((data_dir() / f"{name}.json").read_text())
        overrides = scenario["catalog_overrides"]
        catalog = data_dir() / overrides.get(
            f"velocity-sweep:{algo}", overrides.get("velocity-sweep:*", scenario["catalog_ref"]))
        instances = {
            (c["idx"], c["target"], c["cost"], c["benefit"])
            for c in _instances(_entries(catalog, scenario["intrusion_result"]),
                                scenario["infected_asset"], scenario["affected_asset"])
        }
        for r in records:
            assert (r["response_index"], r["target_asset"], r["cost"], r["benefit"]) in instances
    else:
        got = [(r["step"], r["response_index"], r["target_asset"], r["cost"], r["benefit"])
               for r in records]
        assert got == fixture_rows(doc)
        assert all(r["impact"] == doc["impact"] for r in records)


def test_no_timings_outputs_keep_their_digest(runner):
    """The 48 default ``react run --no-timings`` outputs (2 scenarios x 4
    modes x 3 strategies x CSV/JSONL), concatenated in this loop order, keep
    one digest: a change to any byte of any of them is a behaviour change."""
    stdout = []
    for name in ("scenario1", "scenario2"):
        for mode in ("static", "dynamic-success", "dynamic-fail", "velocity-sweep"):
            for algo in ("lp-max", "lp-min", "saw"):
                for fmt in ("csv", "jsonl"):
                    result = runner.invoke(main, ["run", "--scenario", name, "--algo", algo, "--mode",
                                                  mode, "--format", fmt, "--no-timings"])
                    assert result.exit_code == 0, result.output
                    stdout.append(result.stdout)
    digest = hashlib.md5("".join(stdout).encode("utf-8")).hexdigest()
    assert digest == "9ee849f16da4bce8081b6671a5eccdd2"


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


@pytest.mark.parametrize(
    "field, ref",
    [*(pytest.param(field, ref, id=f"{field}-{case}")
       for field in ("extends", "architecture_ref", "catalog_ref")
       for case, ref in BAD_PATHS.items()),
     pytest.param("catalog_ref", "missing.json", id="catalog_ref-missing")],
)
def test_an_unusable_reference_is_validation_error(runner, tmp_path, field, ref):
    """Through ``validate``, and through the command that reads the
    reference: ``catalog list`` for an overlay, ``run`` for a scenario."""
    if field == "extends":
        path = tmp_path / "overlay.json"
        path.write_text(json.dumps(
            {"schema_version": 1, "kind": "catalog", "extends": ref, "responses": []}))
        reader = ["catalog", "list", "--catalog", str(path)]
    else:
        path = write_scenario(tmp_path, catalog_overrides={}, **{field: ref})
        reader = ["run", "--scenario", str(path), "--algo", "saw"]
    for args in (["validate", str(path)], reader):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, (args, result.output)
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
            pytest.param("benefit", "w_s", 1.7e308, id="benefit-total-overflow"),
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
            pytest.param("environment_weight", 1.7e308, id="environment_weight-impact-overflow"),
            pytest.param("effects", {"2_0": {}}, id="effects-key-underscore"),
            pytest.param("effects", {" -3 ": {}}, id="effects-key-signed"),
            pytest.param("effects", {"\u0662": {}}, id="effects-key-arabic-indic"),
            pytest.param("effects", {"020": {}}, id="effects-key-leading-zero"),
            pytest.param("effects", {"00": {}}, id="effects-key-double-zero"),
            pytest.param("catalog_overrides", {"static:lpmax": "catalog_scenario1.json"},
                         id="override-key-algorithm"),
            pytest.param("catalog_overrides", {"statc:saw": "catalog_scenario1.json"},
                         id="override-key-mode"),
            pytest.param("catalog_overrides", {"static": "catalog_scenario1.json"},
                         id="override-key-no-algorithm"),
            pytest.param("facts", {"Driving": True}, id="fact-name-upper"),
            pytest.param("facts", {"driver-notified": True}, id="fact-name-hyphen"),
            pytest.param("facts", {"true": True}, id="fact-name-literal"),
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
            ("catalog_generic.json", "schema_version", True),
            ("catalog_generic.json", "schema_version", 1.0),
            ("architecture.json", "schema_version", True),
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


@pytest.mark.parametrize("args", [[], ["catalog"], ["bogus"], ["catalog", "bogus"]], ids=repr)
def test_a_missing_or_unknown_command_is_usage_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.stdout == ""


@pytest.mark.parametrize(
    "args, first",
    [
        (["catalog", "list", "--catalog", "{catalog}"], b"catalog: "),
        (["run", "--scenario", "scenario1", "--algo", "lp-max", "--mode", "velocity-sweep",
          "--format", "jsonl", "--velocities", ",".join(map(str, range(5000)))],
         b'{"algorithm": '),
    ],
    ids=["catalog-list", "run"],
)
def test_a_reader_that_leaves_early_ends_the_listing_quietly(tmp_path, args, first):
    """``react catalog list | head -1`` and ``react run ... | head -1`` exit 1
    with nothing on stderr.  The output is longer than a pipe holds, so the
    command is still writing when its reader leaves after the first line."""
    doc = json.loads((data_dir() / "catalog_scenario1.json").read_text())
    doc["responses"] += [dict(doc["responses"][0], index=i) for i in range(100, 2100)]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    src = Path(__file__).resolve().parent.parent / "src"
    command = [sys.executable, "-m", "react_irs.cli",
               *(arg.format(catalog=path) for arg in args)]
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=dict(os.environ, PYTHONPATH=str(src))) as proc:
        assert proc.stdout.readline().startswith(first)
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 1
