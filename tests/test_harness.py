import io
import json
import math
import shutil
import statistics
import sys
import time
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

import react_irs.engine as engine
import react_irs.harness as harness
from react_irs.files import data_dir, load_catalog, load_scenario
from react_irs.harness import (
    CSV_COLUMNS,
    RunReport,
    SelectionRow,
    emit_series,
    run_dynamic,
    run_static_quality,
    run_velocity_sweep,
)
from react_irs.model import DomainError, Place
from react_irs.responses import generate_candidates
from react_irs.selection import make_selector
from _reference import static_series
from _support import (
    fixture_rows,
    load_expected,
    make_event,
    make_response,
    reference_csv,
    reference_jsonl,
    reference_records,
    report_rows,
)

ALGOS = ("lp-max", "lp-min", "saw")
# Impact levels that leave one non-zero term of scenario1's (S, F, O, P).
ONE_TERM = {"s-only": {"s": 100, "o": 0}, "o-only": {"s": 0, "o": 100}}


def _count_loads(monkeypatch):
    """The paths ``harness`` loads catalogs from, from now on."""
    loads, load = [], harness.load_catalog
    monkeypatch.setattr(harness, "load_catalog", lambda path: loads.append(path) or load(path))
    return loads


class TestStaticQuality:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_scenario1_matches_shipped_series(self, scenario1, algo):
        report = run_static_quality(scenario1, algo)
        expected = load_expected(f"static_scenario1_{algo}.json")
        assert {r.impact for r in report.selections} == {expected["impact"]}
        assert report_rows(report) == fixture_rows(expected)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_scenario2_matches_shipped_series(self, scenario2, algo):
        report = run_static_quality(scenario2, algo)
        expected = load_expected(f"static_scenario2_{algo}.json")
        assert {r.impact for r in report.selections} == {expected["impact"]}
        assert report_rows(report) == fixture_rows(expected)

    def test_follows_an_in_place_edit_of_its_catalog(self, tmp_path):
        for name in ("scenario1.json", "architecture.json", "catalog_scenario1.json"):
            shutil.copy(data_dir() / name, tmp_path / name)
        scenario = load_scenario(tmp_path / "scenario1.json")
        first = run_static_quality(scenario, "lp-max").selections[0]
        assert first.benefit > 0
        path = scenario.catalog_path("static", "lp-max")
        doc = json.loads(path.read_text())
        entry = next(r for r in doc["responses"] if r["index"] == first.response_index)
        entry["benefit"].update(s=0, f=0, o=0, p=0)
        path.write_text(json.dumps(doc))
        rows = run_static_quality(scenario, "lp-max").selections
        assert rows[0].response_index != first.response_index
        edited = [row for row in rows if row.response_index == first.response_index]
        assert edited and all(row.benefit == 0 for row in edited)

    @pytest.mark.parametrize(
        "fixture,algo",
        [(name, a) for name in ("scenario1", "scenario2", *ONE_TERM) for a in ALGOS],
    )
    def test_series_agrees_with_independent_rederivation(
        self, data, tmp_path, fixture, algo
    ):
        path = data / f"{fixture}.json"
        if fixture in ONE_TERM:
            # scenario1 at 0 km/h with one non-zero impact term: a SAW
            # bound of 1, the one case where the bound excludes candidates.
            doc = json.loads((data / "scenario1.json").read_text(encoding="utf-8"))
            doc.update(velocity_kmh=0.0, architecture_ref=str(data / doc["architecture_ref"]),
                       catalog_ref=str(data / doc["catalog_ref"]),
                       catalog_overrides={k: str(data / v) for k, v in doc["catalog_overrides"].items()})
            doc["impact_params"].update(ONE_TERM[fixture])
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
        scenario = load_scenario(path)
        report = run_static_quality(scenario, algo)
        assert report_rows(report) == static_series(path, scenario.catalog_path("static", algo), algo)

    def test_report_metadata(self, scenario1):
        report = run_static_quality(scenario1, "lp-max")
        assert report.mode == "static"
        assert report.algorithm == "lp-max"
        assert report.scenario == "Adversarial sample"
        assert report.list_generation_time_s is not None
        assert report.list_generation_time_s >= 0.0

    def test_terminal_closes_every_series(self, scenario1, scenario2):
        for scenario in (scenario1, scenario2):
            for algo in ALGOS:
                rows = run_static_quality(scenario, algo).selections
                assert rows[-1].response_index == 31
                assert all(r.response_index != 31 for r in rows[:-1])


class TestDynamic:
    @pytest.mark.parametrize("fixture", ["scenario1", "scenario2"])
    @pytest.mark.parametrize("algo", ALGOS)
    @pytest.mark.parametrize("verdict,mode", [("failure", "dynamic-fail"), ("success", "dynamic-success")])
    def test_matches_shipped_series(self, request, fixture, algo, verdict, mode):
        scenario = request.getfixturevalue(fixture)
        report = run_dynamic(scenario, algo, verdict, iterations=5, seed=7)
        expected = load_expected(f"{mode}_{fixture}_{algo}.json")
        assert report.mode == mode
        assert report_rows(report) == fixture_rows(expected)

    def test_failure_decay_runs_benefits_down(self, scenario1):
        report = run_dynamic(scenario1, "lp-min", "failure", iterations=5, seed=7)
        assert [r.benefit for r in report.selections] == [22.0, 2.0, 0.0, 0.0, 0.0]
        assert [r.response_index for r in report.selections] == [30] * 5

    def test_success_seed_changes_benefits(self, scenario1):
        a = run_dynamic(scenario1, "lp-max", "success", iterations=5, seed=7)
        b = run_dynamic(scenario1, "lp-max", "success", iterations=5, seed=8)
        assert [r.benefit for r in a.selections] != [r.benefit for r in b.selections]

    def test_success_is_reproducible_for_a_seed(self, scenario1):
        a = run_dynamic(scenario1, "lp-max", "success", iterations=5, seed=7)
        b = run_dynamic(scenario1, "lp-max", "success", iterations=5, seed=7)
        assert report_rows(a) == report_rows(b)
        assert a.seed == 7

    def test_unknown_verdict_rejected(self, scenario1, monkeypatch):
        loads = _count_loads(monkeypatch)
        with pytest.raises(DomainError, match="unknown verdict 'maybe'"):
            run_dynamic(scenario1, "lp-max", "maybe")
        assert loads == []

    @pytest.mark.parametrize("seed", [None, "7", 1.5, True], ids=["none", "str", "float", "bool"])
    def test_seed_must_be_an_int(self, scenario1, seed):
        with pytest.raises(DomainError, match="adaptation.rng_seed: expected an int"):
            run_dynamic(scenario1, "lp-max", "success", seed=seed)

    @pytest.mark.parametrize("iterations", [0, "3", True, 2.5])
    def test_iterations_must_be_positive(self, scenario1, iterations):
        with pytest.raises(DomainError):
            run_dynamic(scenario1, "lp-max", "success", iterations=iterations)


class TestVelocitySweep:
    @pytest.mark.parametrize("fixture", ["scenario1", "scenario2"])
    @pytest.mark.parametrize("algo", ALGOS)
    def test_matches_shipped_table(self, request, fixture, algo):
        scenario = request.getfixturevalue(fixture)
        report = run_velocity_sweep(scenario, algo, velocities=(0, 50, 100))
        expected = load_expected("velocity_sweep.json")[fixture][algo]
        got = [
            {
                "velocity_kmh": int(r.velocity_kmh),
                "impact": r.impact,
                "response_index": r.response_index,
            }
            for r in report.selections
        ]
        assert got == expected

    def test_one_row_per_velocity(self, scenario1):
        report = run_velocity_sweep(scenario1, "lp-max", velocities=(0, 30, 75, 120))
        assert report.mode == "velocity-sweep"
        assert [r.step for r in report.selections] == [1, 2, 3, 4]
        assert [r.velocity_kmh for r in report.selections] == [0.0, 30.0, 75.0, 120.0]
        assert [r.impact for r in report.selections] == [200.0, 201.0, 300.0, 300.0]

    @pytest.mark.parametrize("fixture", ["scenario1", "scenario2"])
    @pytest.mark.parametrize("algo", ALGOS)
    def test_one_generation_per_sweep(self, request, monkeypatch, fixture, algo):
        """The sweep's one engine generates its set once; each row equals
        the one a fresh engine gives at that velocity alone."""
        scenario = request.getfixturevalue(fixture)
        calls = []

        def counted(*args):
            calls.append(args)
            return generate_candidates(*args)

        monkeypatch.setattr(engine, "generate_candidates", counted)
        velocities = (0.0, 30.0, 75.0, 120.0)
        report = run_velocity_sweep(scenario, algo, velocities)
        assert len(calls) == 1
        assert report.list_generation_time_s is not None
        fresh = [run_velocity_sweep(scenario, algo, (v,)).selections[0] for v in velocities]
        assert len(calls) == 1 + len(velocities)
        assert [row._replace(selection_time_ms=0.0) for row in report.selections] == [
            row._replace(step=step, selection_time_ms=0.0)
            for step, row in enumerate(fresh, start=1)
        ]

    def test_row_time_covers_the_rejected_attempts(self, tmp_path, monkeypatch):
        """A sweep row carries its decision's whole inner loop, as a dynamic
        row does, not only the ranking step of the applied attempt."""
        for name in ("scenario1.json", "architecture.json", "catalog_scenario1.json",
                     "catalog_scenario1_dynamic.json"):
            shutil.copy(data_dir() / name, tmp_path / name)
        base = json.loads((tmp_path / "catalog_scenario1.json").read_text())
        entry = next(r for r in base["responses"] if r["index"] == 17)
        path = tmp_path / "catalog_scenario1_dynamic.json"
        doc = json.loads(path.read_text())
        doc["responses"].append({**entry, "precondition": "vehicle_stationary"})
        path.write_text(json.dumps(doc))
        scenario = load_scenario(tmp_path / "scenario1.json")

        def counting_clock():
            ticks = iter(range(10**6))
            return SimpleNamespace(perf_counter=lambda: float(next(ticks)))

        monkeypatch.setattr(engine, "time", counting_clock())
        row = run_velocity_sweep(scenario, "lp-max", (50.0,)).selections[0]
        monkeypatch.setattr(engine, "time", counting_clock())
        catalog = load_catalog(scenario.catalog_path("velocity-sweep", "lp-max")).responses
        _, _, _, attempts, _, selection_ms = engine.Engine(
            catalog, make_selector("lp-max")).decide(scenario.event(velocity_kmh=50.0))
        assert [a.response_index for a in attempts] == [17, row.response_index]
        assert row.selection_time_ms == selection_ms > attempts[-1].selection_time_ms

    def test_empty_velocities_rejected(self, scenario1):
        with pytest.raises(DomainError):
            run_velocity_sweep(scenario1, "lp-max", velocities=())

    @pytest.mark.parametrize("velocities", [5, 2.5, iter(()), iter([0.0])],
                             ids=["int", "float", "empty-iterator", "iterator"])
    def test_velocities_must_be_a_sequence(self, scenario1, monkeypatch, velocities):
        loads = _count_loads(monkeypatch)
        with pytest.raises(DomainError, match="velocities must be a non-empty sequence"):
            run_velocity_sweep(scenario1, "lp-max", velocities=velocities)
        assert loads == []


# Numbers as a row may carry them: ints, and floats with the values whose
# JSON spelling differs from ``repr`` or is easy to get wrong.
_numbers = st.one_of(
    st.integers(min_value=-10**30, max_value=10**30),
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1e16, 0.1,
                     math.nan, math.inf, -math.inf]),
)
# Names and targets with what JSON or CSV must escape or quote.
_texts = st.text(st.one_of(st.sampled_from('"\\,\n\r\t\x00\x1f\x7f é€\U0001f697\ud800'),
                           st.characters()), max_size=12)
_rows = st.builds(SelectionRow, st.integers(min_value=0, max_value=10**6),
                  st.integers(min_value=0, max_value=10**6), _texts, _numbers, _numbers,
                  _numbers, _numbers, st.none() | _numbers)
_reports = st.builds(RunReport, _texts, _texts, _texts, st.lists(_rows, max_size=6),
                     seed=st.none() | st.integers(min_value=-2**63, max_value=2**63))


class TestEmission:
    @given(_reports, st.booleans())
    @example(RunReport("static", "saw", "empty"), True)
    @example(RunReport("dynamic-fail", "lp-max", "empty", seed=7), False)
    def test_matches_the_record_dict_reference(self, report, include_timings):
        """Byte for byte what a dict per row, ``json.dumps(record,
        sort_keys=True)`` and the records' projection onto ``CSV_COLUMNS``
        write."""
        records = reference_records(report, include_timings)
        for fmt, expected in (("csv", reference_csv(records)), ("jsonl", reference_jsonl(records))):
            buf = io.StringIO()
            emit_series(report, fmt, buf, include_timings=include_timings)
            assert buf.getvalue() == expected, fmt

    def test_csv_columns_are_the_row_fields_but_velocity(self):
        assert CSV_COLUMNS == tuple(f for f in SelectionRow._fields if f != "velocity_kmh")

    def test_csv_layout(self, scenario1):
        report = run_static_quality(scenario1, "lp-max")
        buf = io.StringIO()
        emit_series(report, "csv", buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(report.selections)
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[1] == "1"  # highest-benefit entry leads the drain

    def test_jsonl_rows_are_sorted_and_complete(self, scenario1):
        report = run_dynamic(scenario1, "lp-max", "success", iterations=3, seed=7)
        buf = io.StringIO()
        emit_series(report, "jsonl", buf)
        rows = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert len(rows) == 3
        for row in rows:
            assert list(row) == sorted(row)
            assert row["mode"] == "dynamic-success"
            assert row["seed"] == 7

    def test_sweep_steps_are_the_row_steps(self, scenario1):
        report = run_velocity_sweep(scenario1, "lp-max", velocities=(0, 50, 100))
        buf = io.StringIO()
        emit_series(report, "jsonl", buf)
        rows = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [r["step"] for r in rows] == [1, 2, 3]
        assert [r["velocity_kmh"] for r in rows] == [0.0, 50.0, 100.0]

    def test_records_carry_the_row_step(self, scenario1):
        report = run_static_quality(scenario1, "lp-max")
        rows = report.selections
        report.selections = [rows[0]._replace(step=7), rows[1]._replace(step=3)]
        buf = io.StringIO()
        emit_series(report, "jsonl", buf)
        assert [json.loads(line)["step"] for line in buf.getvalue().splitlines()] == [7, 3]

    def test_timings_can_be_zeroed_for_determinism(self, scenario1):
        report = run_static_quality(scenario1, "saw")
        a, b = io.StringIO(), io.StringIO()
        emit_series(report, "csv", a, include_timings=False)
        emit_series(run_static_quality(scenario1, "saw"), "csv", b, include_timings=False)
        assert a.getvalue() == b.getvalue()

    def test_with_timings_column_present(self, scenario1):
        report = run_static_quality(scenario1, "lp-max")
        buf = io.StringIO()
        emit_series(report, "csv", buf, include_timings=True)
        header = buf.getvalue().splitlines()[0].split(",")
        assert header[-1] == "selection_time_ms"

    def test_writes_to_path(self, scenario1, tmp_path):
        out = tmp_path / "series.csv"
        emit_series(run_static_quality(scenario1, "lp-max"), "csv", out)
        assert out.exists()
        assert out.read_text().startswith(",".join(CSV_COLUMNS))

    def test_unknown_format_rejected(self, scenario1):
        with pytest.raises(DomainError):
            emit_series(run_static_quality(scenario1, "lp-max"), "yaml", io.StringIO())

    @pytest.mark.parametrize("seed", ["7", True, 7.0], ids=["str", "bool", "float"])
    def test_a_seed_that_is_not_an_int_is_rejected_before_writing(self, tmp_path, seed):
        report = RunReport("dynamic-fail", "lp-max", "s", [SelectionRow(1, 1, "a", 1, 1, 1, 0.1)],
                           seed=seed)
        out = tmp_path / "series.jsonl"
        for fmt in ("csv", "jsonl"):
            with pytest.raises(DomainError, match=f"seed: expected an int or None, got {seed!r}"):
                emit_series(report, fmt, out)
            assert not out.exists()


class TestGenerationScaling:
    def _synthetic_catalog(self, n):
        specs = [
            make_response(i, s=10, a=1, place=Place.DESTINATION)
            for i in range(1, n)
            if i != 31
        ]
        specs.append(make_response(31, terminal=True))
        return specs

    def test_candidate_count_tracks_catalog_size(self):
        event = make_event()
        for n in (10, 100, 500):
            catalog = self._synthetic_catalog(n)
            assert len(generate_candidates(event, catalog)) == len(catalog)

    def test_generation_time_grows_about_linearly(self):
        event = make_event()
        sizes = (100, 200, 400, 800)
        times = []
        for n in sizes:
            catalog = self._synthetic_catalog(n)
            samples = []
            for _ in range(9):
                t0 = time.perf_counter()
                generate_candidates(event, catalog)
                samples.append(time.perf_counter() - t0)
            times.append(statistics.median(samples))
        # log-log regression; slope 1 means linear growth
        xs = [math.log(n) for n in sizes]
        ys = [math.log(t) for t in times]
        mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
            (x - mean_x) ** 2 for x in xs
        )
        assert 0.6 < slope < 1.4, f"growth exponent {slope:.2f} not close to linear"


class TestPeakMemory:
    """``ru_maxrss`` is in bytes on macOS and in KiB on Linux."""

    @pytest.fixture
    def maxrss(self, monkeypatch):
        usage = SimpleNamespace(ru_maxrss=3000)
        monkeypatch.setattr(harness.resource, "getrusage", lambda who: usage)
        return usage.ru_maxrss

    @pytest.mark.parametrize("platform,scale", [("linux", 1024), ("darwin", 1)])
    def test_scaled_to_bytes_by_platform(self, monkeypatch, maxrss, platform, scale):
        monkeypatch.setattr(sys, "platform", platform)
        assert harness._peak_memory_bytes() == maxrss * scale

    def test_none_without_the_resource_module(self, monkeypatch):
        monkeypatch.setattr(harness, "resource", None)
        assert harness._peak_memory_bytes() is None

    def test_a_report_built_directly_reads_the_mark(self, monkeypatch, maxrss):
        monkeypatch.setattr(sys, "platform", "linux")
        assert RunReport("static", "saw", "scenario1").peak_memory_bytes == maxrss * 1024

    def test_a_run_reports_bytes(self, scenario1):
        peak = run_static_quality(scenario1, "lp-max").peak_memory_bytes
        assert isinstance(peak, int) and peak > 2**20
