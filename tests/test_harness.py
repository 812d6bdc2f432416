import dataclasses
import io
import json
import math
import shutil
import statistics
import time

import pytest

import react_irs.engine as engine
from react_irs.files import data_dir, load_catalog, load_scenario
from react_irs.harness import (
    CSV_COLUMNS,
    emit_series,
    run_dynamic,
    run_static_quality,
    run_velocity_sweep,
)
from react_irs.model import DomainError, Place
from react_irs.responses import generate_candidates
from _reference import static_series
from _support import fixture_rows, load_expected, make_event, make_response, report_rows

ALGOS = ("lp-max", "lp-min", "saw")


def _untimed(report):
    rows = [row._replace(selection_time_ms=0.0) for row in report.selections]
    return dataclasses.replace(
        report, selections=rows, list_generation_time_s=None, peak_memory_bytes=None
    )


class TestStaticQuality:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_scenario1_matches_shipped_series(self, scenario1, algo):
        report = run_static_quality(scenario1, algo)
        expected = load_expected(f"static_scenario1_{algo}.json")
        assert report.impact == expected["impact"]
        assert report_rows(report) == fixture_rows(expected)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_scenario2_matches_shipped_series(self, scenario2, algo):
        report = run_static_quality(scenario2, algo)
        expected = load_expected(f"static_scenario2_{algo}.json")
        assert report.impact == expected["impact"]
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
        [("scenario1", a) for a in ALGOS] + [("scenario2", a) for a in ALGOS],
    )
    def test_series_agrees_with_independent_rederivation(
        self, request, fixture, algo
    ):
        scenario = request.getfixturevalue(fixture)
        report = run_static_quality(scenario, algo)
        reference = static_series(
            scenario.catalog_path("static", algo),
            scenario.intrusion_result.value,
            scenario.infected_asset,
            scenario.affected_asset,
            report.impact,
            algo,
        )
        assert report_rows(report) == reference

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

    def test_unknown_verdict_rejected(self, scenario1):
        with pytest.raises(DomainError):
            run_dynamic(scenario1, "lp-max", "maybe")

    def test_iterations_must_be_positive(self, scenario1):
        with pytest.raises(DomainError):
            run_dynamic(scenario1, "lp-max", "success", iterations=0)


class TestVelocitySweep:
    @pytest.mark.parametrize("fixture", ["scenario1", "scenario2"])
    @pytest.mark.parametrize("algo", ALGOS)
    def test_matches_shipped_table(self, request, fixture, algo):
        scenario = request.getfixturevalue(fixture)
        reports = run_velocity_sweep(scenario, algo, velocities=(0, 50, 100))
        expected = load_expected("velocity_sweep.json")[fixture][algo]
        got = [
            {
                "velocity_kmh": int(r.selections[0].velocity_kmh),
                "impact": r.impact,
                "response_index": r.selections[0].response_index,
            }
            for r in reports
        ]
        assert got == expected

    def test_one_report_per_velocity(self, scenario1):
        reports = run_velocity_sweep(scenario1, "lp-max", velocities=(0, 30, 75, 120))
        assert len(reports) == 4
        assert [r.impact for r in reports] == [200.0, 201.0, 300.0, 300.0]

    @pytest.mark.parametrize("fixture", ["scenario1", "scenario2"])
    @pytest.mark.parametrize("algo", ALGOS)
    def test_one_generation_per_sweep(self, request, monkeypatch, fixture, algo):
        """The sweep's one engine generates its set once; each report equals
        the one a fresh engine gives at that velocity alone."""
        scenario = request.getfixturevalue(fixture)
        calls = []

        def counted(*args):
            calls.append(args)
            return generate_candidates(*args)

        monkeypatch.setattr(engine, "generate_candidates", counted)
        velocities = (0.0, 30.0, 75.0, 120.0)
        reports = run_velocity_sweep(scenario, algo, velocities)
        assert len(calls) == 1
        assert [r.list_generation_time_s is None for r in reports] == [False, True, True, True]
        fresh = [run_velocity_sweep(scenario, algo, (v,))[0] for v in velocities]
        assert len(calls) == 1 + len(velocities)
        assert list(map(_untimed, reports)) == list(map(_untimed, fresh))

    def test_empty_velocities_rejected(self, scenario1):
        with pytest.raises(DomainError):
            run_velocity_sweep(scenario1, "lp-max", velocities=())


class TestEmission:
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

    def test_steps_renumbered_across_reports(self, scenario1):
        reports = run_velocity_sweep(scenario1, "lp-max", velocities=(0, 50, 100))
        buf = io.StringIO()
        emit_series(reports, "jsonl", buf)
        rows = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [r["step"] for r in rows] == [1, 2, 3]
        assert [r["velocity_kmh"] for r in rows] == [0.0, 50.0, 100.0]

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
