"""Shared builders for the test suite (not collected by pytest)."""
from __future__ import annotations

import csv
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple
from unittest.mock import patch

from react_irs.engine import FeedbackSource, Success
from react_irs.files import data_dir
from react_irs.harness import CSV_COLUMNS
from react_irs.model import (
    CandidateInstance,
    CostVector,
    EnvironmentTerm,
    ImpactVector,
    IntrusionEvent,
    IntrusionResult,
    Place,
    ResponseSpec,
    StopCondition,
    StopKind,
    VehicleState,
    environment_from_velocity,
)
from react_irs.preconditions import Precondition
from react_irs.selection import (
    brute_force_oracle,
    lp_select_max_benefit,
    lp_select_min_cost,
)

LEVELS = (0, 1, 10, 100)
EXPECTED_DIR = data_dir() / "expected"

# Precondition objects are frozen, so parsed instances can be shared freely;
# the random-set generators below build hundreds of thousands of specs.
_PARSED: dict[str, Precondition] = {}


def _precondition(source: str) -> Precondition:
    if source not in _PARSED:
        _PARSED[source] = Precondition.parse(source)
    return _PARSED[source]


def load_expected(name: str) -> dict:
    return json.loads((EXPECTED_DIR / name).read_text(encoding="utf-8"))


def report_rows(report) -> list[tuple]:
    """(step, index, target, cost, benefit) per selection row."""
    return [
        (r.step, r.response_index, r.target_asset, r.cost, r.benefit)
        for r in report.selections
    ]


def reference_records(report, include_timings: bool = True) -> list[dict]:
    """The JSONL records of a report, one dict per row: with
    ``reference_jsonl`` and ``reference_csv``, the plain emitter that
    ``harness.emit_series`` must match byte for byte."""
    records = []
    for row in report.selections:
        record = {
            "mode": report.mode,
            "algorithm": report.algorithm,
            "scenario": report.scenario,
            "step": row.step,
            "response_index": row.response_index,
            "target_asset": row.target_asset,
            "cost": row.cost,
            "benefit": row.benefit,
            "impact": row.impact,
            "selection_time_ms": row.selection_time_ms if include_timings else 0.0,
        }
        if row.velocity_kmh is not None:
            record["velocity_kmh"] = row.velocity_kmh
        if report.seed is not None:
            record["seed"] = report.seed
        records.append(record)
    return records


def reference_jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


def reference_csv(records: list[dict]) -> str:
    """The records projected onto ``CSV_COLUMNS``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([record[c] for c in CSV_COLUMNS] for record in records)
    return buf.getvalue()


def fixture_rows(doc: dict) -> list[tuple]:
    return [
        (s["step"], s["response_index"], s["target_asset"], s["cost"], s["benefit"])
        for s in doc["steps"]
    ]


def replay(verdicts: list) -> FeedbackSource:
    """A feedback source that returns ``verdicts`` in order, then ``Success()``."""

    def feedback(iteration, applied):
        return verdicts[iteration - 1] if iteration <= len(verdicts) else Success()

    return feedback


def make_response(
    index: int,
    *,
    a: int = 0,
    perf: int = 0,
    s: int = 0,
    f: int = 0,
    o: int = 0,
    p: int = 0,
    w_a: float = 1.0,
    w_perf: float = 1.0,
    weights: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0),
    precondition: str = "true",
    place: Place = Place.DESTINATION,
    is_general: bool = True,
    applicable: frozenset[IntrusionResult] = frozenset(),
    terminal: bool = False,
    action: str | None = None,
) -> ResponseSpec:
    benefit = ImpactVector(
        s=s, f=f, o=o, p=p,
        w_s=weights[0], w_f=weights[1], w_o=weights[2], w_p=weights[3],
    )
    return ResponseSpec(
        index=index,
        action=action or f"action {index}",
        applicable_results=applicable,
        is_general=is_general,
        precondition=_precondition(precondition),
        place=place,
        stop=StopCondition(kind=StopKind.PERSISTENT),
        cost=CostVector(a=a, perf=perf, w_a=w_a, w_perf=w_perf),
        benefit=benefit,
        original_benefit=benefit,
        terminal=terminal,
    )


def make_event(
    *,
    s: int = 100,
    f: int = 0,
    o: int = 100,
    p: int = 0,
    velocity: float = 70.0,
    infected: str = "cam",
    affected: str = "ecu",
    result: IntrusionResult = IntrusionResult.FALSIFY_ALTER_BEHAVIOR,
    facts: dict[str, bool] | None = None,
    w_e: float = 1.0,
) -> IntrusionEvent:
    return IntrusionEvent(
        infected_asset=infected,
        affected_asset=affected,
        result=result,
        impact_params=ImpactVector(s=s, f=f, o=o, p=p),
        env=EnvironmentTerm(e=environment_from_velocity(velocity), w_e=w_e),
        vehicle=VehicleState(velocity_kmh=velocity, facts=facts or {}),
    )


def random_candidate_set(
    rng: random.Random, max_candidates: int = 64
) -> tuple[list[CandidateInstance], float]:
    """A candidate list with exactly one terminal entry, plus an impact.

    Costs and benefits use the discrete level scale with random weights so
    the sets resemble real catalogs; the impact is drawn low enough that
    fully-infeasible sets (terminal fallback) occur regularly.
    """
    n = rng.randint(1, max_candidates)
    terminal_pos = rng.randrange(n)
    candidates = []
    for i in range(n):
        if i == terminal_pos:
            spec = make_response(31, terminal=True)
        else:
            index = rng.choice([j for j in range(1, 40) if j != 31])
            spec = make_response(
                index,
                a=rng.choice(LEVELS),
                perf=rng.choice(LEVELS),
                s=rng.choice(LEVELS),
                f=rng.choice(LEVELS),
                o=rng.choice(LEVELS),
                p=rng.choice(LEVELS),
                w_a=rng.choice((0.0, 0.5, 1.0, 2.0)),
                w_perf=rng.choice((0.0, 0.5, 1.0, 2.0)),
                weights=tuple(rng.choice((0.0, 0.5, 1.0, 2.0)) for _ in range(4)),
            )
        candidates.append(CandidateInstance(spec, rng.choice(("cam", "ecu"))))
    impact = rng.uniform(0.5, 400.0)
    return candidates, impact


def level_grid_set(
    rng: random.Random,
    n: int,
    *,
    unit_weights: bool = False,
    indices: range | None = None,
) -> list[CandidateInstance]:
    """``n`` candidates on the level grid, the terminal entry (index 31)
    last.  The others have index 1..n (31 skipped) and weights drawn from
    [0.5, 1.5]; ``unit_weights`` sets every weight to 1, and ``indices``
    draws each index from that range instead, so indices repeat."""

    def weight():
        return 1.0 if unit_weights else round(rng.uniform(0.5, 1.5), 2)

    def level():
        return rng.choice(LEVELS)

    specs = [
        make_response(
            rng.choice([j for j in indices if j != 31]) if indices else i,
            a=level(), perf=level(), s=level(), f=level(), o=level(), p=level(),
            w_a=weight(), w_perf=weight(), weights=(weight(), weight(), weight(), weight()),
        )
        for i in range(1, n + 1)
        if i != 31
    ]
    specs.append(make_response(31, terminal=True))
    return [CandidateInstance(spec, "ecu") for spec in specs]


def assert_selectors_match_oracle(n_sets: int, seed: int = 20240) -> None:
    """Both optimizers must equal the brute-force scan on random sets."""
    rng = random.Random(seed)
    for trial in range(n_sets):
        candidates, impact = random_candidate_set(rng)
        for objective, select in (
            ("max-benefit", lp_select_max_benefit),
            ("min-cost", lp_select_min_cost),
        ):
            fast = select(candidates, impact)
            slow = brute_force_oracle(candidates, impact, objective)
            assert fast.chosen is slow.chosen, (
                f"trial {trial}, {objective}: optimizer chose "
                f"{fast.chosen.response.index}/{fast.chosen.target_asset}, "
                f"oracle chose {slow.chosen.response.index}/{slow.chosen.target_asset}"
            )
            assert fast.score == slow.score


def by_index(catalog, index: int) -> ResponseSpec:
    """The entry of ``catalog`` with response index ``index``."""
    return next(spec for spec in catalog.responses if spec.index == index)


# A directory, bytes that are not UTF-8, JSON beyond the parser's limits
# (arrays nested 200,000 deep, an int of 5,000 digits), and top levels
# that are not objects.
BAD_FILES = {
    "directory": None,
    "non-utf8": b'{"schema_version": 1, "name": "\xff"}',
    "deep-array": b"[" * 200_000 + b"]" * 200_000,
    "long-number": b'{"schema_version": ' + b"9" * 5_000 + b"}",
    "number": b"5",
    "null": b"null",
    "array": b"[]",
    "string": b'"x"',
}


#: Paths no file can have: one with a NUL, and a lone surrogate, which the
#: file system's encoding cannot encode.
BAD_PATHS = {"nul": "a\u0000b", "surrogate": "\ud800"}


def write_scenario(tmp_path, **changes):
    """``scenario1.json`` with ``changes``, written to ``tmp_path`` beside a
    copy of every shipped document, so its references resolve there."""
    for path in data_dir().glob("*.json"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    path = tmp_path / "scenario.json"
    doc = json.loads((data_dir() / "scenario1.json").read_text())
    path.write_text(json.dumps({**doc, **changes}))
    return path


def write_bad_file(tmp_path, case):
    path = tmp_path / "doc.json"
    if BAD_FILES[case] is None:
        path.mkdir()
    else:
        path.write_bytes(BAD_FILES[case])
    return path


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    #: The ``SystemExit`` of a non-zero exit, or what escaped ``main``.
    exception: BaseException | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


class CliRunner:
    """Runs a CLI ``main(args)`` in this process with its streams captured
    and ``env`` set in ``os.environ`` for the call (a ``None`` value unsets
    the variable)."""

    def invoke(self, main, args, env=None) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        code, exception = 0, None
        try:
            with patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
                for name, value in (env or {}).items():
                    if value is None:
                        os.environ.pop(name, None)
                    else:
                        os.environ[name] = value
                main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            exception = exc if code else None
        except Exception as exc:
            code, exception = 1, exc
        return CliResult(code, out.getvalue(), err.getvalue(), exception)
