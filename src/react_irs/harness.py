"""Scenario runner: the evaluation modes behind the CLI.

Three experiment shapes, each deciding through one ``Engine``:

* static quality — ``Engine.decide`` with every precondition forced to
  "rejected", so the strategy drains the whole candidate set; the
  sequence ranks the catalog from the strategy's point of view.
* dynamic — ``Engine.run``, the feedback loop with a fixed verdict
  (always-success or always-failure) adapting over iterations.
* velocity sweep — ``Engine.decide`` at several velocities.

Every run returns one ``RunReport`` whose rows are numbered 1..n: the
attempts of a static drain, the iterations of a dynamic run, or the
velocities of a sweep.  A report emits as JSONL (one record per row) or
as CSV, the projection of those records onto ``CSV_COLUMNS``, which are
``SelectionRow``'s fields without ``velocity_kmh``; with timings
suppressed the output is byte-stable for a fixed seed.  Each JSONL line
equals ``json.dumps(record, sort_keys=True)``, but no record dict is built:
a per-report template holds the encoded constants (algorithm, mode,
scenario, seed) and each line formats only its row's fields into it.
Each CSV row is what ``csv.writer`` writes (``QUOTE_MINIMAL``, one
newline per row), formatted by one f-string that spells each number as
``str`` does; a writer's record buffer reaches 128 KiB on its first row,
so a row goes through one only when its target holds a character that
``csv`` may quote.  Either way, one ``write`` per line.
"""
from __future__ import annotations

import csv
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, NamedTuple, Sequence

from .engine import AdaptationConfig, Attempt, Engine, Failure, NewIntrusion, Success
from .files import Scenario, load_catalog
from .model import DomainError
from .selection import SawConfig, make_selector
# Read by bench/tracing.py, which patches these names; decisions go through Engine.
from .engine import event_impact, inner_loop
from .responses import generate_candidates

try:
    import resource
except ImportError:  # Windows
    resource = None


class SelectionRow(NamedTuple):
    step: int
    response_index: int
    target_asset: str
    cost: float
    benefit: float
    impact: float
    selection_time_ms: float
    velocity_kmh: float | None = None


CSV_COLUMNS = SelectionRow._fields[:-1]
_CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"
#: What ``csv.QUOTE_MINIMAL`` quotes, on some Python: 3.11 leaves "\r" bare
#: under ``lineterminator="\n"`` and 3.12 quotes it, so ``csv`` decides.
_CSV_QUOTED = frozenset(',"\r\n')


def _peak_memory_bytes() -> int | None:
    """Best-effort resident-set high-water mark (``None`` without ``resource``);
    ``ru_maxrss`` is in bytes on macOS and in KiB on Linux."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


@dataclass
class RunReport:
    mode: str
    algorithm: str
    scenario: str
    selections: list[SelectionRow] = field(default_factory=list)
    list_generation_time_s: float | None = None
    peak_memory_bytes: int | None = field(default_factory=_peak_memory_bytes)
    seed: int | None = None


def _row(step: int, attempt: Attempt, impact: float, selection_time_ms: float,
         velocity_kmh: float | None = None) -> SelectionRow:
    return SelectionRow(
        step, attempt.response_index, attempt.target_asset, attempt.cost,
        attempt.benefit, impact, selection_time_ms, velocity_kmh,
    )


def _engine(scenario: Scenario, mode: str, algorithm: str, saw_cfg: SawConfig | None,
            seed: int = 7) -> Engine:
    """The one engine a harness run decides through."""
    catalog = load_catalog(scenario.catalog_path(mode, algorithm))
    return Engine(catalog.responses, make_selector(algorithm, saw_cfg),
                  AdaptationConfig(rng_seed=seed), scenario.effects)


def run_static_quality(
    scenario: Scenario, algorithm: str, saw_cfg: SawConfig | None = None
) -> RunReport:
    """Drain the candidate set with every precondition rejected.

    Only the terminal entry is allowed through, so the attempt sequence
    is the strategy's complete ranking of the catalog, ending at the
    terminal.
    """
    engine = _engine(scenario, "static", algorithm, saw_cfg)
    event = scenario.event()
    _, _, attempts, generation_s, _ = engine.decide(
        event, precondition_policy=lambda candidate: False
    )
    return RunReport(
        mode="static", algorithm=algorithm, scenario=scenario.name,
        selections=[
            _row(step, attempt, event.impact, attempt.selection_time_ms)
            for step, attempt in enumerate(attempts, start=1)
        ],
        list_generation_time_s=generation_s,
    )


def run_dynamic(
    scenario: Scenario,
    algorithm: str,
    verdict: str,
    iterations: int = 5,
    seed: int = 7,
    saw_cfg: SawConfig | None = None,
) -> RunReport:
    """Run the feedback loop with a fixed verdict.

    ``verdict`` is "success" (every response works, the event keeps
    being re-reported until the final iteration) or "failure" (nothing
    works; benefits decay).
    """
    event = scenario.event()
    if verdict == "success":
        def feedback(iteration, applied):
            return Success() if iteration == iterations else NewIntrusion(event)
    elif verdict == "failure":
        def feedback(iteration, applied):
            return Failure()
    else:
        raise DomainError(f"unknown verdict {verdict!r} (expected success or failure)")

    mode = "dynamic-success" if verdict == "success" else "dynamic-fail"
    engine = _engine(scenario, mode, algorithm, saw_cfg, seed)
    trace = engine.run(event, feedback, max_iterations=iterations)

    return RunReport(
        mode=mode, algorithm=algorithm, scenario=scenario.name,
        selections=[
            _row(r.iteration, r.applied, r.impact, r.selection_time_ms)
            for r in trace.records
        ],
        seed=seed,
    )


def run_velocity_sweep(
    scenario: Scenario,
    algorithm: str,
    velocities: Sequence[float] = (0.0, 50.0, 100.0),
    saw_cfg: SawConfig | None = None,
) -> RunReport:
    """Impact and first applicable selection at each velocity, one row per
    velocity.  The set does not depend on the velocity, so only the first
    decision asks for it, and the time its lookup or generation took is
    ``list_generation_time_s``."""
    if not isinstance(velocities, Sequence) or not velocities:
        raise DomainError(f"velocities must be a non-empty sequence, got {velocities!r}")
    engine = _engine(scenario, "velocity-sweep", algorithm, saw_cfg)
    rows = []
    for step, velocity in enumerate(velocities, start=1):
        event = scenario.event(velocity_kmh=velocity)
        _, _, attempts, generation_s, selection_ms = engine.decide(event)
        if step == 1:
            first_generation_s = generation_s
        rows.append(_row(step, attempts[-1], event.impact, selection_ms, float(velocity)))
    return RunReport(mode="velocity-sweep", algorithm=algorithm, scenario=scenario.name,
                     selections=rows, list_generation_time_s=first_generation_s)


def emit_series(
    report: RunReport,
    fmt: str,
    out: IO[str] | str | Path,
    include_timings: bool = True,
) -> None:
    """Write the report's selection rows as CSV or JSONL, one record per row."""
    if fmt not in ("csv", "jsonl"):
        raise DomainError(f"unknown format {fmt!r} (expected csv or jsonl)")
    if report.seed is not None and type(report.seed) is not int:
        raise DomainError(f"seed: expected an int or None, got {report.seed!r}")
    if isinstance(out, (str, Path)):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            _emit(report, fmt, fh, include_timings)
    else:
        _emit(report, fmt, out, include_timings)


#: How ``json`` spells the non-finite floats.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number(value) -> str:
    """An int or float as ``json.dumps`` spells it."""
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NONFINITE.get(text, text)
    return int.__repr__(value)


def _emit(report, fmt, fh, include_timings):
    rows, write = report.selections, fh.write
    if fmt == "csv":
        write(_CSV_HEADER)
        for step, index, target, cost, benefit, impact, ms, _ in rows:
            ms = ms if include_timings else 0.0
            if _CSV_QUOTED.isdisjoint(target):
                write(f"{step},{index},{target},{cost},{benefit},{impact},{ms}\n")
            else:
                csv.writer(fh, lineterminator="\n").writerow(
                    (step, index, target, cost, benefit, impact, ms))
        return
    # The record's keys in sorted order, with the report's constants encoded
    # once: each line formats only its row's own fields.
    text, num = encode_basestring_ascii, _number
    head = f'{{"algorithm": {text(report.algorithm)}, "benefit": '
    mode = f', "mode": {text(report.mode)}, "response_index": '
    seed = "" if report.seed is None else f'"seed": {num(report.seed)}, '
    scenario = f', "scenario": {text(report.scenario)}, {seed}"selection_time_ms": '
    for step, index, target, cost, benefit, impact, ms, velocity in rows:
        ms = num(ms) if include_timings else "0.0"
        velocity = "" if velocity is None else f', "velocity_kmh": {num(velocity)}'
        write(f'{head}{num(benefit)}, "cost": {num(cost)}, "impact": {num(impact)}{mode}{index}'
              f'{scenario}{ms}, "step": {step}, "target_asset": {text(target)}{velocity}}}\n')
