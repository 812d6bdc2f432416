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
as CSV, the fixed projection of those records onto ``CSV_COLUMNS``; with
timings suppressed the output is byte-stable for a fixed seed.
"""
from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, NamedTuple, Sequence

from .engine import AdaptationConfig, Attempt, Engine, Failure, NewIntrusion, Success
from .files import Scenario, load_catalog
from .model import DomainError
from .selection import SawConfig, make_selector
# Read by bench/tracing.py, which patches these names; decisions go through Engine.
from .engine import inner_loop
from .responses import generate_candidates
from .risk import event_impact

try:
    import resource
except ImportError:  # Windows
    resource = None

CSV_COLUMNS = (
    "step",
    "response_index",
    "target_asset",
    "cost",
    "benefit",
    "impact",
    "selection_time_ms",
)


class SelectionRow(NamedTuple):
    step: int
    response_index: int
    target_asset: str
    cost: float
    benefit: float
    impact: float
    selection_time_ms: float
    velocity_kmh: float | None = None


@dataclass
class RunReport:
    mode: str
    algorithm: str
    scenario: str
    selections: list[SelectionRow] = field(default_factory=list)
    list_generation_time_s: float | None = None
    peak_memory_bytes: int | None = None
    seed: int | None = None


def _row(step: int, attempt: Attempt, impact: float, selection_time_ms: float,
         velocity_kmh: float | None = None) -> SelectionRow:
    return SelectionRow(
        step, attempt.response_index, attempt.target_asset, attempt.cost,
        attempt.benefit, impact, selection_time_ms, velocity_kmh,
    )


def _peak_memory_bytes() -> int | None:
    """Best-effort resident-set high-water mark (``None`` without ``resource``);
    ``ru_maxrss`` is in bytes on macOS and in KiB on Linux."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


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
    _, impact, _, attempts, generation_s, _ = engine.decide(
        scenario.event(), precondition_policy=lambda candidate: False
    )
    return RunReport(
        mode="static", algorithm=algorithm, scenario=scenario.name,
        selections=[
            _row(step, attempt, impact, attempt.selection_time_ms)
            for step, attempt in enumerate(attempts, start=1)
        ],
        list_generation_time_s=generation_s,
        peak_memory_bytes=_peak_memory_bytes(),
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
    if iterations < 1:
        raise DomainError(f"iterations must be >= 1, got {iterations!r}")
    mode = f"dynamic-{'fail' if verdict == 'failure' else verdict}"
    event = scenario.event()
    engine = _engine(scenario, mode, algorithm, saw_cfg, seed)

    if verdict == "success":
        def feedback(iteration, applied):
            return Success() if iteration == iterations else NewIntrusion(event)
    elif verdict == "failure":
        def feedback(iteration, applied):
            return Failure()
    else:
        raise DomainError(f"unknown verdict {verdict!r} (expected success or failure)")

    trace = engine.run(event, feedback, max_iterations=iterations)

    return RunReport(
        mode=mode, algorithm=algorithm, scenario=scenario.name,
        selections=[
            _row(r.iteration, r.applied, r.impact, r.selection_time_ms)
            for r in trace.records
        ],
        peak_memory_bytes=_peak_memory_bytes(),
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
    if not velocities:
        raise DomainError("velocities must be non-empty")
    engine = _engine(scenario, "velocity-sweep", algorithm, saw_cfg)
    rows = []
    for step, velocity in enumerate(velocities, start=1):
        _, impact, _, attempts, generation_s, selection_ms = engine.decide(
            scenario.event(velocity_kmh=velocity)
        )
        if step == 1:
            first_generation_s = generation_s
        rows.append(_row(step, attempts[-1], impact, selection_ms, float(velocity)))
    return RunReport(
        mode="velocity-sweep", algorithm=algorithm, scenario=scenario.name, selections=rows,
        list_generation_time_s=first_generation_s, peak_memory_bytes=_peak_memory_bytes(),
    )


def _records(report: RunReport, include_timings: bool):
    """One record per selection row, numbered by the row's own step."""
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
        yield record


def emit_series(
    report: RunReport,
    fmt: str,
    out: IO[str] | str | Path,
    include_timings: bool = True,
) -> None:
    """Write the report's selection rows as CSV or JSONL, one record per row."""
    if fmt not in ("csv", "jsonl"):
        raise DomainError(f"unknown format {fmt!r} (expected csv or jsonl)")
    if isinstance(out, (str, Path)):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            _emit(report, fmt, fh, include_timings)
    else:
        _emit(report, fmt, out, include_timings)


def _emit(report, fmt, fh, include_timings):
    records = _records(report, include_timings)
    if fmt == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows([record[c] for c in CSV_COLUMNS] for record in records)
        return
    for record in records:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
