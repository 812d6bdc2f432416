"""Scenario runner: the evaluation modes behind the CLI.

Three experiment shapes:

* static quality — every precondition is forced to "rejected" so the
  selection strategy drains the whole candidate set; the resulting
  sequence ranks the catalog from the strategy's point of view.
* dynamic — the feedback loop with a scripted verdict (always-success or
  always-failure) showing parameter adaptation over iterations.
* velocity sweep — impact and first selection at several velocities.

Reports emit as JSONL (one record per selection) or as CSV, the fixed
projection of those records onto ``CSV_COLUMNS``; with timings
suppressed the output is byte-stable for a fixed seed.
"""
from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, NamedTuple, Sequence

from .engine import (
    AdaptationConfig,
    Attempt,
    Engine,
    always_failure_script,
    always_success_script,
    inner_loop,
    scripted_feedback,
)
from .files import Scenario, load_catalog
from .model import DomainError
from .responses import generate_candidates
from .risk import event_impact
from .selection import SawConfig, make_selector

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
    impact: float
    selections: list[SelectionRow] = field(default_factory=list)
    list_generation_time_s: float | None = None
    peak_memory_bytes: int | None = None
    seed: int | None = None


def _row(step: int, attempt: Attempt, impact: float, selection_time_ms: float,
         velocity_kmh: float | None = None) -> SelectionRow:
    return SelectionRow(
        step=step,
        response_index=attempt.response_index,
        target_asset=attempt.target_asset,
        cost=attempt.cost,
        benefit=attempt.benefit,
        impact=impact,
        selection_time_ms=selection_time_ms,
        velocity_kmh=velocity_kmh,
    )


def _peak_memory_bytes() -> int | None:
    """Best-effort resident-set high-water mark; informational only."""
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:
        return None


def run_static_quality(
    scenario: Scenario, algorithm: str, saw_cfg: SawConfig | None = None
) -> RunReport:
    """Drain the candidate set with every precondition rejected.

    Only the terminal entry is allowed through, so the attempt sequence
    is the strategy's complete ranking of the catalog, ending at the
    terminal.
    """
    event = scenario.event()
    catalog = load_catalog(scenario.catalog_path("static", algorithm))
    selector = make_selector(algorithm, saw_cfg)

    t0 = time.perf_counter()
    candidates = generate_candidates(event, catalog.responses)
    generation_s = time.perf_counter() - t0

    _, attempts = inner_loop(
        event,
        candidates,
        selector,
        facts=event.vehicle.facts,
        precondition_policy=lambda candidate: False,
    )
    impact = event_impact(event)
    return RunReport(
        mode="static",
        algorithm=algorithm,
        scenario=scenario.name,
        impact=impact,
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
    """Run the feedback loop with a scripted verdict.

    ``verdict`` is "success" (every response works, the event keeps
    being re-reported until the final iteration) or "failure" (nothing
    works; benefits decay).
    """
    if iterations < 1:
        raise DomainError(f"iterations must be >= 1, got {iterations!r}")
    mode = f"dynamic-{'fail' if verdict == 'failure' else verdict}"
    event = scenario.event()
    catalog = load_catalog(scenario.catalog_path(mode, algorithm))
    selector = make_selector(algorithm, saw_cfg)

    if verdict == "success":
        script = always_success_script(event, iterations)
    elif verdict == "failure":
        script = always_failure_script(iterations)
    else:
        raise DomainError(f"unknown verdict {verdict!r} (expected success or failure)")

    engine = Engine(
        catalog.responses,
        selector,
        adaptation=AdaptationConfig(rng_seed=seed),
        effects=scenario.effects,
    )
    trace = engine.run(event, scripted_feedback(script), max_iterations=iterations)

    return RunReport(
        mode=mode,
        algorithm=algorithm,
        scenario=scenario.name,
        impact=trace.records[0].impact if trace.records else 0.0,
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
) -> list[RunReport]:
    """Impact and first applicable selection at each velocity."""
    if not velocities:
        raise DomainError("velocities must be non-empty")
    catalog = load_catalog(scenario.catalog_path("velocity-sweep", algorithm))
    selector = make_selector(algorithm, saw_cfg)
    reports = []
    for velocity in velocities:
        event = scenario.event(velocity_kmh=velocity)
        t0 = time.perf_counter()
        candidates = generate_candidates(event, catalog.responses)
        generation_s = time.perf_counter() - t0
        _, attempts = inner_loop(event, candidates, selector, event.vehicle.facts)
        applied = attempts[-1]
        impact = event_impact(event)
        reports.append(
            RunReport(
                mode="velocity-sweep",
                algorithm=algorithm,
                scenario=scenario.name,
                impact=impact,
                selections=[
                    _row(1, applied, impact, applied.selection_time_ms, float(velocity))
                ],
                list_generation_time_s=generation_s,
                peak_memory_bytes=_peak_memory_bytes(),
            )
        )
    return reports


def _records(reports: Sequence[RunReport], include_timings: bool):
    """One record per selection, with steps numbered across reports."""
    step = 0
    for report in reports:
        for row in report.selections:
            step += 1
            record = {
                "mode": report.mode,
                "algorithm": report.algorithm,
                "scenario": report.scenario,
                "step": step,
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
    report: RunReport | Sequence[RunReport],
    fmt: str,
    out: IO[str] | str | Path,
    include_timings: bool = True,
) -> None:
    """Write the selection series as CSV or JSONL.

    Steps are renumbered sequentially across reports so a sweep (one
    report per velocity) emits as a single table.
    """
    reports = [report] if isinstance(report, RunReport) else list(report)
    if fmt not in ("csv", "jsonl"):
        raise DomainError(f"unknown format {fmt!r} (expected csv or jsonl)")
    if isinstance(out, (str, Path)):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            _emit(reports, fmt, fh, include_timings)
    else:
        _emit(reports, fmt, out, include_timings)


def _emit(reports, fmt, fh, include_timings):
    records = _records(reports, include_timings)
    if fmt == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows([record[c] for c in CSV_COLUMNS] for record in records)
        return
    for record in records:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
