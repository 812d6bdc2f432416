"""Command-line interface.

    react run --scenario scenario1 --algo lp-max --mode static --out run.csv
    react validate path/to/file.json
    react catalog list

Exit codes: 0 on success, 2 for validation/usage problems, 3 for runtime
failures.  REACT_SEED sets the seed when --seed is not given.
"""
from __future__ import annotations

import sys
from pathlib import Path

import click

from .files import SchemaError, data_dir, load_catalog, load_scenario, resolve_scenario_ref, validate_file
from .harness import emit_series, run_dynamic, run_static_quality, run_velocity_sweep
from .model import DomainError, check_weight
from .responses import response_benefit, response_cost
from .selection import ALGORITHMS, SawConfig

MODES = ("static", "dynamic-success", "dynamic-fail", "velocity-sweep")

EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _parse_velocities(ctx, param, text: str) -> list[float]:
    try:
        velocities = [check_weight(float(v), "velocity") for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None
    if not velocities:
        raise click.BadParameter("needs at least one velocity")
    return velocities


def _saw_config(ctx, param, value: float | None) -> SawConfig | None:
    try:
        return None if value is None else SawConfig(w_benefit=value)
    except DomainError as exc:
        raise click.BadParameter(str(exc)) from None


@click.group()
def main() -> None:
    """Intrusion-response decision engine harness."""


@main.command("run")
@click.option("--scenario", "scenario_ref", required=True,
              help="Scenario file path, or the name of a packaged scenario "
                   "(scenario1, scenario2, demo).")
@click.option("--algo", "algorithm", type=click.Choice(ALGORITHMS), required=True,
              help="Selection strategy.")
@click.option("--mode", type=click.Choice(MODES), default="static", show_default=True,
              help="Evaluation mode.")
@click.option("--iterations", type=click.IntRange(min=1), default=5, show_default=True,
              help="Outer-loop iterations for the dynamic modes.")
@click.option("--seed", type=int, default=7, show_default=True, envvar="REACT_SEED",
              help="Adaptation RNG seed (REACT_SEED, if --seed is not given).")
@click.option("--velocities", default="0,50,100", show_default=True,
              callback=_parse_velocities,
              help="Comma-separated velocities for velocity-sweep mode (km/h).")
@click.option("--saw-benefit-weight", "saw_cfg", type=float, default=None,
              callback=_saw_config, help="Override the SAW benefit criterion weight (cost weight "
                   "becomes its complement).")
@click.option("--out", "out_path", type=click.Path(dir_okay=False, path_type=Path),
              default=None, help="Output file (stdout when omitted).")
@click.option("--format", "fmt", type=click.Choice(("csv", "jsonl")), default="csv",
              show_default=True, help="Output format.")
@click.option("--no-timings", is_flag=True,
              help="Zero the timing column for byte-reproducible output.")
def run(scenario_ref, algorithm, mode, iterations, seed, velocities,
        saw_cfg, out_path, fmt, no_timings) -> None:
    """Run a scenario in one evaluation mode and emit the selection series."""
    try:
        scenario = load_scenario(resolve_scenario_ref(scenario_ref))
        if mode == "static":
            result = run_static_quality(scenario, algorithm, saw_cfg=saw_cfg)
        elif mode == "velocity-sweep":
            result = run_velocity_sweep(scenario, algorithm, velocities, saw_cfg=saw_cfg)
        else:
            verdict = "success" if mode == "dynamic-success" else "failure"
            result = run_dynamic(scenario, algorithm, verdict, iterations=iterations,
                                 seed=seed, saw_cfg=saw_cfg)
    except SchemaError as exc:
        click.echo(f"validation error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    except (DomainError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_RUNTIME)

    try:
        if out_path is None:
            emit_series(result, fmt, sys.stdout, include_timings=not no_timings)
        else:
            emit_series(result, fmt, out_path, include_timings=not no_timings)
    except OSError as exc:
        click.echo(f"cannot write output: {exc}", err=True)
        sys.exit(EXIT_RUNTIME)


@main.command("validate")
@click.argument("file", type=click.Path(path_type=Path))
def validate(file: Path) -> None:
    """Validate an architecture, catalog, or scenario file."""
    try:
        kind = validate_file(file)
    except SchemaError as exc:
        click.echo(f"invalid: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    click.echo(f"OK: {file} is a valid {kind} file")


@main.group("catalog")
def catalog_group() -> None:
    """Catalog inspection."""


@catalog_group.command("list")
@click.option("--catalog", "catalog_path", type=click.Path(path_type=Path),
              default=None, help="Catalog file (defaults to the packaged generic one).")
def catalog_list(catalog_path: Path | None) -> None:
    """Print the catalog as a table."""
    path = catalog_path if catalog_path is not None else data_dir() / "catalog_generic.json"
    try:
        catalog = load_catalog(path)
    except SchemaError as exc:
        click.echo(f"invalid: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)

    click.echo(f"catalog: {catalog.name or path}")
    header = f"{'idx':>3}  {'action':<44} {'applies to':<28} {'cost':>6} {'benefit':>7}"
    click.echo(header)
    click.echo("-" * len(header))
    for spec in sorted(catalog.responses, key=lambda s: s.index):
        if spec.is_general:
            applies = "general"
        else:
            applies = ",".join(sorted(r.value for r in spec.applicable_results))
        if len(applies) > 28:
            applies = applies[:25] + "..."
        cost = "impact" if spec.terminal else f"{response_cost(spec.cost):g}"
        click.echo(
            f"{spec.index:>3}  {spec.action:<44} {applies:<28} {cost:>6} "
            f"{response_benefit(spec.benefit):>7g}"
        )


if __name__ == "__main__":
    main()
