"""Command-line interface.

    react run --scenario scenario1 --algo lp-max --mode static --out run.csv
    react validate path/to/file.json
    react catalog list

Exit codes: 0 on success, 2 for validation/usage problems, 3 for runtime
failures.  REACT_SEED sets the seed when --seed is not given.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .files import (
    MODES, SchemaError, data_dir, load_catalog, load_scenario, resolve_scenario_ref, validate_file,
)
from .harness import emit_series, run_dynamic, run_static_quality, run_velocity_sweep
from .model import check_weight
from .responses import response_benefit, response_cost
from .selection import ALGORITHMS, SawConfig

EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _checked(parse):
    """``parse`` as an option type whose ValueError text is the usage error's."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _iterations(text: str) -> int:
    if (count := int(text)) < 1:
        raise ValueError(f"must be at least 1, got {count}")
    return count


def _velocities(text: str) -> list[float]:
    velocities = [check_weight(float(v), "velocity") for v in text.split(",") if v.strip() != ""]
    if not velocities:
        raise ValueError("needs at least one velocity")
    return velocities


def _out_path(text: str) -> Path:
    if os.path.isdir(text):
        raise ValueError(f"{text!r} is a directory")
    return Path(text)


def run(args: argparse.Namespace) -> None:
    """Run a scenario in one evaluation mode and emit the selection series."""
    try:
        scenario = load_scenario(resolve_scenario_ref(args.scenario))
        if args.mode == "static":
            result = run_static_quality(scenario, args.algo, saw_cfg=args.saw_cfg)
        elif args.mode == "velocity-sweep":
            result = run_velocity_sweep(scenario, args.algo, args.velocities, saw_cfg=args.saw_cfg)
        else:
            verdict = "success" if args.mode == "dynamic-success" else "failure"
            result = run_dynamic(scenario, args.algo, verdict, iterations=args.iterations,
                                 seed=args.seed, saw_cfg=args.saw_cfg)
    except SchemaError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        sys.exit(EXIT_VALIDATION)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_RUNTIME)
    try:
        emit_series(result, args.format, args.out or sys.stdout, include_timings=not args.no_timings)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        sys.exit(EXIT_RUNTIME)


def validate(args: argparse.Namespace) -> None:
    """Validate an architecture, catalog, or scenario file."""
    print(f"OK: {args.file} is a valid {validate_file(args.file)} file")


def catalog_list(args: argparse.Namespace) -> None:
    """Print the catalog as a table."""
    path = args.catalog or data_dir() / "catalog_generic.json"
    catalog = load_catalog(path)
    header = f"{'idx':>3}  {'action':<44} {'applies to':<28} {'cost':>6} {'benefit':>7}"
    print(f"catalog: {catalog.name or path}", header, "-" * len(header), sep="\n")
    for spec in sorted(catalog.responses, key=lambda s: s.index):
        applies = ("general" if spec.is_general
                   else ",".join(sorted(r.value for r in spec.applicable_results)))
        applies = applies if len(applies) <= 28 else applies[:25] + "..."
        cost = "impact" if spec.terminal else f"{response_cost(spec.cost):g}"
        benefit = response_benefit(spec.benefit)
        print(f"{spec.index:>3}  {spec.action:<44} {applies:<28} {cost:>6} {benefit:>7g}")


def _parser() -> argparse.ArgumentParser:
    """Built per call, so the ``--seed`` default reads REACT_SEED at that moment."""
    parser = argparse.ArgumentParser(
        prog="react", description="Intrusion-response decision engine harness.", allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True)
    option = commands.add_parser("run", help=run.__doc__, allow_abbrev=False).add_argument
    option("--scenario", required=True, help="Scenario file path, or the name of a packaged "
                                              "scenario (scenario1, scenario2, demo).")
    option("--algo", choices=ALGORITHMS, required=True, help="Selection strategy.")
    option("--mode", choices=MODES, default="static", help="Evaluation mode (default: %(default)s).")
    option("--iterations", type=_checked(_iterations), default=5,
           help="Outer-loop iterations for the dynamic modes (default: %(default)s).")
    # A string default goes through ``type`` only when --seed is absent; "" counts as unset.
    option("--seed", type=int, default=os.environ.get("REACT_SEED") or 7,
           help="Adaptation RNG seed (REACT_SEED, if --seed is not given; default: 7).")
    option("--velocities", type=_checked(_velocities), default="0,50,100",
           help="Comma-separated velocities in km/h for velocity-sweep mode (default: 0,50,100).")
    option("--saw-benefit-weight", dest="saw_cfg", type=_checked(lambda v: SawConfig(float(v))),
           help="Override the SAW benefit criterion weight (cost weight becomes its complement).")
    option("--out", type=_checked(_out_path), help="Output file (stdout when omitted).")
    option("--format", choices=("csv", "jsonl"), default="csv", help="Output format (default: csv).")
    option("--no-timings", action="store_true",
           help="Zero the timing column for byte-reproducible output.")
    commands.add_parser("validate", help=validate.__doc__, allow_abbrev=False).add_argument(
        "file", type=Path)
    catalog = commands.add_parser("catalog", help="Catalog inspection.", allow_abbrev=False)
    option = catalog.add_subparsers(dest="command", required=True).add_parser(
        "list", help=catalog_list.__doc__, allow_abbrev=False).add_argument
    option("--catalog", type=Path, help="Catalog file (defaults to the packaged generic one).")
    return parser


def main(argv: list[str] | None = None) -> None:
    """Entry point of ``react``.  When the reader of standard output leaves
    early, exit 1 without a traceback, as the ``signal`` docs' SIGPIPE note advises."""
    try:
        try:
            args = _parser().parse_args(argv)
            # ``catalog list`` leaves "list" in ``command``: the nested parser writes last.
            {"run": run, "validate": validate, "list": catalog_list}[args.command](args)
        except SchemaError as exc:  # from ``validate`` and ``catalog list``
            print(f"invalid: {exc}", file=sys.stderr)
            sys.exit(EXIT_VALIDATION)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
