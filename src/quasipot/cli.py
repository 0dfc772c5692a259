"""Command line front end.

Four subcommands share one problem-spec format:

- ``attractors``: locate and classify equilibria, write ``report.json``.
- ``rates``: stationary rates plus the rate function at evaluation points,
  write ``report.json`` and ``rates.csv``.
- ``validate``: everything ``rates`` does, then simulate a ladder of noise
  scales and compare; adds ``empirical.csv``.
- ``linear``: Gramian quasipotential at one attractor, write ``report.json``
  and ``paths.csv``.

Exit codes: 0 on success, 2 for a bad problem spec or output directory, 3
for solver failures, 4 when computed rates violate flux balance.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .pipeline import (
    BalanceError,
    SolverError,
    SpecError,
    dump_json,
    empirical_csv_rows,
    linear_paths_csv_rows,
    parse_problem_spec,
    rates_csv_rows,
    run_attractors,
    run_linear,
    run_rates,
    run_validate,
    validation_dict,
    write_csv,
)

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_SOLVER = 3
EXIT_BALANCE = 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later ``main``."""
    parser = argparse.ArgumentParser(
        prog="quasipot",
        description="Rate functions of invariant measures for small-noise jump diffusions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("attractors", "find and classify equilibria of the drift"),
        ("rates", "stationary rates and rate function at evaluation points"),
        ("validate", "compare predicted rates against direct simulation"),
        ("linear", "closed-form Gramian quasipotential at one attractor"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--spec", required=True, help="path to the JSON problem spec")
        p.add_argument("--out", required=True, help="output directory (created if absent)")
        p.add_argument(
            "--threads", type=int, default=1, help="no effect; dropped at the next perfbench change"
        )
        if name == "validate":
            p.add_argument("--seed", type=int, default=None, help="override the simulation seed")
        if name == "linear":
            p.add_argument(
                "--attractor",
                type=int,
                default=None,
                help="equilibrium index overriding linear.attractor_index",
            )
    return parser


def _load_spec(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file {path} is not valid JSON: {exc}") from None
    return parse_problem_spec(raw)


def _write_report(out_dir: str, payload: dict) -> None:
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8", newline="") as handle:
        handle.write(dump_json(payload))


def _run(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise SpecError(f"cannot create output directory {args.out}: {exc}") from None
    if args.command == "attractors":
        _write_report(args.out, run_attractors(spec))
    elif args.command == "rates":
        report = run_rates(spec)
        _write_report(args.out, report.to_dict())
        header, rows = rates_csv_rows(report)
        write_csv(os.path.join(args.out, "rates.csv"), header, rows)
    elif args.command == "validate":
        report, results, seed = run_validate(spec, seed=args.seed)
        _write_report(args.out, validation_dict(report, results, seed))
        header, rows = rates_csv_rows(report)
        write_csv(os.path.join(args.out, "rates.csv"), header, rows)
        header, rows = empirical_csv_rows(results)
        write_csv(os.path.join(args.out, "empirical.csv"), header, rows)
    elif args.command == "linear":
        result = run_linear(spec, attractor_index=args.attractor)
        _write_report(args.out, result["report"])
        header, rows = linear_paths_csv_rows(result)
        write_csv(os.path.join(args.out, "paths.csv"), header, rows)
    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(args.command)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except BalanceError as exc:
        print(f"balance error: {exc}", file=sys.stderr)
        return EXIT_BALANCE


if __name__ == "__main__":
    sys.exit(main())
