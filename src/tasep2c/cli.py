"""Command line front end: exact formulas, Monte Carlo, identity suites.

Every command prints a machine-readable JSON record on stdout (sweeps print
CSV with the fixed column schema ``x,value,method,t,n``).  Records carry the
command, all effective parameters, the method, values, an error estimate
and the library version; elapsed wall time is included only under
``--timing`` so that default outputs are byte-identical across runs with
the same seed and parameters.

Monte Carlo runs fan out over a process pool when the TASEP2C_WORKERS
environment variable is above 1, each worker advancing its span of runs in
lockstep numpy blocks.  Estimates are bit-identical for any worker count,
because run r draws only from its own SplitMix64 stream keyed by (seed, r).

Exit codes: 0 success, 1 usage error, 2 accuracy/agreement failure,
3 identity verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from functools import lru_cache

from . import __version__, formulas, identities, simulate
from .contour import QuadratureSpec
from .errors import AccuracyError
from .formulas import Configuration, head_word, step_configuration

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ACCURACY = 2
EXIT_VERIFY = 3

CSV_HEADER = "x,value,method,t,n"
_HELP_FMT = argparse.ArgumentDefaultsHelpFormatter


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _workers() -> int:
    raw = os.environ.get("TASEP2C_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise _UsageError(f"TASEP2C_WORKERS must be an integer, got {raw!r}") from None


def _parse_positions(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise _UsageError(f"bad position list {text!r}: {exc}") from None


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise _UsageError(f"bad range {text!r}, expected like 2..5") from None
    if hi < lo:
        raise _UsageError(f"empty range {text!r}")
    return lo, hi


def _quad_spec(args) -> QuadratureSpec:
    return QuadratureSpec(radius=args.radius, points=args.quad_points, tolerance=args.tol)


def _initial_configuration(args) -> tuple[Configuration, int | None]:
    """Initial state from --initial or --step-l; returns (config, shift or None)."""
    if args.initial is not None and args.step_l is not None:
        raise _UsageError("give either --initial or --step-l, not both")
    if args.initial is not None:
        positions = _parse_positions(args.initial)
        if len(positions) != args.n:
            raise _UsageError(f"--initial lists {len(positions)} positions but --n is {args.n}")
        return Configuration(positions, head_word(args.n)), None
    shift = args.step_l if args.step_l is not None else 0
    if shift < 0:
        raise _UsageError("--step-l must be nonnegative")
    return step_configuration(args.n, shift), shift


def _leftmost_value(args, x: int) -> float:
    initial, shift = _initial_configuration(args)
    quad = _quad_spec(args)
    if args.method == "determinant":
        if shift is None and initial.positions != tuple(range(1, args.n + 1)):
            raise _UsageError("the determinant evaluator needs the step initial condition")
        if shift not in (None, 0):
            raise _UsageError("the determinant evaluator needs --step-l 0")
        return formulas.leftmost_probability_step_det(args.n, x, args.time)
    if shift is not None and shift > 0:
        return formulas.leftmost_probability_shifted_step(
            shift, args.n, x, args.time, method=args.method, quad=quad
        )
    return formulas.leftmost_probability(initial, x, args.time, method=args.method, quad=quad)


def _emit(command: str, args, extra: dict, started: float, seed: int | None = None) -> None:
    """Print the JSON record of ``command``, with the wall time since ``started`` under --timing."""
    record = {
        "command": command,
        "parameters": {
            key: value
            for key, value in sorted(vars(args).items())
            if key not in ("func", "command", "subcommand") and value is not None
        },
        "version": __version__,
    }
    if seed is not None:
        record["seed"] = seed
    record.update(extra)
    if args.timing:
        record["runtime"] = time.perf_counter() - started
    print(json.dumps(record, sort_keys=True))


def _error_estimate(args) -> float | None:
    """The quadrature tolerance; the exact routes carry no error estimate."""
    return args.tol if args.method == "quadrature" else None


def _final_configuration(args) -> Configuration:
    positions = _parse_positions(args.final)
    species = args.final_species or args.species or head_word(args.n)
    return Configuration(positions, species)


def _species_initial(args) -> Configuration:
    """Initial state from --initial or --step-l, with the --species word when given."""
    base, _ = _initial_configuration(args)
    return Configuration(base.positions, args.species or head_word(args.n))


def _exact_value(args) -> float:
    """The exact probability of the event the flags name, by --method.

    The event is ``--event`` for compare and the subcommand for exact; a
    leftmost event is taken at ``--position``.
    """
    event = args.event if args.command == "compare" else args.subcommand
    if event == "leftmost":
        return _leftmost_value(args, args.position)
    if args.method == "determinant":
        raise _UsageError("the determinant evaluator serves the leftmost event only")
    initial, final = _species_initial(args), _final_configuration(args)
    return formulas.transition_probability(
        initial, final, args.time, method=args.method, quad=_quad_spec(args)
    )


def _cmd_exact(args) -> int:
    started = time.perf_counter()
    value = _exact_value(args)
    extra = {"method": args.method, "value": value, "error_estimate": _error_estimate(args)}
    _emit(f"exact {args.subcommand}", args, extra, started)
    return EXIT_OK


def _cmd_exact_leftmost(args) -> int:
    if (args.position is None) == (args.sweep is None):
        raise _UsageError("give exactly one of --position or --sweep")
    if args.csv and args.sweep is None:
        raise _UsageError("--csv writes a sweep; give --sweep, not --position")
    if args.sweep is None:
        return _cmd_exact(args)
    started = time.perf_counter()
    lo, hi = _parse_range(args.sweep)
    rows = [(x, _leftmost_value(args, x)) for x in range(lo, hi + 1)]
    lines = [CSV_HEADER] + [
        f"{x},{value!r},{args.method},{args.time!r},{args.n}" for x, value in rows
    ]
    if not args.csv:
        print("\n".join(lines))
        return EXIT_OK
    with open(args.csv, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    extra = {
        "method": args.method,
        "csv": args.csv,
        "rows": len(rows),
        "error_estimate": _error_estimate(args),
    }
    _emit("exact leftmost", args, extra, started)
    return EXIT_OK


def _event_predicate(args):
    """Monte Carlo predicate of the selected event, after checking its flags."""
    if args.event == "leftmost":
        if args.position is None:
            raise _UsageError("leftmost event needs --position")
        if args.species not in (None, head_word(args.n)):
            raise _UsageError("the leftmost event requires the species word 21...1")
        return simulate.leftmost_event(args.position)
    if args.final is None:
        raise _UsageError("transition event needs --final")
    return simulate.transition_event(_final_configuration(args))


def _cmd_simulate(args) -> int:
    started = time.perf_counter()
    if args.runs < 1:
        raise _UsageError("--runs must be at least 1")
    initial = _species_initial(args)
    predicate = _event_predicate(args)
    estimate = simulate.estimate_event(
        initial, predicate, args.time, args.runs, args.seed, processes=_workers()
    )
    extra = {
        "method": "monte-carlo",
        "value": estimate.estimate,
        "error_estimate": estimate.std_error,
        "runs": estimate.runs,
    }
    _emit("simulate", args, extra, started, seed=args.seed)
    return EXIT_OK


def _cmd_compare(args) -> int:
    started = time.perf_counter()
    if args.runs < 1:
        raise _UsageError("--runs must be at least 1")
    if not args.sigma > 0:
        raise _UsageError(f"--sigma must be positive, got {args.sigma}")
    predicate = _event_predicate(args)
    exact = _exact_value(args)
    initial = _species_initial(args)
    estimate = simulate.estimate_event(
        initial, predicate, args.time, args.runs, args.seed, processes=_workers()
    )
    # null-model standard error from the exact probability; exact indicator
    # events (t = 0 or impossible transitions) compare for strict equality
    se = math.sqrt(exact * (1.0 - exact) / args.runs)
    if se > 0:
        z = (estimate.estimate - exact) / se
    else:
        z = 0.0 if estimate.estimate == exact else math.inf
    agree = abs(z) <= args.sigma
    extra = {
        "method": args.method,
        "exact": exact,
        "estimate": estimate.estimate,
        "std_error": se,
        "z": z,
        "sigma": args.sigma,
        "agree": agree,
        "runs": args.runs,
    }
    _emit("compare", args, extra, started, seed=args.seed)
    return EXIT_OK if agree else EXIT_ACCURACY


_VERIFY_BUCKETS = {
    "main": ("main",),
    "equivA": ("equiv_a",),
    "equivB": ("equiv_b", "substitution"),
    "tasep": ("tasep_a", "tasep_b"),
    "vandermonde": ("vandermonde",),
    "detcollapse": ("det_collapse",),
    "amplitude": ("closed_form",),
    "braid": ("braid",),
    "all": identities.SUITE_IDENTITIES,
}


def _cmd_verify(args) -> int:
    lo, hi = _parse_range(args.n_range)
    records = identities.run_identity_suite(
        n_values=range(lo, hi + 1),
        points=args.points,
        seed=args.seed,
        identities=_VERIFY_BUCKETS[args.identity],
    )
    all_passed = True
    for record in records:
        record["version"] = __version__
        all_passed = all_passed and record["passed"]
        print(json.dumps(record, sort_keys=True))
    return EXIT_OK if all_passed else EXIT_VERIFY


def _add_quadrature_flags(parser) -> None:
    parser.add_argument("--tol", type=float, default=1e-12, help="quadrature tolerance")
    parser.add_argument("--radius", type=float, default=0.5, help="contour radius in (0,1)")
    parser.add_argument(
        "--quad-points", type=int, default=16, help="starting quadrature points (power of 2)"
    )


def _add_model_flags(parser) -> None:
    parser.add_argument("--n", type=int, required=True, help="number of particles")
    parser.add_argument("--time", "-t", type=float, required=True, help="evolution time")
    parser.add_argument("--initial", help="comma-separated initial positions")
    parser.add_argument("--step-l", type=int, default=None, help="step-like initial shift l")
    parser.add_argument("--timing", action="store_true", help="include wall time in the record")


def _add_event_flags(parser, event_default: str | None) -> None:
    """--event, required where it has no default, the event's flags, --runs and --seed."""
    parser.add_argument(
        "--event",
        choices=("leftmost", "transition"),
        default=event_default,
        required=event_default is None,
        help="event to estimate",
    )
    parser.add_argument("--position", type=int, help="leftmost event position")
    parser.add_argument("--final", help="transition event final positions")
    parser.add_argument("--species", help="initial species word")
    parser.add_argument("--final-species", help="final species word")
    parser.add_argument("--runs", type=int, required=True, help="Monte Carlo runs")
    parser.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")


def build_parser() -> _Parser:
    parser = _Parser(prog="tasep2c", description=__doc__, formatter_class=_HELP_FMT)
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    exact = commands.add_parser("exact", help="evaluate exact formulas")
    subcommands = exact.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    leftmost = subcommands.add_parser(
        "leftmost", help="leftmost first-class-particle event", formatter_class=_HELP_FMT
    )
    _add_model_flags(leftmost)
    leftmost.add_argument("--position", type=int, help="event position x")
    leftmost.add_argument("--sweep", help="position range like 1..8 (CSV output)")
    leftmost.add_argument(
        "--method",
        choices=("residue", "quadrature", "determinant"),
        default="residue",
        help="evaluation route",
    )
    leftmost.add_argument("--csv", help="write sweep CSV to this path")
    _add_quadrature_flags(leftmost)
    leftmost.set_defaults(func=_cmd_exact_leftmost)

    transition = subcommands.add_parser(
        "transition", help="state-to-state probability", formatter_class=_HELP_FMT
    )
    _add_model_flags(transition)
    transition.add_argument("--final", required=True, help="comma-separated final positions")
    transition.add_argument("--species", help="initial species word, e.g. 21")
    transition.add_argument("--final-species", help="final species word")
    transition.add_argument(
        "--method", choices=("residue", "quadrature"), default="residue", help="evaluation route"
    )
    _add_quadrature_flags(transition)
    transition.set_defaults(func=_cmd_exact)

    sim = commands.add_parser(
        "simulate", help="seeded Monte Carlo estimate", formatter_class=_HELP_FMT
    )
    _add_model_flags(sim)
    _add_event_flags(sim, None)
    sim.set_defaults(func=_cmd_simulate, method="monte-carlo")

    compare = commands.add_parser(
        "compare", help="exact value against Monte Carlo", formatter_class=_HELP_FMT
    )
    _add_model_flags(compare)
    _add_event_flags(compare, "leftmost")
    compare.add_argument(
        "--method",
        choices=("residue", "quadrature", "determinant"),
        default="residue",
        help="exact evaluation route",
    )
    compare.add_argument("--sigma", type=float, default=4.0, help="agreement band width")
    _add_quadrature_flags(compare)
    compare.set_defaults(func=_cmd_compare)

    verify = commands.add_parser(
        "verify",
        help="identity suites at random points of GF(2^61 - 1)",
        description="Check the identities behind the formulas exactly at uniform random "
        "points of GF(p), p = 2^61 - 1. A false identity passes a point with probability "
        "at most degree_bound / p; each record carries its degree_bound.",
        formatter_class=_HELP_FMT,
    )
    verify.add_argument(
        "--identity", choices=sorted(_VERIFY_BUCKETS), required=True, help="identity bucket"
    )
    verify.add_argument("--n-range", default="2..5", help="range of sizes, like 2..5")
    verify.add_argument(
        "--points", type=int, default=100, help="random points of GF(2^61 - 1) per size"
    )
    verify.add_argument("--seed", type=int, default=2024, help="seed of the random points")
    verify.set_defaults(func=_cmd_verify)

    return parser


@lru_cache(maxsize=1)
def _parser() -> _Parser:
    """The parser, built once per process; parsing a command leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # library-level validation (bad times, size caps, species words)
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return EXIT_ACCURACY


if __name__ == "__main__":
    sys.exit(main())
