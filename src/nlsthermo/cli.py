"""Command-line surface: beta sweeps, verification reports, instance
generation, and the exactly solvable spin-oscillator example.

Subcommands::

    sweep    emit beta, beta <dQ>, beta0 <dQ>, <dS> rows over a beta grid (CSV)
    verify   certify the matrix, whose lines bound both J-equations, run the
             inequality, slope and cumulant suites, emit JSON
    gen      write a seeded random Gibbs-matrix instance as JSON
    example  write the closed-form spin-oscillator instance as JSON

Exit status contract: 0 on success, 1 on verification or certification
failure, 2 on usage or input errors.  All outputs are deterministic given the
inputs and seed; the verify report carries no wall-clock data (timing goes to
stderr), so identical invocations produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import types
from dataclasses import asdict

import numpy as np

from .core import (CertificationError, EvaluationError, GibbsMatrix, InvalidInputError,
                   TransitionMatrix, certify_gibbs_matrix, instance_to_dict, load_instance)
from .fluctuation import grid_pass, inequality_suite
from .genrand import random_gibbs_instance
from .response import cumulant_suite, slope_suite
from .spinboson import (SpinBosonParams, analytic_entries, analytic_transition_matrix,
                        numerical_transition_matrix, spin1_level_system)

__all__ = ["sweep_records", "main"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

SUITES = ("inequalities", "slopes", "cumulant")


def sweep_records(G, betas) -> np.ndarray:
    """The three swept quantities of Gibbs matrix ``G`` on a beta grid, in
    order: a (steps, 4) array of rows beta, beta <dQ>, beta0 <dQ>, <dS>.

    The two Clausius lines of :func:`inequality_suite` judge the grid; a
    failed line raises an error naming its beta.
    """
    grid = grid_pass(G, betas)
    for line in inequality_suite(grid):
        if line.label.startswith("clausius") and not line.holds:
            raise EvaluationError(f"clausius ordering violated: {line.label}")
    return np.column_stack((grid.betas, grid.betas * grid.dq, G.beta0 * grid.dq, grid.ds))


# ---------------------------------------------------------------------------
# instance sources
# ---------------------------------------------------------------------------

def _resolve_source(args):
    """(system, raw matrix, beta0, G, descriptor) from the source flags; ``G``,
    certified once, at generation, is handed through for ``--random``, else None."""
    if sum(source is not None for source in (args.input, args.random, args.example)) != 1:
        raise InvalidInputError(
            "exactly one instance source is required: --input PATH, "
            "--random N, or --example spin1")
    if args.beta0 is not None and args.example is None:
        raise InvalidInputError("--beta0 applies only to --example; "
                                "--input and --random instances carry their own beta0")
    if args.seed is not None and args.random is None:
        raise InvalidInputError("--seed applies only to --random")
    if args.input is not None:
        return *load_instance(args.input), None, {"source": "file", "path": str(args.input)}
    if args.random is not None:
        seed = 0 if args.seed is None else args.seed
        G = random_gibbs_instance(args.random, seed)
        descriptor = {"source": "random", "n": args.random, "seed": seed}
        return G.system, G.matrix.entries, G.beta0, G, descriptor
    beta0 = 1.0 if args.beta0 is None else args.beta0
    descriptor = {"source": "example", "name": "spin1", "beta0": beta0}
    return spin1_level_system(), analytic_entries(beta0), beta0, None, descriptor


def _beta_grid(args, beta0: float) -> np.ndarray:
    scale = abs(beta0) if beta0 != 0.0 else 1.0
    lo = args.beta_min if args.beta_min is not None else -5.0 * scale
    hi = args.beta_max if args.beta_max is not None else 5.0 * scale
    if not np.isfinite(hi - lo):  # also when either bound is inf or NaN
        raise InvalidInputError("--beta-min, --beta-max and their difference must be finite")
    if not (hi > lo):
        raise InvalidInputError("--beta-max must exceed --beta-min")
    if args.steps < 2:
        raise InvalidInputError("--steps must be at least 2")
    return np.linspace(lo, hi, args.steps)


def _write_text(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    system, raw, beta0, G, _ = _resolve_source(args)
    G = GibbsMatrix(TransitionMatrix(raw), system, beta0) if G is None else G
    rows = sweep_records(G, _beta_grid(args, beta0)).tolist()
    columns = ("beta", "beta_dQ", "beta0_dQ", "dS")
    if args.json:
        text = json.dumps([dict(zip(columns, row)) for row in rows], indent=2) + "\n"
    else:
        line = "{:.16e},{:.16e},{:.16e},{:.16e}\n"
        text = ",".join(columns) + "\n" + "".join(line.format(*row) for row in rows)
    _write_text(text, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    system, raw, beta0, G, descriptor = _resolve_source(args)
    suites = tuple(args.suite) if args.suite else SUITES
    betas = _beta_grid(args, beta0)
    start = time.perf_counter()
    checks, G = (certify_gibbs_matrix(raw, system, beta0) if G is None
                 else (list(G.certification), G))
    if G is not None:
        if "inequalities" in suites:
            checks += inequality_suite(grid_pass(G, betas))
        if "slopes" in suites:
            checks += slope_suite(G)
        if "cumulant" in suites:
            checks += cumulant_suite(G)
    elapsed = time.perf_counter() - start
    overall = all(c.holds for c in checks)
    report = {
        "suite": "nlsthermo-verify",
        "instance": descriptor,
        "grid": {
            "beta_min": float(betas[0]),
            "beta_max": float(betas[-1]),
            "steps": int(len(betas)),
        },
        "checks": [asdict(c) for c in checks],
        "overall_pass": overall,
    }
    _write_text(json.dumps(report, indent=2) + "\n", args.out)
    # timing stays out of the report so identical runs stay byte-identical
    print(f"{len(checks)} checks, overall "
          f"{'PASS' if overall else 'FAIL'} in {elapsed * 1e3:.1f} ms",
          file=sys.stderr)
    return EXIT_OK if overall else EXIT_VERIFY_FAILED


def cmd_gen(args) -> int:
    G = random_gibbs_instance(args.n, args.seed)
    payload = instance_to_dict(G.system, G.matrix, G.beta0)
    _write_text(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_example(args) -> int:
    matrix = analytic_transition_matrix(args.beta0)
    system = spin1_level_system()
    payload = instance_to_dict(system, matrix, args.beta0)
    if args.oracle:
        oracle = numerical_transition_matrix(SpinBosonParams(beta0=args.beta0))
        deviation = float(np.abs(oracle.entries - matrix.entries).max())
        print(f"oracle max entrywise deviation: {deviation:.3e}", file=sys.stderr)
    _write_text(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _instance_count(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("need at least 2 levels")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be nonnegative")
    return value


def _add_source_options(sub) -> None:
    sub.add_argument("--input", metavar="PATH",
                     help="instance JSON file (energies, degeneracies, transition, beta0)")
    sub.add_argument("--random", metavar="N", type=_instance_count,
                     help="seeded random Gibbs-matrix instance with N levels")
    # None marks an option left unset, so one given to the wrong source is caught
    sub.add_argument("--seed", type=_seed,
                     help="seed for --random (default 0)")
    sub.add_argument("--example", choices=["spin1"],
                     help="built-in example instance")
    sub.add_argument("--beta0", type=float,
                     help="bath inverse temperature for --example (default 1)")


def _add_grid_options(sub) -> None:
    sub.add_argument("--beta-min", type=float, default=None,
                     help="grid start (default -5 |beta0|)")
    sub.add_argument("--beta-max", type=float, default=None,
                     help="grid end (default 5 |beta0|)")
    sub.add_argument("--steps", type=int, default=201,
                     help="grid points, endpoints included (default 201)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlsthermo",
        description="Heat and entropy flow of an N-level system coupled to "
                    "a heat bath: sweeps, verification, and instances.")
    commands = parser.add_subparsers(dest="command", required=True)

    sweep = commands.add_parser(
        "sweep", help="emit beta, beta<dQ>, beta0<dQ>, <dS> rows over a beta grid")
    _add_source_options(sweep)
    _add_grid_options(sweep)
    sweep.add_argument("--json", action="store_true",
                       help="emit JSON records instead of CSV")
    sweep.set_defaults(func=cmd_sweep)

    verify = commands.add_parser(
        "verify", help="run identity and inequality checks, emit a JSON report")
    _add_source_options(verify)
    _add_grid_options(verify)
    verify.add_argument("--suite", action="append", choices=list(SUITES),
                        help="restrict to one or more suites (default: all)")
    verify.set_defaults(func=cmd_verify)

    gen = commands.add_parser(
        "gen", help="write a seeded random Gibbs-matrix instance as JSON")
    gen.add_argument("n", type=_instance_count, help="number of levels (>= 2)")
    gen.add_argument("--seed", type=_seed, default=0, help="generator seed (default 0)")
    gen.set_defaults(func=cmd_gen)

    example = commands.add_parser(
        "example", help="write a built-in example instance as JSON")
    example.add_argument("name", choices=["spin1"])
    example.add_argument("--beta0", type=float, default=1.0,
                         help="bath inverse temperature (default 1)")
    example.add_argument("--oracle", action="store_true",
                         help="also run the time-averaged-dynamics oracle and "
                              "report the max entrywise deviation on stderr")
    example.set_defaults(func=cmd_example)
    for sub in (sweep, verify, gen, example):
        sub.add_argument("--out", metavar="PATH", help="write here instead of stdout")
        # argparse's own negative-number pattern has no exponent, so it read the
        # -1e-3 of "--beta-min -1e-3" as an option: any float is a value
        sub._negative_number_matcher = types.SimpleNamespace(match=_is_float)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, EvaluationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        usage = isinstance(exc, InvalidInputError) and not isinstance(exc, CertificationError)
        return EXIT_USAGE if usage else EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
