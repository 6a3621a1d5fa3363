"""Command-line surface: beta sweeps, verification reports, instance
generation, and the exactly solvable spin-oscillator example.

Subcommands::

    sweep    emit beta, beta <dQ>, beta0 <dQ>, <dS> rows over a beta grid (CSV)
    verify   run all applicable identity and inequality checks, emit JSON
    gen      write a seeded random Gibbs-matrix instance as JSON
    example  write the closed-form spin-oscillator instance as JSON

Exit status contract: 0 on success, 1 on verification or certification
failure, 2 on usage or input errors.  All outputs are deterministic given the
inputs and seed; the verify report carries no wall-clock data (timing goes to
stderr), so identical invocations produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    CertificationError,
    EvaluationError,
    GibbsMatrix,
    InvalidInputError,
    TransitionMatrix,
    certify_gibbs_matrix,
    instance_to_dict,
    load_instance,
    make_gibbs_state,
    propagate,
)
from .fluctuation import (
    SLACK_TOL,
    InequalityReport,
    clausius_bounds,
    compare,
    general_j_expectation,
    heat_and_entropy_change,
    j_heat_expectation,
    kl_monotonicity_check,
)
from .genrand import GenerationError, MultiplicityError, random_gibbs_instance
from .response import (
    CLOSED_FORM_RTOL,
    NONNEG_TOL,
    NUMERIC_RTOL,
    cumulant_deviation,
    entropy_slope_numeric,
    slope_direct,
    slope_fluctuation,
    slope_numeric,
    slope_symmetrized,
)
from .spinboson import (
    DegenerateBlockError,
    SpinBosonParams,
    analytic_transition_matrix,
    numerical_transition_matrix,
    spin1_level_system,
)

__all__ = ["SweepRecord", "sweep_records", "main"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

J_EQUATION_TOL = 1e-10
SUITES = ("jequation", "inequalities", "slopes", "cumulant")


@dataclass(frozen=True)
class SweepRecord:
    """One emitted row: beta, beta <dQ>, beta0 <dQ>, <dS>.

    Construction re-checks the two-sided Clausius ordering; a violation can
    only come from an uncertified matrix slipping through, so it is treated
    as an internal error rather than reported.
    """

    beta: float
    beta_dQ: float
    beta0_dQ: float
    dS: float

    def __post_init__(self):
        if self.beta0_dQ - self.dS > SLACK_TOL or self.dS - self.beta_dQ > SLACK_TOL:
            raise EvaluationError(
                f"clausius ordering violated at beta={self.beta!r}")


def sweep_records(G: GibbsMatrix, betas) -> list[SweepRecord]:
    """Evaluate the three swept quantities on a beta grid, in grid order."""
    records = []
    for beta in betas:
        bounds = clausius_bounds(G, float(beta))
        records.append(SweepRecord(
            beta=float(beta),
            beta_dQ=bounds.beta_heat,
            beta0_dQ=bounds.beta0_heat,
            dS=bounds.entropy_increase,
        ))
    return records


# ---------------------------------------------------------------------------
# instance sources
# ---------------------------------------------------------------------------

def _resolve_source(args):
    """Build (system, raw matrix, beta0, descriptor) from the source flags."""
    picked = [name for name, flag in (
        ("--input", args.input is not None),
        ("--random", args.random is not None),
        ("--example", args.example is not None),
    ) if flag]
    if len(picked) != 1:
        raise InvalidInputError(
            "exactly one instance source is required: --input PATH, "
            "--random N, or --example spin1")
    if args.input is not None:
        system, raw, beta0 = load_instance(args.input)
        descriptor = {"source": "file", "path": str(args.input)}
        return system, raw, beta0, descriptor
    if args.random is not None:
        instance = random_gibbs_instance(args.random, args.seed)
        descriptor = {"source": "random", "n": args.random, "seed": args.seed}
        return instance.system, instance.matrix.entries, instance.beta0, descriptor
    system = spin1_level_system()
    raw = analytic_transition_matrix(args.beta0).entries
    descriptor = {"source": "example", "name": "spin1", "beta0": args.beta0}
    return system, raw, args.beta0, descriptor


def _beta_grid(args, beta0: float) -> np.ndarray:
    scale = abs(beta0) if beta0 != 0.0 else 1.0
    lo = args.beta_min if args.beta_min is not None else -5.0 * scale
    hi = args.beta_max if args.beta_max is not None else 5.0 * scale
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
# verify suites
# ---------------------------------------------------------------------------

def _worst(reports: list[InequalityReport], label: str) -> InequalityReport:
    worst = min(reports, key=lambda r: r.slack)
    return InequalityReport(label=f"{label} [{worst.label}]", lhs=worst.lhs,
                            rhs=worst.rhs, slack=worst.slack, holds=worst.holds)


def _jequation_checks(G: GibbsMatrix, betas) -> list[InequalityReport]:
    heat_dev = 0.0
    general_dev = 0.0
    for beta in betas:
        heat_dev = max(heat_dev, abs(j_heat_expectation(G, beta) - 1.0))
        p = make_gibbs_state(G.system, beta).probabilities
        if float(p.weights.min()) > 0.0:
            q = propagate(G.matrix, p)
            value = general_j_expectation(G.matrix, p, G.fixed_point, q)
            general_dev = max(general_dev, abs(value - 1.0))
    return [
        compare("j-equation (heat): max |<e^{-(beta-beta0) dQ}> - 1| over grid",
                heat_dev, J_EQUATION_TOL),
        compare("j-equation (general, ptilde = q): max |value - 1| over grid",
                general_dev, J_EQUATION_TOL),
    ]


def _inequality_checks(G: GibbsMatrix, betas) -> list[InequalityReport]:
    heat_flow, lower, upper, entropy_flow, contraction = [], [], [], [], []
    for beta in betas:
        beta = float(beta)
        at = f"beta={beta:.17g}"
        dq, ds = heat_and_entropy_change(G, beta)
        heat_flow.append(compare(at, 0.0, (beta - G.beta0) * dq))
        lower.append(compare(at, G.beta0 * dq, ds))
        upper.append(compare(at, ds, beta * dq))
        if beta >= 0.0 and G.beta0 > 0.0:
            entropy_flow.append(compare(at, 0.0, (beta - G.beta0) * ds))
        p = make_gibbs_state(G.system, beta).probabilities
        if float(p.weights.min()) > 0.0:
            report = kl_monotonicity_check(G.matrix, p, G.fixed_point)
            contraction.append(compare(at, report.lhs, report.rhs))
    checks = [
        _worst(heat_flow, "heat flow direction: worst (beta-beta0)<dQ> over grid"),
        _worst(lower, "clausius lower bound: worst slack of beta0<dQ> <= <dS>"),
        _worst(upper, "clausius upper bound: worst slack of <dS> <= beta<dQ>"),
    ]
    if entropy_flow:
        checks.append(_worst(
            entropy_flow, "entropy flow direction: worst (beta-beta0)<dS>, beta >= 0"))
    if contraction:
        checks.append(_worst(
            contraction, "KL contraction: worst slack of S(Tp||Tp0) <= S(p||p0)"))
    return checks


def _slope_checks(G: GibbsMatrix) -> list[InequalityReport]:
    direct = slope_direct(G)
    symmetrized = slope_symmetrized(G)
    fluctuation = slope_fluctuation(G)
    numeric = slope_numeric(G)
    scale = max(1.0, abs(direct))
    tangent_gap = abs(numeric - entropy_slope_numeric(G))
    return [
        compare("slope agreement: |direct - symmetrized| <= 1e-9 max(1, |a|)",
                abs(direct - symmetrized), CLOSED_FORM_RTOL * scale),
        compare("slope agreement: |direct - fluctuation| <= 1e-9 max(1, |a|)",
                abs(direct - fluctuation), CLOSED_FORM_RTOL * scale),
        compare("slope agreement: |direct - numeric| <= 1e-4 max(1, |a|)",
                abs(direct - numeric), NUMERIC_RTOL * scale),
        compare("slope nonnegativity: -min(slopes) <= 1e-10",
                -min(direct, symmetrized, fluctuation, numeric), NONNEG_TOL),
        compare("common tangent: |slope(beta<dQ>) - slope(<dS>)| <= 1e-4",
                tangent_gap, NUMERIC_RTOL),
    ]


def _cumulant_checks(G: GibbsMatrix) -> list[InequalityReport]:
    # two-sided max per |t|: the odd and even parts of the remainder add in
    # magnitude on one of the two sides, so no cancellation can distort the fit
    t_grid = (0.1, 0.05, 0.025)
    residuals = [max(cumulant_deviation(G, t), cumulant_deviation(G, -t))
                 for t in t_grid]
    if max(residuals) <= 1e-13:
        return [compare("cumulant truncation: residuals at rounding floor",
                        max(residuals), 1e-13)]
    exponent = float(np.polyfit(np.log(t_grid), np.log(residuals), 1)[0])
    return [compare("cumulant truncation: fitted residual exponent >= 2.5",
                    2.5, exponent)]


def _run_verify(system, raw, beta0, betas, suites):
    cert = certify_gibbs_matrix(raw, system, beta0)
    checks = [
        compare("certification: column-sum deviation <= tol",
                cert.column_sum_deviation, cert.tol),
        compare("certification: fixed-point residual <= tol",
                cert.fixed_point_residual, cert.tol),
        compare("certification: entries nonnegative", -cert.min_entry, cert.tol),
    ]
    if cert.passed:
        G = GibbsMatrix(TransitionMatrix(raw), system, beta0)
        if "jequation" in suites:
            checks += _jequation_checks(G, betas)
        if "inequalities" in suites:
            checks += _inequality_checks(G, betas)
        if "slopes" in suites:
            checks += _slope_checks(G)
        if "cumulant" in suites:
            checks += _cumulant_checks(G)
    return checks


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    system, raw, beta0, _ = _resolve_source(args)
    cert = certify_gibbs_matrix(raw, system, beta0)
    if not cert.passed:
        raise CertificationError(
            f"instance failed certification: column-sum deviation "
            f"{cert.column_sum_deviation:.3e}, fixed-point residual "
            f"{cert.fixed_point_residual:.3e}, min entry {cert.min_entry:.3e} "
            f"(tol {cert.tol:g})")
    G = GibbsMatrix(TransitionMatrix(raw), system, beta0)
    records = sweep_records(G, _beta_grid(args, beta0))
    if args.json:
        text = json.dumps([asdict(r) for r in records], indent=2) + "\n"
    else:
        lines = ["beta,beta_dQ,beta0_dQ,dS"]
        for r in records:
            lines.append(f"{r.beta:.16e},{r.beta_dQ:.16e},"
                         f"{r.beta0_dQ:.16e},{r.dS:.16e}")
        text = "\n".join(lines) + "\n"
    _write_text(text, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    system, raw, beta0, descriptor = _resolve_source(args)
    suites = tuple(args.suite) if args.suite else SUITES
    betas = _beta_grid(args, beta0)
    start = time.perf_counter()
    checks = _run_verify(system, raw, beta0, betas, suites)
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
    instance = random_gibbs_instance(args.n, args.seed)
    payload = instance_to_dict(instance.system, instance.matrix, instance.beta0)
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

def _instance_count(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("need at least 2 levels")
    return value


def _add_source_options(sub) -> None:
    sub.add_argument("--input", metavar="PATH",
                     help="instance JSON file (energies, degeneracies, transition, beta0)")
    sub.add_argument("--random", metavar="N", type=_instance_count,
                     help="seeded random Gibbs-matrix instance with N levels")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for --random (default 0)")
    sub.add_argument("--example", choices=["spin1"],
                     help="built-in example instance")
    sub.add_argument("--beta0", type=float, default=1.0,
                     help="bath inverse temperature for --example (default 1)")


def _add_grid_options(sub) -> None:
    sub.add_argument("--beta-min", type=float, default=None,
                     help="grid start (default -5 |beta0|)")
    sub.add_argument("--beta-max", type=float, default=None,
                     help="grid end (default 5 |beta0|)")
    sub.add_argument("--steps", type=int, default=201,
                     help="grid points, endpoints included (default 201)")


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
    sweep.add_argument("--out", metavar="PATH", help="write here instead of stdout")
    sweep.add_argument("--json", action="store_true",
                       help="emit JSON records instead of CSV")
    sweep.set_defaults(func=cmd_sweep)

    verify = commands.add_parser(
        "verify", help="run identity and inequality checks, emit a JSON report")
    _add_source_options(verify)
    _add_grid_options(verify)
    verify.add_argument("--suite", action="append", choices=list(SUITES),
                        help="restrict to one or more suites (default: all)")
    verify.add_argument("--out", metavar="PATH", help="write here instead of stdout")
    verify.set_defaults(func=cmd_verify)

    gen = commands.add_parser(
        "gen", help="write a seeded random Gibbs-matrix instance as JSON")
    gen.add_argument("n", type=_instance_count, help="number of levels (>= 2)")
    gen.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    gen.add_argument("--out", metavar="PATH", help="write here instead of stdout")
    gen.set_defaults(func=cmd_gen)

    example = commands.add_parser(
        "example", help="write a built-in example instance as JSON")
    example.add_argument("name", choices=["spin1"])
    example.add_argument("--beta0", type=float, default=1.0,
                         help="bath inverse temperature (default 1)")
    example.add_argument("--oracle", action="store_true",
                         help="also run the time-averaged-dynamics oracle and "
                              "report the max entrywise deviation on stderr")
    example.add_argument("--out", metavar="PATH", help="write here instead of stdout")
    example.set_defaults(func=cmd_example)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CertificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EvaluationError, MultiplicityError, GenerationError,
            DegenerateBlockError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
