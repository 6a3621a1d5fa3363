"""Output checks for the benchmark's CLI ops.

Each checker reads what one op wrote and returns ``None`` when the output is
right, or a one-line reason when it is not.  The checks recompute what they
can from the raw numbers (column sums, fixed points, slacks) instead of
calling the library routines whose output they judge; only the tolerances
are imported, so each tolerance stays defined in one place.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from nlsthermo.core import FIXED_POINT_TOL
from nlsthermo.fluctuation import SLACK_TOL

#: largest oracle-vs-closed-form deviation an ``example --oracle`` may report
ORACLE_TOL = 1e-8

SWEEP_HEADER = "beta,beta_dQ,beta0_dQ,dS"
SPIN1_ENERGIES = (1.0, 0.0, -1.0)
_ORACLE_LINE = re.compile(r"oracle max entrywise deviation: (\S+)")


def check_verify(text: str, steps: int | None) -> str | None:
    """A verify report that parses, is internally consistent and passes;
    ``steps``, when given, is the grid size the report must state."""
    try:
        report = json.loads(text)
        checks = report["checks"]
        overall = report["overall_pass"]
        grid_steps = report["grid"]["steps"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"report does not parse: {type(exc).__name__}: {exc}"
    if steps is not None and grid_steps != steps:
        return f"report grid has {grid_steps} steps, expected {steps}"
    if not checks:
        return "report has no checks"
    for check in checks:
        slack = check["rhs"] - check["lhs"]
        if check["slack"] != slack:
            return f"slack of {check['label']!r} is not rhs - lhs"
        if check["holds"] != (slack >= -SLACK_TOL):
            return f"holds flag of {check['label']!r} contradicts its slack"
    if overall != all(check["holds"] for check in checks):
        return "overall_pass contradicts the checks"
    if overall is not True:
        failed = next(c["label"] for c in checks if not c["holds"])
        return f"overall_pass is false: {failed}"
    return None


def check_sweep(text: str, steps: int) -> str | None:
    """CSV rows: count, 17-digit round trip, grid order, Clausius ordering."""
    lines = text.split("\n")
    if lines[-1] != "":
        return "CSV does not end with a newline"
    lines.pop()
    if not lines or lines[0] != SWEEP_HEADER:
        return "CSV header is missing or wrong"
    rows = lines[1:]
    if len(rows) != steps:
        return f"CSV has {len(rows)} rows, expected {steps}"
    previous = -math.inf
    for i, row in enumerate(rows, start=1):
        fields = row.split(",")
        if len(fields) != 4:
            return f"row {i} has {len(fields)} fields"
        try:
            values = [float(f) for f in fields]
        except ValueError:
            return f"row {i} holds a non-number"
        if any(f"{v:.16e}" != f for v, f in zip(values, fields)):
            return f"row {i} does not round-trip at 17 digits"
        beta, beta_dq, beta0_dq, ds = values
        if not beta > previous:
            return f"row {i}: beta does not increase"
        previous = beta
        if beta0_dq - ds > SLACK_TOL or ds - beta_dq > SLACK_TOL:
            return f"row {i}: Clausius ordering violated at beta={fields[0]}"
    return None


def _certify(energies, degeneracies, transition, beta0) -> str | None:
    """Column sums, nonnegativity and the Gibbs fixed point, at the
    library's certification tolerance."""
    t = np.asarray(transition, dtype=float)
    e = np.asarray(energies, dtype=float)
    d = np.asarray(degeneracies, dtype=float)
    n = e.shape[0]
    if t.shape != (n, n) or d.shape != (n,):
        return f"shapes do not match: transition {t.shape}, {n} levels"
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(e))):
        return "non-finite entries"
    column_dev = float(np.abs(t.sum(axis=0) - 1.0).max())
    if column_dev > FIXED_POINT_TOL:
        return f"column sums deviate by {column_dev:.3e}"
    if float(t.min()) < -FIXED_POINT_TOL:
        return f"negative entry {float(t.min()):.3e}"
    log_w = np.log(d) - beta0 * e
    p0 = np.exp(log_w - log_w.max())
    p0 /= p0.sum()
    residual = float(np.abs(t @ p0 - p0).max())
    if residual > FIXED_POINT_TOL:
        return f"fixed-point residual {residual:.3e}"
    return None


def _load_instance(text: str):
    obj = json.loads(text)
    return (obj["energies"], obj["degeneracies"], obj["transition"],
            float(obj["beta0"]))


def check_instance(text: str, n: int) -> str | None:
    """A ``gen`` instance file: reloads, has N levels and certifies."""
    try:
        energies, degeneracies, transition, beta0 = _load_instance(text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"instance does not reload: {type(exc).__name__}: {exc}"
    if len(energies) != n:
        return f"instance has {len(energies)} levels, expected {n}"
    return _certify(energies, degeneracies, transition, beta0)


def check_example(text: str, beta0: float) -> str | None:
    """An ``example spin1`` instance file: spin-1 levels, the requested
    beta0, and a certified matrix."""
    try:
        energies, degeneracies, transition, file_beta0 = _load_instance(text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"instance does not reload: {type(exc).__name__}: {exc}"
    if tuple(energies) != SPIN1_ENERGIES or file_beta0 != beta0:
        return "instance is not the spin-1 example at the requested beta0"
    return _certify(energies, degeneracies, transition, beta0)


def check_oracle(stderr: str) -> str | None:
    """The deviation ``example --oracle`` reports on stderr."""
    match = _ORACLE_LINE.search(stderr)
    if match is None:
        return "no oracle deviation on stderr"
    deviation = float(match.group(1))
    if not deviation <= ORACLE_TOL:
        return f"oracle deviation {deviation:.3e} exceeds {ORACLE_TOL:g}"
    return None
