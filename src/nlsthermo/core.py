"""Core domain types and operations for finite N-level systems in contact
with a heat bath.

The conventions used throughout the package:

* A transition matrix ``T`` is left stochastic: ``T[m, n]`` is the
  probability of ending in level ``m`` given a start in level ``n``, and
  every column sums to one.
* A sequential pair of energy measurements, one before and one after the
  interaction, has joint outcome probability ``P(m, n) = T[m, n] p[n]``.
* Entropies use natural logarithms and the 0 log 0 = 0 convention; the
  Kullback-Leibler divergence returns ``inf`` (a sentinel, not an exception)
  when the second argument misses support of the first.
* A "Gibbs matrix" is a left stochastic matrix that holds the Gibbs state at
  the bath inverse temperature ``beta0`` fixed, the only structural
  assumption the inequality checks in :mod:`nlsthermo.fluctuation` rely on.
  Its rules live here only.  The fixed point is certified relatively:
  rho = T p0 / p0, one dense sum in log space, has max |rho - 1| <=
  ``FIXED_POINT_TOL`` (so max |T p0 - p0| <= tol too, as p0 <= 1).  At every
  beta that gives |J_heat - 1| <= max |rho - 1|, the column-sum line gives
  |J_general - 1| <= max |column sum - 1| (both J values are convex
  combinations, so these two lines are the J-equation checks), and, by KL
  contraction,
  <dS> - beta0 <dQ> = S(p || p0) - S(q || T p0) - sum_m q_m log rho_m
  >= -log(1 + tol).  A :class:`GibbsMatrix` is certified once, by its
  constructor, and keeps the lines and the table (log p0, rho) the grid reads.

All values here are immutable after construction and all operations are pure
functions, so everything is safe to share between threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "InvalidInputError",
    "EvaluationError",
    "CertificationError",
    "LevelSystem",
    "ProbabilityVector",
    "TransitionMatrix",
    "GibbsMatrix",
    "TwoPointDistribution",
    "InequalityReport",
    "SUM_TOL",
    "FIXED_POINT_TOL",
    "make_gibbs_state",
    "gibbs_log_weights",
    "propagate",
    "two_point_distribution",
    "expectation",
    "mean_energy",
    "entropy",
    "kl_divergence",
    "delta_q_table",
    "delta_s_table",
    "certify_gibbs_matrix",
    "instance_to_dict",
    "instance_from_dict",
    "save_instance",
    "load_instance",
]

#: absolute tolerance on probability normalization and column sums
SUM_TOL = 1e-12

#: tolerance on max |rho - 1|, rho = T p0 / p0, for externally supplied matrices
FIXED_POINT_TOL = 1e-10

#: largest degeneracy: every integer up to it is an exact double
MAX_DEGENERACY = 2.0 ** 53


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class EvaluationError(ArithmeticError):
    """Raised when a computation hits a value it cannot represent, for
    example a random variable that is not finite on a positive-probability
    outcome; the base of every error other than a bad input."""


class CertificationError(InvalidInputError):
    """Raised when a matrix breaks a rule of :func:`certify_gibbs_matrix`."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _float_array(values, name: str) -> np.ndarray:
    """A C-ordered float copy of ``values``; a ragged or non-numeric input
    raises :class:`InvalidInputError` naming ``name``."""
    try:
        return np.array(values, dtype=float, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{name} must be an array of numbers: {exc}") from exc


def _weights_of(p) -> np.ndarray:
    """Accept a ProbabilityVector or a bare weight array."""
    if isinstance(p, ProbabilityVector):
        return p.weights
    return _float_array(p, "distribution")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LevelSystem:
    """Energies and degeneracies of an N-level system, N >= 2.

    Energies are dimensionless reals; degeneracies are integers in
    [1, 2**53], the range a double holds exactly.
    """

    energies: np.ndarray
    degeneracies: np.ndarray

    def __post_init__(self):
        # copy so freezing never hijacks a caller-owned array
        e = _float_array(self.energies, "energies")
        d = _float_array(self.degeneracies, "degeneracies")
        if e.ndim != 1 or d.ndim != 1 or e.shape != d.shape:
            raise InvalidInputError(
                "energies and degeneracies must be 1-D sequences of equal length")
        if e.shape[0] < 2:
            raise InvalidInputError("a level system needs at least two levels")
        if not np.all(np.isfinite(e)):
            raise InvalidInputError("energies must be finite")
        if not (np.all(d >= 1) and np.all(d <= MAX_DEGENERACY) and np.all(d == np.round(d))):
            raise InvalidInputError("degeneracies must be integers in [1, 2**53]")
        object.__setattr__(self, "energies", _freeze(e))
        object.__setattr__(self, "degeneracies", _freeze(d.astype(np.int64)))

    @property
    def size(self) -> int:
        return self.energies.shape[0]

    def degeneracy_weights(self) -> np.ndarray:
        return self.degeneracies.astype(float)


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """A probability distribution over levels: entries in [0, 1], sum 1."""

    weights: np.ndarray

    def __post_init__(self):
        w = _float_array(self.weights, "weights")
        if w.ndim != 1 or w.shape[0] < 1:
            raise InvalidInputError("weights must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(w)):
            raise InvalidInputError("weights must be finite")
        if np.any(w < 0.0) or np.any(w > 1.0):
            raise InvalidInputError("weights must lie in [0, 1]")
        if abs(float(w.sum()) - 1.0) > SUM_TOL:
            raise InvalidInputError(
                f"weights must sum to 1 within {SUM_TOL:g}, got {float(w.sum())!r}")
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def size(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Left stochastic matrix: nonnegative entries, columns summing to one
    within ``SUM_TOL``; a broken rule raises :class:`CertificationError`."""

    entries: np.ndarray

    def __post_init__(self):
        t = _square_finite(self.entries)
        for _, failure in (_sign_rule(t), _column_sum_rule(t)):
            if failure is not None:
                raise CertificationError(failure)
        object.__setattr__(self, "entries", _freeze(t))

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class GibbsMatrix:
    """A transition matrix certified to fix the Gibbs state at ``beta0``.

    Construction certifies once, keeping the report lines of
    :func:`certify_gibbs_matrix` as ``certification`` and the table ``log_p0``,
    ``rho`` = T p0 / p0, all read-only; it raises :class:`CertificationError`,
    naming the level, when ``max |rho - 1|`` is above ``FIXED_POINT_TOL``.
    """

    matrix: TransitionMatrix
    system: LevelSystem
    beta0: float
    fixed_point: ProbabilityVector = field(init=False, repr=False)
    certification: tuple[InequalityReport, ...] = field(init=False, repr=False)
    log_p0: np.ndarray = field(init=False, repr=False)
    rho: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "beta0", float(self.beta0))
        rules, log_p0, rho = _certification(self.matrix.entries, self.system, self.beta0)
        _, failure = rules[1]  # the transition matrix holds the other two
        if failure is not None:
            raise CertificationError(f"{failure} at beta0={self.beta0!r}")
        w = np.exp(log_p0)
        object.__setattr__(self, "fixed_point", ProbabilityVector(w / w.sum()))
        object.__setattr__(self, "certification", tuple(line for line, _ in rules))
        object.__setattr__(self, "log_p0", _freeze(log_p0))
        object.__setattr__(self, "rho", _freeze(rho))

    @property
    def size(self) -> int:
        return self.matrix.size


@dataclass(frozen=True, eq=False)
class TwoPointDistribution:
    """Joint outcome statistics of sequential energy measurements.

    ``joint[m, n] = T[m, n] p[n]``; the column marginal recovers the initial
    distribution and the row marginal the propagated one.
    """

    joint: np.ndarray
    initial: ProbabilityVector
    final: ProbabilityVector

    def __post_init__(self):
        j = _float_array(self.joint, "joint")
        if j.ndim != 2 or j.shape[0] != j.shape[1]:
            raise InvalidInputError("joint must be a square matrix")
        if j.shape[0] != self.initial.size or j.shape[0] != self.final.size:
            raise InvalidInputError("joint and marginals have mismatched sizes")
        if np.any(j < 0.0):
            raise InvalidInputError("joint probabilities must be nonnegative")
        if abs(float(j.sum()) - 1.0) > SUM_TOL:
            raise InvalidInputError("joint probabilities must sum to 1")
        if np.abs(j.sum(axis=1) - self.final.weights).max() > SUM_TOL:
            raise InvalidInputError("row marginal does not match the final distribution")
        if np.abs(j.sum(axis=0) - self.initial.weights).max() > SUM_TOL:
            raise InvalidInputError("column marginal does not match the initial distribution")
        object.__setattr__(self, "joint", _freeze(j))

    @property
    def size(self) -> int:
        return self.joint.shape[0]


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of checking ``lhs <= rhs``; ``slack = rhs - lhs``."""

    label: str
    lhs: float
    rhs: float
    slack: float
    holds: bool


# ---------------------------------------------------------------------------
# construction and propagation
# ---------------------------------------------------------------------------

def gibbs_log_weights(system: LevelSystem, beta):
    """Log-probabilities log p_n and log partition function log Z at inverse
    temperature ``beta``, a float or a 1-D array of betas.

    An array gives one row of log-probabilities per beta and an array of
    log Z; a float gives one row and a float.  Each row is shifted by its
    maximum exponent before exponentiating, so large ``|beta * E_n|``
    neither overflows nor loses the normalization, and a row is bit for bit
    the same whether its beta comes alone or in an array.  An exponent
    below the double range is a weight of 0, but a row whose largest one
    leaves it raises :class:`EvaluationError` naming its beta.
    """
    beta = _float_array(beta, "beta")
    if not np.all(np.isfinite(beta)):
        raise InvalidInputError("beta must be finite")
    with np.errstate(over="ignore"):
        scores = np.log(system.degeneracy_weights()) - beta[..., None] * system.energies
        shift = scores.max(axis=-1, keepdims=True)
        if not np.isfinite(shift).all():
            bad = float(np.atleast_1d(beta)[np.argmin(np.isfinite(shift[..., 0]))])
            raise EvaluationError(f"the Gibbs exponent leaves the double range at beta={bad!r}")
        log_z = shift + np.log(np.exp(scores - shift).sum(axis=-1, keepdims=True))
        return scores - log_z, float(log_z[0]) if beta.ndim == 0 else log_z[..., 0]


def make_gibbs_state(system: LevelSystem, beta: float) -> ProbabilityVector:
    """Gibbs state p_n = d_n exp(-beta E_n) / Z at a float ``beta``.  Any
    finite beta is admissible, including negative inverse temperatures;
    log Z is in :func:`gibbs_log_weights`."""
    log_p, _ = gibbs_log_weights(system, beta)
    w = np.exp(log_p)
    return ProbabilityVector(w / w.sum())


def propagate(T: TransitionMatrix, p: ProbabilityVector) -> ProbabilityVector:
    """Apply the transition matrix: q_m = sum_n T[m, n] p_n."""
    w = _weights_of(p)
    if T.size != w.shape[0]:
        raise InvalidInputError("matrix and distribution sizes differ")
    q = T.entries @ w
    # absorb O(N eps) rounding at the simplex boundary
    return ProbabilityVector(np.clip(q, 0.0, 1.0))


def two_point_distribution(T: TransitionMatrix, p: ProbabilityVector) -> TwoPointDistribution:
    """Joint distribution of the sequential measurement pair under ``T``."""
    if not isinstance(p, ProbabilityVector):
        p = ProbabilityVector(p)
    q = propagate(T, p)
    joint = T.entries * p.weights[None, :]
    return TwoPointDistribution(joint=joint, initial=p, final=q)


# ---------------------------------------------------------------------------
# expectations, entropies, divergences
# ---------------------------------------------------------------------------

def _expectation_sum(joint: np.ndarray, values: np.ndarray) -> float:
    """sum of joint[m,n] * values[m,n] over pairs with joint > 0."""
    return float(np.sum(joint * np.where(joint > 0.0, values, 0.0)))


def expectation(dist: TwoPointDistribution, table) -> float:
    """Expectation over the two-point distribution of a random variable
    given as an N x N table of values ``table[m, n]``.

    Outcomes with zero joint probability are skipped.  A non-finite value on
    an outcome with positive probability raises :class:`EvaluationError`
    naming the pair.
    """
    joint = dist.joint
    values = _float_array(table, "table")
    if values.shape != joint.shape:
        raise InvalidInputError("random-variable table shape does not match the joint")
    bad = (joint > 0.0) & ~np.isfinite(values)
    if bad.any():
        m, n = np.argwhere(bad)[0]
        raise EvaluationError(
            f"random variable is not finite at outcome (m={int(m)}, n={int(n)})")
    return _expectation_sum(joint, values)


def mean_energy(system: LevelSystem, p) -> float:
    """E(p) = sum_n p_n E_n."""
    w = _weights_of(p)
    if w.shape[0] != system.size:
        raise InvalidInputError("distribution and level system sizes differ")
    return float(system.energies @ w)


def entropy(system: LevelSystem, p) -> float:
    """S(p) = -sum_n p_n log(p_n / d_n), in natural-log units.

    For a Gibbs state this satisfies S(p) = beta E(p) + log Z.
    """
    w = _weights_of(p)
    if w.shape[0] != system.size:
        raise InvalidInputError("distribution and level system sizes differ")
    mask = w > 0.0
    wm = w[mask]
    return float(-np.sum(wm * np.log(wm / system.degeneracy_weights()[mask])))


def kl_divergence(q, p) -> float:
    """Kullback-Leibler divergence S(q || p) = sum_n q_n log(q_n / p_n).

    Nonnegative for any pair of distributions.  Returns ``inf`` when some
    q_n > 0 has p_n = 0; 0 log(0 / x) counts as 0.
    """
    qw = _weights_of(q)
    pw = _weights_of(p)
    if qw.shape != pw.shape:
        raise InvalidInputError("distributions have mismatched sizes")
    mask = qw > 0.0
    if np.any(pw[mask] == 0.0):
        return float("inf")
    qm = qw[mask]
    return float(np.sum(qm * np.log(qm / pw[mask])))


#: phi(x) / x^2 = sum_{k >= 2} (-x)^(k-2) / (k (k - 1)) to k = 16, for np.polyval
_PHI_SERIES = np.array([(-1.0) ** k / (k * (k - 1)) for k in range(16, 1, -1)])


def _termwise_kl(p: np.ndarray, log_p: np.ndarray, step: np.ndarray) -> float:
    """sum_m p_m phi(step_m / p_m), phi(x) = (1 + x) log1p(x) - x >= 0, which is
    S(p + step || p) - sum step: phi's series where |x| <= 0.1 (the first term
    left out is below u / 10), else q (log q - log p) - step with q = p + step
    and the caller's ``log_p``, finite where p underflows to 0."""
    far = np.abs(step) > 0.1 * p
    near = ~far & (p > 0.0)  # a zero weight under a zero step adds 0
    x = step[near] / p[near]
    q = p[far] + step[far]
    log_q = np.log(q, out=np.zeros(q.shape), where=q > 0.0)  # 0 log 0 = 0
    return float(np.sum(step[near] * x * np.polyval(_PHI_SERIES, x))
                 + np.sum(q * (log_q - log_p[far]) - step[far]))


# ---------------------------------------------------------------------------
# heat and entropy-increase random variables
# ---------------------------------------------------------------------------

def delta_q_table(system: LevelSystem) -> np.ndarray:
    """Heat table dQ[m, n] = E_m - E_n (energy gained by the system)."""
    e = system.energies
    return _freeze(e[:, None] - e[None, :])


def delta_s_table(system: LevelSystem, p, q) -> np.ndarray:
    """Entropy-increase table dS[m, n] = log(p_n / d_n) - log(q_m / d_m).

    ``q`` must be the propagated distribution of ``p`` under the transition
    matrix being analysed.  Then every outcome (m, n) with positive joint
    probability has p_n > 0 (the joint is T[m,n] p_n) and q_m >= T[m,n] p_n > 0,
    so the logarithms are finite wherever the expectation reads them.  A zero
    weight gives a non-finite entry (-inf in a column with p_n = 0, +inf in a
    row with q_m = 0), which only an outcome of a joint that does not match
    (p, q) can reach, and :func:`expectation` reports that as an
    :class:`EvaluationError`.

    Its mean over the matching two-point distribution is S(q) - S(p).
    """
    d = system.degeneracy_weights()
    lp, lq = (np.log(w / d, out=np.full(w.shape, -np.inf), where=w > 0.0)
              for w in (_weights_of(p), _weights_of(q)))
    # a column with p_n = 0 stays -inf, skipping -inf - (-inf) where q_m = 0 too
    table = np.full((lq.shape[0], lp.shape[0]), -np.inf)
    np.subtract(lp[None, :], lq[:, None], out=table, where=np.isfinite(lp)[None, :])
    return _freeze(table)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def _square_finite(entries) -> np.ndarray:
    """A C-ordered float copy of a square, at least 2x2, finite matrix."""
    t = _float_array(entries, "transition matrix entries")
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] < 2:
        raise InvalidInputError("transition matrix must be square and at least 2x2")
    if not np.all(np.isfinite(t)):
        raise InvalidInputError("transition matrix entries must be finite")
    return t


# the Gibbs-matrix rules: each returns its report line, value <= bound with no
# slack (NaN fails), and, when it breaks, an error that opens with its label

def _rule_line(label: str, value: float, bound: float, why: str):
    holds = value <= bound
    return (InequalityReport(label, value, bound, bound - value, holds),
            None if holds else f"{label} fails: {why}")


def _column_sum_rule(t: np.ndarray) -> tuple[InequalityReport, str | None]:
    """max |column sum - 1| <= ``SUM_TOL``."""
    sums = t.sum(axis=0)
    n = int(np.argmax(np.abs(sums - 1.0)))
    return _rule_line("certification: column-sum deviation <= tol",
                      abs(float(sums[n]) - 1.0), SUM_TOL,
                      f"column {n} sums to {float(sums[n])!r}, outside 1 +/- {SUM_TOL:g}")


def _sign_rule(t: np.ndarray) -> tuple[InequalityReport, str | None]:
    """-(min entry) <= 0."""
    low = float(t.min())
    return _rule_line("certification: entries nonnegative", -low, 0.0,
                      f"transition matrix entries must be nonnegative, got {low!r}")


def _fixed_point_ratio(t: np.ndarray, log_p0: np.ndarray, beta0: float) -> np.ndarray:
    """rho_m = (t p0)_m / p0_m, the dense sum of exp(log t[m,n] + log p0_n -
    log p0_m) over n, where an entry <= 0 adds exactly 0: exact where p0
    underflows, inf on overflow.  A log weight of -inf raises
    :class:`EvaluationError` naming its level."""
    if np.isneginf(log_p0).any():
        raise EvaluationError(f"the Gibbs log weight of level m={int(np.argmin(log_p0))} "
                              f"leaves the double range at beta0={beta0!r}")
    terms = np.log(t, out=np.full(t.shape, -np.inf), where=t > 0.0)
    terms += log_p0[None, :]  # in place: one N x N buffer
    terms -= log_p0[:, None]
    with np.errstate(over="ignore"):
        return np.exp(terms, out=terms).sum(axis=1)


def _certification(t: np.ndarray, system: LevelSystem, beta0: float):
    """The one certification of square finite matrix ``t``: each rule's
    (line, error or None) in report order (column sum, fixed point with
    max |rho - 1| <= ``FIXED_POINT_TOL``, sign), and the table (log p0, rho)."""
    if t.shape[0] != system.size:
        raise InvalidInputError("matrix and level system sizes differ")
    log_p0, _ = gibbs_log_weights(system, beta0)
    rho = _fixed_point_ratio(t, log_p0, beta0)
    m = int(np.argmax(np.abs(rho - 1.0)))
    worst = abs(float(rho[m]) - 1.0)
    fixed_point = _rule_line(
        "certification: fixed-point ratio max |rho - 1| <= tol", worst, FIXED_POINT_TOL,
        f"|rho - 1| = {worst:.3e} at level m={m} exceeds {FIXED_POINT_TOL:g}")
    return (_column_sum_rule(t), fixed_point, _sign_rule(t)), log_p0, rho


def certify_gibbs_matrix(matrix, system: LevelSystem, beta0: float
                         ) -> tuple[list[InequalityReport], GibbsMatrix | None]:
    """A report line per rule of the Gibbs-matrix constructors, its value as
    ``lhs`` against its bound as ``rhs`` and ``holds`` with no slack; a broken
    rule lands in its line instead of raising.  Then the Gibbs matrix if
    every line holds, else ``None``.  ``matrix`` may be a bare array.  The
    lines of a matrix that constructs are its ``G.certification``."""
    try:
        G = GibbsMatrix(matrix if isinstance(matrix, TransitionMatrix)
                        else TransitionMatrix(matrix), system, beta0)
    except CertificationError:  # only a failure pays for forming the lines again
        t = matrix.entries if isinstance(matrix, TransitionMatrix) else _square_finite(matrix)
        return [line for line, _ in _certification(t, system, float(beta0))[0]], None
    return list(G.certification), G


# ---------------------------------------------------------------------------
# JSON instance schema (consumed by the command-line interface)
# ---------------------------------------------------------------------------

def instance_to_dict(system: LevelSystem, matrix, beta0: float) -> dict:
    """Serialize (system, transition matrix, beta0) to the instance schema.

    Schema: ``energies`` (numbers), ``degeneracies`` (integers),
    ``transition`` (N rows of N numbers, entry [m][n] = P(m <- n)),
    ``beta0`` (number).
    """
    raw = matrix.entries if isinstance(matrix, TransitionMatrix) else \
        np.asarray(matrix, dtype=float)
    return {
        "energies": system.energies.tolist(),
        "degeneracies": system.degeneracies.tolist(),
        "transition": raw.tolist(),
        "beta0": float(beta0),
    }


def instance_from_dict(obj) -> tuple[LevelSystem, np.ndarray, float]:
    """Parse the instance schema.

    Returns the level system, the raw transition matrix (validation and
    certification are left to the caller so defects can be reported), and
    beta0.  Schema violations raise :class:`InvalidInputError` naming the
    offending field.
    """
    if not isinstance(obj, dict):
        raise InvalidInputError("instance must be a JSON object")
    for key in ("energies", "degeneracies", "transition", "beta0"):
        if key not in obj:
            raise InvalidInputError(f"field '{key}': missing")
    arrays = []
    for key in ("energies", "degeneracies", "transition"):
        try:
            values = np.asarray(obj[key])
            if values.dtype.kind in "bSU":
                raise TypeError("must hold numbers, not strings or booleans")
            arrays.append(values.astype(float))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(f"field '{key}': {exc}") from exc
    energies, degeneracies, transition = arrays
    if not isinstance(obj["beta0"], (int, float)) or isinstance(obj["beta0"], bool):
        raise InvalidInputError("field 'beta0': must be a number")
    try:
        beta0 = float(obj["beta0"])
    except OverflowError as exc:  # a JSON integer past the double range
        raise InvalidInputError(f"field 'beta0': {exc}") from exc
    if not math.isfinite(beta0):
        raise InvalidInputError("field 'beta0': must be finite")
    try:
        system = LevelSystem(energies, degeneracies)
    except InvalidInputError as exc:
        raise InvalidInputError(f"fields 'energies'/'degeneracies': {exc}") from exc
    n = system.size
    if transition.ndim != 2 or transition.shape != (n, n):
        raise InvalidInputError(
            f"field 'transition': expected a {n} x {n} matrix, "
            f"got shape {transition.shape}")
    return system, transition, beta0


def save_instance(path, system: LevelSystem, matrix, beta0: float) -> None:
    """Write an instance JSON file (schema of :func:`instance_to_dict`)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(system, matrix, beta0), fh, indent=2)
        fh.write("\n")


def load_instance(path) -> tuple[LevelSystem, np.ndarray, float]:
    """Read an instance JSON file; see :func:`instance_from_dict`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    return instance_from_dict(obj)
