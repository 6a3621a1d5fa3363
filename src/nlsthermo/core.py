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
  Its rules live here only, and each runs once: the :class:`TransitionMatrix`
  constructor forms the sign and column-sum lines, and :class:`GibbsMatrix`
  adds the fixed-point line, keeps all three and the table (log p0, rho) the
  grid reads, and does not validate its fixed point again.  That rule is
  relative: rho = T p0 / p0, one dense sum in log space, has max |rho - 1| <=
  ``FIXED_POINT_TOL`` (so max |T p0 - p0| <= tol too, as p0 <= 1).  At every
  beta that gives |J_heat - 1| <= max |rho - 1|, the column-sum line gives
  |J_general - 1| <= max |column sum - 1| (both J values are convex
  combinations: these lines are the J-equation checks), and, by KL contraction,
  <dS> - beta0 <dQ> = S(p || p0) - S(q || T p0) - sum_m q_m log rho_m
  >= -log(1 + tol).

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
    _lines: tuple[InequalityReport, ...] = field(init=False, repr=False)

    def __post_init__(self):
        t = _square_finite(self.entries)
        (column_sum, uneven), (sign, negative) = _column_sum_rule(t), _sign_rule(t)
        if negative or uneven:  # the sign rule's error first
            raise CertificationError(negative or uneven)
        object.__setattr__(self, "entries", _freeze(t))
        object.__setattr__(self, "_lines", (column_sum, sign))

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class GibbsMatrix:
    """A transition matrix certified to fix the Gibbs state at ``beta0``.

    Construction adds the fixed-point line to the matrix's column-sum and sign
    lines and keeps the three (:func:`certify_gibbs_matrix`'s) as
    ``certification``, the table ``log_p0``, ``rho`` = T p0 / p0, read-only, and
    ``fixed_point``, not validated again; it raises :class:`CertificationError`,
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
        (line, failure), log_p0, rho = _certification(self.matrix.entries, self.system, self.beta0)
        if failure is not None:
            raise CertificationError(f"{failure} at beta0={self.beta0!r}")
        w = np.exp(log_p0)  # valid by construction: exp of finite log weights, normalized
        object.__setattr__(self, "fixed_point", object.__new__(ProbabilityVector))
        object.__setattr__(self.fixed_point, "weights", _freeze(w / w.sum()))
        column_sum, sign = self.matrix._lines
        object.__setattr__(self, "certification", (column_sum, line, sign))
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

def _from_reference(energies: np.ndarray, beta=None):
    """(E - E_ref, E_ref) for the one energy zero E_ref of every beta * E and
    every heat: min E for heats (``beta`` None) and for Gibbs scores at beta
    >= 0, max E below, the end a row favours, so no score -beta (E_n - E_ref)
    is positive.  An input level: on dyadic energies an offset c drops out of
    (E_n + c) - (E_ref + c) exactly.  Betas give a row each, or one shared."""
    low = energies.min()
    if beta is None:
        return energies - low, low
    negative = beta < 0.0
    ref = np.where(negative, energies.max(), low)
    shared = np.count_nonzero(negative) in (0, beta.size)
    return energies - (ref[:1, None] if shared else ref[:, None]), ref


def gibbs_log_weights(system: LevelSystem, beta):
    """Log-probabilities log p_n and log partition function log Z at inverse
    temperature ``beta``, a float or a 1-D array of betas (a row and a log Z
    each, bit for bit the same alone or in an array).  The scores s_n =
    log d_n - beta (E_n - E_ref) of :func:`_from_reference` cannot overflow
    upward; with t the top one and R the sum over n != t of e^{s_n - s_t},
    log p_n = (s_n - s_t) - log1p(R), so log p_t is exact to a few ulps, and
    log Z = s_t + log1p(R) - beta E_ref.  A score below the double range is a
    weight of 0; a log Z outside it raises EvaluationError naming its beta."""
    beta = _float_array(beta, "beta")
    betas = beta.reshape(-1)
    centred, ref = _from_reference(system.energies, betas)
    with np.errstate(over="ignore", invalid="ignore"):
        scores = np.log(system.degeneracy_weights()) - betas[:, None] * centred
        top = np.arange(betas.size), scores.argmax(axis=1)
        shift = scores[top]
        scores -= shift[:, None]
        rest = np.exp(scores)
        rest[top] = 0.0
        log1p = np.log1p(rest.sum(axis=1))
        log_z = shift + log1p - betas * ref
    if not np.isfinite(log_z).all():  # as a non-finite beta makes it
        if not np.isfinite(betas).all():
            raise InvalidInputError("beta must be finite")
        bad = float(betas[np.argmin(np.isfinite(log_z))])
        raise EvaluationError(f"the Gibbs exponent leaves the double range at beta={bad!r}")
    scores -= log1p[:, None]
    return (scores[0], float(log_z[0])) if beta.ndim == 0 else (scores, log_z)


def make_gibbs_state(system: LevelSystem, beta: float) -> ProbabilityVector:
    """Gibbs state p_n = d_n exp(-beta E_n) / Z at a float ``beta``.  Any
    finite beta is admissible, including negative inverse temperatures;
    log Z is in :func:`gibbs_log_weights`."""
    w = np.exp(gibbs_log_weights(system, beta)[0])
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
    left out is below u / 10), else q log(q / p) - step, q = p + step, log(q/p)
    = log1p(x) where p is normal, else log q - the caller's ``log_p`` (finite)."""
    far = np.abs(step) > 0.1 * p
    near = ~far & (p > 0.0)  # a zero weight under a zero step adds 0
    x = step[near] / p[near]
    series = np.sum(step[near] * x * np.polyval(_PHI_SERIES, x))
    p, step, q = p[far], step[far], p[far] + step[far]
    log_ratio = np.log(q, out=np.zeros(q.shape), where=q > 0.0) - log_p[far]  # 0 log 0 = 0
    normal = (p >= np.finfo(float).tiny) & (q > 0.0)
    log_ratio[normal] = np.log1p(step[normal] / p[normal])
    return float(series + np.sum(q * log_ratio - step))


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
# slack (NaN fails), and, only when it breaks, an error: its label, then why()

def _rule_line(label: str, value: float, bound: float, why):
    holds = value <= bound
    return (InequalityReport(label, value, bound, bound - value, holds),
            None if holds else f"{label} fails: {why()}")


def _column_sum_rule(t: np.ndarray) -> tuple[InequalityReport, str | None]:
    """max |column sum - 1| <= ``SUM_TOL``."""
    sums = t.sum(axis=0)
    n = int(np.argmax(np.abs(sums - 1.0)))
    return _rule_line("certification: column-sum deviation <= tol",
                      abs(float(sums[n]) - 1.0), SUM_TOL,
                      lambda: f"column {n} sums to {float(sums[n])!r}, outside 1 +/- {SUM_TOL:g}")


def _sign_rule(t: np.ndarray) -> tuple[InequalityReport, str | None]:
    """-(min entry) <= 0."""
    low = float(t.min())
    return _rule_line("certification: entries nonnegative", -low, 0.0,
                      lambda: f"transition matrix entries must be nonnegative, got {low!r}")


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
    """The fixed-point rule of square finite matrix ``t``, max |rho - 1| <=
    ``FIXED_POINT_TOL``: its (line, error or None) and the table (log p0, rho)."""
    if t.shape[0] != system.size:
        raise InvalidInputError("matrix and level system sizes differ")
    log_p0, _ = gibbs_log_weights(system, beta0)
    rho = _fixed_point_ratio(t, log_p0, beta0)
    m = int(np.argmax(np.abs(rho - 1.0)))
    worst = abs(float(rho[m]) - 1.0)
    return _rule_line(
        "certification: fixed-point ratio max |rho - 1| <= tol", worst, FIXED_POINT_TOL,
        lambda: f"|rho - 1| = {worst:.3e} at level m={m} exceeds {FIXED_POINT_TOL:g}"
    ), log_p0, rho


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
        rules = _column_sum_rule(t), _certification(t, system, float(beta0))[0], _sign_rule(t)
        return [line for line, _ in rules], None
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
