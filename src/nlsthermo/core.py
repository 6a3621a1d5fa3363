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
  the bath inverse temperature ``beta0`` fixed.  This is the only structural
  assumption the inequality checks in :mod:`nlsthermo.fluctuation` rely on.

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
    "GibbsState",
    "TransitionMatrix",
    "GibbsMatrix",
    "TwoPointDistribution",
    "GibbsCertificate",
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

#: absolute tolerance on fixed-point residuals of externally supplied matrices
FIXED_POINT_TOL = 1e-10


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class EvaluationError(ArithmeticError):
    """Raised when a computation hits a value it cannot represent, for
    example a random variable that is not finite on a positive-probability
    outcome."""


class CertificationError(InvalidInputError):
    """Raised when a matrix breaks a rule of :func:`certify_gibbs_matrix`."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _weights_of(p) -> np.ndarray:
    """Accept a ProbabilityVector or a bare weight array."""
    if isinstance(p, ProbabilityVector):
        return p.weights
    return np.asarray(p, dtype=float)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LevelSystem:
    """Energies and degeneracies of an N-level system, N >= 2.

    Energies are dimensionless reals; degeneracies are positive integers.
    """

    energies: np.ndarray
    degeneracies: np.ndarray

    def __post_init__(self):
        # copy so freezing never hijacks a caller-owned array
        e = np.array(self.energies, dtype=float)
        d = np.array(self.degeneracies, dtype=float)
        if e.ndim != 1 or d.ndim != 1 or e.shape != d.shape:
            raise InvalidInputError(
                "energies and degeneracies must be 1-D sequences of equal length")
        if e.shape[0] < 2:
            raise InvalidInputError("a level system needs at least two levels")
        if not np.all(np.isfinite(e)):
            raise InvalidInputError("energies must be finite")
        if not np.all(np.isfinite(d)) or np.any(d < 1) or np.any(d != np.round(d)):
            raise InvalidInputError("degeneracies must be integers >= 1")
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
        w = np.array(self.weights, dtype=float)
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
class GibbsState:
    """Boltzmann-form distribution p_n = d_n exp(-beta E_n) / Z.

    ``log_probabilities`` and ``log_partition_function`` are kept alongside
    the plain values because wide inverse-temperature sweeps need them; they
    come from a shifted (log-sum-exp) evaluation and stay accurate where naive
    exponentials would overflow.
    """

    beta: float
    probabilities: ProbabilityVector
    partition_function: float
    log_partition_function: float
    log_probabilities: np.ndarray


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

    Construction computes the fixed point from the level system and raises
    :class:`CertificationError` when the residual ``max |T p0 - p0|`` exceeds
    ``FIXED_POINT_TOL``.
    """

    matrix: TransitionMatrix
    system: LevelSystem
    beta0: float
    fixed_point: ProbabilityVector = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "beta0", float(self.beta0))
        if self.matrix.size != self.system.size:
            raise InvalidInputError("matrix and level system sizes differ")
        state = make_gibbs_state(self.system, self.beta0)
        _, failure = _fixed_point_rule(self.matrix.entries, state.probabilities.weights)
        if failure is not None:
            raise CertificationError(
                f"matrix does not fix the Gibbs state at beta0={self.beta0!r}: {failure}")
        object.__setattr__(self, "fixed_point", state.probabilities)

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
        j = np.array(self.joint, dtype=float, order="C")
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
class GibbsCertificate:
    """Each Gibbs-matrix rule's value and verdict for a raw matrix; failures
    are reported here, never raised.  ``passed`` holds exactly when
    ``GibbsMatrix(TransitionMatrix(raw), system, beta0)`` constructs."""

    column_sum_deviation: float
    fixed_point_residual: float
    min_entry: float
    column_sums_hold: bool
    fixed_point_holds: bool
    sign_holds: bool

    @property
    def passed(self) -> bool:
        return self.column_sums_hold and self.fixed_point_holds and self.sign_holds


# ---------------------------------------------------------------------------
# construction and propagation
# ---------------------------------------------------------------------------

def gibbs_log_weights(system: LevelSystem, beta: float):
    """Log-probabilities and log partition function at inverse temperature beta.

    Shifted by the maximum exponent before exponentiating, so large
    ``|beta * E_n|`` neither overflows nor loses the normalization.
    """
    beta = float(beta)
    if not math.isfinite(beta):
        raise InvalidInputError("beta must be finite")
    scores = np.log(system.degeneracy_weights()) - beta * system.energies
    shift = float(scores.max())
    log_z = shift + math.log(float(np.exp(scores - shift).sum()))
    return scores - log_z, log_z


def make_gibbs_state(system: LevelSystem, beta: float) -> GibbsState:
    """Gibbs state p_n = d_n exp(-beta E_n) / Z.  Any finite beta is
    admissible, including negative inverse temperatures."""
    log_p, log_z = gibbs_log_weights(system, beta)
    w = np.exp(log_p)
    w = w / w.sum()
    with np.errstate(over="ignore"):  # Z past DBL_MAX is reported as inf
        partition_function = float(np.exp(log_z))
    return GibbsState(
        beta=float(beta),
        probabilities=ProbabilityVector(w),
        partition_function=partition_function,
        log_partition_function=float(log_z),
        log_probabilities=_freeze(log_p),
    )


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
        p = ProbabilityVector(np.asarray(p, dtype=float))
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
    values = np.asarray(table, dtype=float)
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


# ---------------------------------------------------------------------------
# heat and entropy-increase random variables
# ---------------------------------------------------------------------------

def delta_q_table(system: LevelSystem) -> np.ndarray:
    """Heat table dQ[m, n] = E_m - E_n (energy gained by the system)."""
    e = system.energies
    return _freeze(e[:, None] - e[None, :])


def _log_weight_ratio(w: np.ndarray, d: np.ndarray) -> np.ndarray:
    out = np.full(w.shape, -np.inf)
    mask = w > 0.0
    out[mask] = np.log(w[mask] / d[mask])
    return out


def delta_s_table(system: LevelSystem, p, q) -> np.ndarray:
    """Entropy-increase table dS[m, n] = log(p_n / d_n) - log(q_m / d_m).

    ``q`` must be the propagated distribution of ``p`` under the transition
    matrix being analysed.  Then every outcome (m, n) with positive joint
    probability has p_n > 0 (the joint is T[m,n] p_n) and q_m >= T[m,n] p_n > 0,
    so the logarithms are finite wherever the expectation reads them; a zero
    weight gives a -inf log, which only an outcome of a joint that does not
    match (p, q) can reach, and :func:`expectation` reports that as an
    :class:`EvaluationError`.

    Its mean over the matching two-point distribution is S(q) - S(p).
    """
    d = system.degeneracy_weights()
    lp = _log_weight_ratio(_weights_of(p), d)
    lq = _log_weight_ratio(_weights_of(q), d)
    return _freeze(lp[None, :] - lq[:, None])


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def _square_finite(entries) -> np.ndarray:
    """A C-ordered float copy of a square, at least 2x2, finite matrix."""
    t = np.array(entries, dtype=float, order="C")
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] < 2:
        raise InvalidInputError("transition matrix must be square and at least 2x2")
    if not np.all(np.isfinite(t)):
        raise InvalidInputError("transition matrix entries must be finite")
    return t


# the Gibbs-matrix rules: each returns its value and why it breaks, or None

def _column_sum_rule(t: np.ndarray) -> tuple[float, str | None]:
    """max |column sum - 1| <= ``SUM_TOL``."""
    sums = t.sum(axis=0)
    n = int(np.argmax(np.abs(sums - 1.0)))
    dev = abs(float(sums[n]) - 1.0)
    return dev, None if dev <= SUM_TOL else (
        f"column {n} sums to {float(sums[n])!r}, outside 1 +/- {SUM_TOL:g}")


def _sign_rule(t: np.ndarray) -> tuple[float, str | None]:
    """min entry >= 0."""
    low = float(t.min())
    return low, None if low >= 0.0 else (
        f"transition matrix entries must be nonnegative, got {low!r}")


def _fixed_point_rule(t: np.ndarray, p0: np.ndarray) -> tuple[float, str | None]:
    """max |t p0 - p0| <= ``FIXED_POINT_TOL``."""
    residual = float(np.abs(t @ p0 - p0).max())
    return residual, None if residual <= FIXED_POINT_TOL else (
        f"residual {residual:.3e} exceeds {FIXED_POINT_TOL:g}")


def certify_gibbs_matrix(matrix, system: LevelSystem, beta0: float) -> GibbsCertificate:
    """Measure a bare array (or a :class:`TransitionMatrix`) against each
    rule of the Gibbs-matrix constructors.  A broken rule lands in the
    certificate instead of raising, so defective inputs can be diagnosed."""
    raw = _square_finite(matrix.entries if isinstance(matrix, TransitionMatrix) else matrix)
    if raw.shape[0] != system.size:
        raise InvalidInputError("matrix and level system sizes differ")
    p0 = make_gibbs_state(system, beta0).probabilities.weights
    (dev, columns), (low, sign), (residual, fixed) = (
        _column_sum_rule(raw), _sign_rule(raw), _fixed_point_rule(raw, p0))
    return GibbsCertificate(dev, residual, low, columns is None, fixed is None, sign is None)


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
        "energies": [float(x) for x in system.energies],
        "degeneracies": [int(x) for x in system.degeneracies],
        "transition": [[float(x) for x in row] for row in raw],
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
            arrays.append(np.asarray(obj[key], dtype=float))
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"field '{key}': {exc}") from exc
    energies, degeneracies, transition = arrays
    if not isinstance(obj["beta0"], (int, float)) or isinstance(obj["beta0"], bool):
        raise InvalidInputError("field 'beta0': must be a number")
    beta0 = float(obj["beta0"])
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
