"""Jarzynski-type identities and the second-law-like inequality checks.

Everything here reports rather than asserts: each check returns an
:class:`InequalityReport` whose ``holds`` flag allows a one-sided slack of
``SLACK_TOL`` below zero, absorbing floating-point summation error in
identities that are exact in real arithmetic.

The identities:

* the general J-equation, an expectation of probability ratios over the
  two-point distribution that equals one for any left stochastic matrix,
  with no fixed-point assumption;
* its heat specialization ``<exp(-(beta - beta0) dQ)> = 1`` for Gibbs
  matrices and Gibbs initial states.

The inequalities (all derived from the identities via Jensen, or from the
Gibbs inequality): directed heat flow, the two-sided Clausius bound
``beta0 <dQ> <= <dS> <= beta <dQ>``, directed entropy flow for nonnegative
inverse temperatures, contraction of the KL divergence under stochastic
maps, and the bi-stochastic (pure work) limit ``0 <= <dS> <= beta <w>``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EvaluationError,
    GibbsMatrix,
    InvalidInputError,
    LevelSystem,
    ProbabilityVector,
    TransitionMatrix,
    _weights_of,
    entropy,
    gibbs_log_weights,
    kl_divergence,
    make_gibbs_state,
    mean_energy,
    propagate,
)

__all__ = [
    "SLACK_TOL",
    "InequalityReport",
    "ClausiusBounds",
    "compare",
    "heat_and_entropy_change",
    "general_j_expectation",
    "j_heat_expectation",
    "heat_flow_check",
    "clausius_bounds",
    "entropy_flow_check",
    "kl_monotonicity_check",
    "bistochastic_work_check",
]

#: one-sided slack allowed below zero before an inequality counts as violated
SLACK_TOL = 1e-12


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of checking ``lhs <= rhs``; ``slack = rhs - lhs``."""

    label: str
    lhs: float
    rhs: float
    slack: float
    holds: bool


def compare(label: str, lhs: float, rhs: float) -> InequalityReport:
    """Build a report for ``lhs <= rhs`` with the standard slack tolerance."""
    lhs = float(lhs)
    rhs = float(rhs)
    slack = rhs - lhs
    return InequalityReport(label=label, lhs=lhs, rhs=rhs, slack=slack,
                            holds=bool(slack >= -SLACK_TOL))


@dataclass(frozen=True)
class ClausiusBounds:
    """The three swept quantities and the two Clausius inequality reports."""

    beta0_heat: float
    entropy_increase: float
    beta_heat: float
    lower: InequalityReport
    upper: InequalityReport


def _marginal_changes(T: TransitionMatrix, system: LevelSystem,
                      beta: float) -> tuple[float, float]:
    """(E(q) - E(p), S(q) - S(p)) for the Gibbs state p at ``beta`` and q = T p."""
    p = make_gibbs_state(system, beta).probabilities
    q = propagate(T, p)
    de = mean_energy(system, q) - mean_energy(system, p)
    ds = entropy(system, q) - entropy(system, p)
    return de, ds


def heat_and_entropy_change(G: GibbsMatrix, beta: float) -> tuple[float, float]:
    """(<dQ>, <dS>) for a Gibbs initial state at inverse temperature ``beta``.

    <dQ> = E(q) - E(p) and <dS> = S(q) - S(p) with q = T p; these marginal
    forms equal the expectations of the heat and entropy-increase random
    variables over the two-point distribution.
    """
    return _marginal_changes(G.matrix, G.system, beta)


# ---------------------------------------------------------------------------
# J-equations
# ---------------------------------------------------------------------------

def general_j_expectation(T: TransitionMatrix, p, p0, ptilde) -> float:
    """Expectation of p0_i ptilde_j / (q0_j p_i) under P(i, j) = T[j, i] p_i.

    Here q0 = T p0.  The value is exactly one in real arithmetic for any
    left stochastic ``T`` and any strictly positive ``p`` and ``p0``; the
    computed double sum is returned so callers can measure the floating-point
    deviation.
    """
    pw = _weights_of(p)
    p0w = _weights_of(p0)
    ptw = _weights_of(ptilde)
    n = T.size
    if pw.shape[0] != n or p0w.shape[0] != n or ptw.shape[0] != n:
        raise InvalidInputError("distribution sizes do not match the matrix")
    if np.any(pw <= 0.0):
        raise InvalidInputError("p must be strictly positive")
    if np.any(p0w <= 0.0):
        raise InvalidInputError("p0 must be strictly positive")
    q0 = T.entries @ p0w
    # with p0 > 0, q0_j = 0 forces row j of T to vanish, which removes all
    # probability from outcome j; anything else is a defective input
    bad = (q0 == 0.0) & (T.entries.max(axis=1) > 0.0)
    if bad.any():
        j = int(np.argmax(bad))
        raise EvaluationError(
            f"q0 vanishes on the positive-probability outcome j={j}")
    t_entries = T.entries
    rows, cols = np.nonzero(t_entries > 0.0)
    terms = ((t_entries[rows, cols] * pw[cols])
             * (p0w[cols] * ptw[rows]) / (q0[rows] * pw[cols]))
    return float(np.sum(terms))


def j_heat_expectation(G: GibbsMatrix, beta: float) -> float:
    """<exp(-(beta - beta0) dQ)> for the Gibbs initial state at ``beta``.

    Equals one in real arithmetic for any certified Gibbs matrix.  Each term
    is assembled in log space (log T + log p_n - (beta - beta0)(E_m - E_n))
    and exponentiated individually: wide sweeps make single exponents large,
    but those terms carry exponentially small probability weight, so every
    term and the total stay representable.
    """
    log_p, _ = gibbs_log_weights(G.system, beta)
    dbeta = float(beta) - G.beta0
    t_entries = G.matrix.entries
    energies = G.system.energies
    rows, cols = np.nonzero(t_entries > 0.0)
    log_terms = (np.log(t_entries[rows, cols]) + log_p[cols]
                 - dbeta * (energies[rows] - energies[cols]))
    return float(np.sum(np.exp(log_terms)))


# ---------------------------------------------------------------------------
# inequality checks
# ---------------------------------------------------------------------------

def heat_flow_check(G: GibbsMatrix, beta: float) -> InequalityReport:
    """Heat flows from hot to cold: (beta - beta0) <dQ> >= 0."""
    dq, _ = heat_and_entropy_change(G, beta)
    return compare("heat flow direction: 0 <= (beta - beta0) <dQ>",
                   0.0, (float(beta) - G.beta0) * dq)


def clausius_bounds(G: GibbsMatrix, beta: float) -> ClausiusBounds:
    """The two-sided Clausius bound beta0 <dQ> <= <dS> <= beta <dQ>."""
    dq, ds = heat_and_entropy_change(G, beta)
    beta = float(beta)
    lower = compare("clausius lower bound: beta0 <dQ> <= <dS>", G.beta0 * dq, ds)
    upper = compare("clausius upper bound: <dS> <= beta <dQ>", ds, beta * dq)
    return ClausiusBounds(beta0_heat=G.beta0 * dq, entropy_increase=ds,
                          beta_heat=beta * dq, lower=lower, upper=upper)


def entropy_flow_check(G: GibbsMatrix, beta: float) -> InequalityReport:
    """Entropy flows from hot to cold: (beta - beta0) <dS> >= 0.

    Valid for nonnegative system inverse temperatures and a bath with
    beta0 > 0; outside that hypothesis the statement fails in general, so a
    negative ``beta`` is rejected rather than reported.
    """
    beta = float(beta)
    if beta < 0.0:
        raise InvalidInputError("entropy flow check requires beta >= 0")
    if G.beta0 <= 0.0:
        raise InvalidInputError("entropy flow check requires beta0 > 0")
    _, ds = heat_and_entropy_change(G, beta)
    return compare("entropy flow direction: 0 <= (beta - beta0) <dS>",
                   0.0, (beta - G.beta0) * ds)


def kl_monotonicity_check(T: TransitionMatrix, p, p0) -> InequalityReport:
    """KL divergence contracts under any left stochastic map:
    S(Tp || Tp0) <= S(p || p0)."""
    pw = _weights_of(p)
    p0w = _weights_of(p0)
    if np.any(pw <= 0.0) or np.any(p0w <= 0.0):
        raise InvalidInputError("p and p0 must be strictly positive")
    q = propagate(T, ProbabilityVector(pw))
    q0 = propagate(T, ProbabilityVector(p0w))
    lhs = kl_divergence(q, q0)
    rhs = kl_divergence(pw, p0w)
    return compare("KL contraction: S(Tp || Tp0) <= S(p || p0)", lhs, rhs)


def bistochastic_work_check(T: TransitionMatrix, system: LevelSystem,
                            beta: float) -> tuple[InequalityReport, InequalityReport]:
    """Pure work-process bounds 0 <= <dS> and <dS> <= beta <w>.

    Requires a bi-stochastic matrix (rows also sum to one), unit
    degeneracies, and beta >= 0.  The first report restates the Shannon
    entropy non-decrease S(q) >= S(p); ``w`` is the energy change
    E(q) - E(p), interpreted as work since no heat bath is involved.
    """
    beta = float(beta)
    row_dev = float(np.abs(T.entries.sum(axis=1) - 1.0).max())
    if row_dev > SLACK_TOL:
        raise InvalidInputError(
            f"matrix is not bi-stochastic: row sums deviate by {row_dev:.3e}")
    if np.any(system.degeneracies != 1):
        raise InvalidInputError("bi-stochastic limit requires unit degeneracies")
    if beta < 0.0:
        raise InvalidInputError("bi-stochastic work bounds require beta >= 0")
    if T.size != system.size:
        raise InvalidInputError("matrix and level system sizes differ")
    work, ds = _marginal_changes(T, system, beta)
    first = compare("entropy non-decrease: 0 <= <dS>", 0.0, ds)
    second = compare("work bound: <dS> <= beta <w>", ds, beta * work)
    return first, second
