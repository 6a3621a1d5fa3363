"""Jarzynski-type identities and the second-law-like inequality checks.

Everything here reports rather than asserts: each check returns an
:class:`InequalityReport` whose ``holds`` flag allows a one-sided slack of
``SLACK_TOL`` below zero, absorbing floating-point summation error in
identities that are exact in real arithmetic.  The Gibbs-matrix rules every
check here assumes are certified by :func:`nlsthermo.core.certify_gibbs_matrix`.

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

The certification of a Gibbs matrix carries both J-equations: at every
beta the heat value is p @ rho (p_n e^{(beta-beta0) E_n} = p0_n Z(beta0) /
Z(beta)) and the general value with ptilde = q is sum_n p_n (column sum)_n,
convex combinations, so the fixed-point and column-sum lines bound |J - 1|
on every grid.  :func:`grid_pass`, the one evaluator of a Gibbs matrix's
per-beta values, forms the lines the inequalities need (<dQ>, <dS>, both KL
sides) a block of beta rows at a time, and :func:`inequality_suite` reduces
them to worst-case reports; :func:`_beta_slopes` forms their exact
beta-derivatives.  Both read the rows of :func:`_gibbs_rows`.  The scalar
per-beta functions (:func:`heat_and_entropy_change`, ...) are the grid's
reference, and the J-equations' double sums that of the certified bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    SUM_TOL,
    EvaluationError,
    GibbsMatrix,
    InequalityReport,
    InvalidInputError,
    LevelSystem,
    ProbabilityVector,
    TransitionMatrix,
    _float_array,
    _from_reference,
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
    "ClausiusBounds",
    "GridPass",
    "compare",
    "heat_and_entropy_change",
    "general_j_expectation",
    "j_heat_expectation",
    "heat_flow_check",
    "clausius_bounds",
    "entropy_flow_check",
    "kl_monotonicity_check",
    "bistochastic_work_check",
    "grid_pass",
    "inequality_suite",
]

#: one-sided slack allowed below zero before an inequality counts as violated
SLACK_TOL = 1e-12

#: beta rows :func:`grid_pass` evaluates together; temporaries stay near
#: 2 MB at N = 96
BLOCK_ROWS = 256


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
    p = make_gibbs_state(system, beta)
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
    t_entries = T.entries
    q0 = t_entries @ p0w
    # with p0 > 0, q0_j = 0 only on a zero row j of T; anything else is a defective input
    bad = (q0 == 0.0) & (t_entries.max(axis=1) > 0.0)
    if bad.any():
        j = int(np.argmax(bad))
        raise EvaluationError(f"q0 vanishes on the positive-probability outcome j={j}")
    rows, cols = np.nonzero(t_entries > 0.0)
    terms = ((t_entries[rows, cols] * pw[cols])
             * (p0w[cols] * ptw[rows]) / (q0[rows] * pw[cols]))
    return float(np.sum(terms))


def j_heat_expectation(G: GibbsMatrix, beta: float) -> float:
    """<exp(-(beta - beta0) dQ)> for the Gibbs initial state at ``beta``.

    Equals one in real arithmetic for any certified Gibbs matrix.  Each term
    is assembled in log space (log T + log p_n - (beta - beta0)(E_m - E_n))
    and exponentiated individually.  The large exponents of wide sweeps
    should cancel, but near |beta| = 1e300 their rounding alone is far above
    one, so the value is off by O(1) or inf (the fixed-point line of
    ``G.certification``, which bounds |value - 1| at every beta, is not).
    """
    log_p, _ = gibbs_log_weights(G.system, beta)
    dbeta = float(beta) - G.beta0
    t_entries = G.matrix.entries
    energies = G.system.energies
    rows, cols = np.nonzero(t_entries > 0.0)
    log_terms = (np.log(t_entries[rows, cols]) + log_p[cols]
                 - dbeta * (energies[rows] - energies[cols]))
    with np.errstate(over="ignore"):  # rounding near |beta| = 1e300 may give inf
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
    if row_dev > SUM_TOL:
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


# ---------------------------------------------------------------------------
# one pass over a beta grid, and the suites reduced from it
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GridPass:
    """Per-point arrays of :func:`grid_pass`, on every beta: <dQ>, <dS> and
    the KL sides S(Tp || Tp0), S(p || p0)."""

    beta0: float
    betas: np.ndarray
    dq: np.ndarray
    ds: np.ndarray
    kl_after: np.ndarray
    kl_before: np.ndarray


def _gibbs_rows(G: GibbsMatrix, betas: np.ndarray):
    """(p, q, log p, log q), the one Gibbs-row kernel: p from one
    :func:`gibbs_log_weights` call, q = clip(p T^T), 0 log 0 = 0."""
    p = np.exp(gibbs_log_weights(G.system, betas)[0])
    q = np.minimum(p @ G.matrix.entries.T, 1.0)  # clip: p and T are nonnegative
    return p, q, *(np.log(w, out=np.zeros(w.shape), where=w > 0.0) for w in (p, q))


def grid_pass(G: GibbsMatrix, betas) -> GridPass:
    """The per-point lines of a beta grid: <dQ> (E from min E), <dS> and both
    KL sides, row reductions of :func:`_gibbs_rows`, ``BLOCK_ROWS`` at a time.
    log q0 = log rho + log p0 comes from the certified ``G.log_p0``, ``G.rho``,
    so both KL sides are finite on every row, where p or p0 underflows too."""
    betas = _float_array(betas, "betas")
    if betas.ndim != 1:
        raise InvalidInputError("betas must be a 1-D grid")
    size, log_d = betas.shape[0], np.log(G.system.degeneracy_weights())
    energies, _ = _from_reference(G.system.energies)
    log_q0 = np.log(G.rho) + G.log_p0  # certified: every rho_m near 1
    dq, ds, kl_after, kl_before = (np.empty(size) for _ in range(4))
    for lo in range(0, size, BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        p, q, log_p, log_q = _gibbs_rows(G, betas[rows])
        dq[rows] = q @ energies - p @ energies
        ds[rows] = np.sum(p * (log_p - log_d), axis=1) - np.sum(q * (log_q - log_d), axis=1)
        kl_after[rows] = np.sum(q * (log_q - log_q0), axis=1)
        kl_before[rows] = np.sum(p * (log_p - G.log_p0), axis=1)
    return GridPass(G.beta0, betas, dq, ds, kl_after, kl_before)


def _beta_slopes(G: GibbsMatrix, betas) -> tuple[np.ndarray, np.ndarray]:
    """Exact d(beta <dQ>)/dbeta and d<dS>/dbeta at each beta: with dp = -p (E - <E>)
    the derivative of the Gibbs row p and dq = T dp that of q = T p, they are
    E.(q - p) + beta E.(dq - dp), E from min E, and dp.(log p - log d) -
    dq.(log q - log d).  At beta0 both are the tangent slope of linear response."""
    betas = _float_array(betas, "betas")
    log_d = np.log(G.system.degeneracy_weights())
    energies, _ = _from_reference(G.system.energies)
    p, q, log_p, log_q = _gibbs_rows(G, betas)
    dp = -p * (energies - (p @ energies)[..., None])
    dq = dp @ G.matrix.entries.T
    heat = (q - p) @ energies + betas * ((dq - dp) @ energies)
    return heat, (dp * (log_p - log_d)).sum(axis=-1) - (dq * (log_q - log_d)).sum(axis=-1)


def _worst(label: str, betas: np.ndarray, lhs, rhs) -> InequalityReport:
    """Report ``lhs <= rhs`` at the first grid point of least slack."""
    i = int(np.argmin(rhs - lhs))
    return compare(f"{label} [beta={betas[i]:.17g}]", lhs[i], rhs[i])


def inequality_suite(grid: GridPass) -> list[InequalityReport]:
    """Worst slack of each inequality over a pass.  Entropy flow is checked
    where beta >= 0 (if beta0 > 0), the others on every beta; an inequality
    is left out when no point qualifies."""
    betas, dq, ds, beta0 = grid.betas, grid.dq, grid.ds, grid.beta0
    every = np.ones(betas.shape, dtype=bool)
    zero = np.zeros(betas.shape)
    # inf and NaN pass through silently, as in scalar float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        table = [
            ("heat flow direction: worst (beta-beta0)<dQ> over grid",
             every, zero, (betas - beta0) * dq),
            ("clausius lower bound: worst slack of beta0<dQ> <= <dS>",
             every, beta0 * dq, ds),
            ("clausius upper bound: worst slack of <dS> <= beta<dQ>",
             every, ds, betas * dq),
            ("entropy flow direction: worst (beta-beta0)<dS>, beta >= 0",
             (betas >= 0.0) & (beta0 > 0.0), zero, (betas - beta0) * ds),
            ("KL contraction: worst slack of S(Tp||Tp0) <= S(p||p0)",
             every, grid.kl_after, grid.kl_before),
        ]
        return [_worst(label, betas[at], lhs[at], rhs[at])
                for label, at, lhs, rhs in table if at.any()]
