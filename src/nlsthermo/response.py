"""Linear response around the bath temperature.

At beta = beta0 both beta <dQ> and <dS> vanish and share a tangent line; its
slope ``a`` is computed here along four independent routes:

* ``slope_direct``: the double sum beta0 sum_{nm} T[n,m] p0_m E_m (E_m - E_n);
* ``slope_symmetrized``: the manifestly nonnegative quadratic form
  (beta0/4) sum_{nm} (T[n,m] p0_m + T[m,n] p0_n)(E_m - E_n)^2;
* ``slope_fluctuation``: (beta0/2) Var(dQ) at the fixed point;
* the exact tangent d(beta <dQ>)/dbeta, with d<dS>/dbeta, at beta0: one
  matrix-vector product on the certified table (log p0, rho).

:func:`slope_suite` is the one judge of the four routes: it reports, and
never raises, their agreement, their nonnegativity and the common tangent.
``slope_numeric`` and ``entropy_slope_numeric``, central differences over
beta0 +/- h from one :func:`~nlsthermo.fluctuation.grid_pass`, are the exact
tangents' reference.  Those lines, the second-order cumulant truncation, the
Newton-cooling linearization <dQ> = -a beta0 (tau - tau0) + O(tau - tau0)^2,
and the weak-coupling Clausius equality <dS> = beta <dE> + O(eps^2) along the
family T = (1 - eps) 1 + eps M of a transition matrix M are all measurable
quantities that tests and verification reports pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EvaluationError,
    GibbsMatrix,
    InequalityReport,
    InvalidInputError,
    LevelSystem,
    TransitionMatrix,
    _expectation_sum,
    _float_array,
    delta_q_table,
)
from .fluctuation import _marginal_changes, compare, grid_pass

__all__ = [
    "WeakCouplingFit",
    "slope_direct",
    "slope_symmetrized",
    "slope_fluctuation",
    "slope_numeric",
    "entropy_slope_numeric",
    "cumulant_deviation",
    "slope_suite",
    "cumulant_suite",
    "newton_cooling_coefficient",
    "clausius_equality_residual",
    "weak_coupling_residual",
]

#: closed-form slope routes, the exact tangent among them, must agree to this
#: relative tolerance
CLOSED_FORM_RTOL = 1e-9
#: cumulant-expansion residuals at or below this are rounding, not truncation
CUMULANT_FLOOR = 1e-13
#: least fitted log-log exponent of residuals above ``CUMULANT_FLOOR``
CUMULANT_EXPONENT = 2.5
#: slopes may undershoot zero by at most this much
NONNEG_TOL = 1e-10


def slope_direct(G: GibbsMatrix) -> float:
    """Tangent slope as the double sum over the stationary flow."""
    energies = G.system.energies
    gap = energies[None, :] - energies[:, None]
    return G.beta0 * float(np.sum(
        G.matrix.entries * (G.fixed_point.weights * energies)[None, :] * gap))


def slope_symmetrized(G: GibbsMatrix) -> float:
    """Tangent slope as a sum of nonnegative terms (hence >= 0 exactly)."""
    energies = G.system.energies
    flow = G.matrix.entries * G.fixed_point.weights[None, :]
    flow = flow + flow.T
    # gaps only where the flow is positive, so a vast unused gap cannot overflow
    gap = np.where(flow > 0.0, energies[None, :] - energies[:, None], 0.0)
    return G.beta0 * float(0.25 * np.sum(flow * gap ** 2))


def _heat_cumulants(G: GibbsMatrix):
    """(joint, dQ table, k1, k2): the fixed-point two-point distribution, the
    heat on its support (0 elsewhere, so unused gaps cannot overflow), and the
    first two cumulants of the heat under it."""
    joint = G.matrix.entries * G.fixed_point.weights[None, :]
    dq = np.where(joint > 0.0, delta_q_table(G.system), 0.0)
    k1 = _expectation_sum(joint, dq)
    k2 = _expectation_sum(joint, dq * dq) - k1 * k1
    return joint, dq, k1, k2


def slope_fluctuation(G: GibbsMatrix) -> float:
    """Tangent slope as (beta0 / 2) Var(dQ) at the fixed point.

    The mean heat vanishes at beta0 up to rounding, so this is essentially
    (beta0 / 2) <dQ^2>.
    """
    _, _, _, k2 = _heat_cumulants(G)
    return 0.5 * G.beta0 * k2


def _tangents(G: GibbsMatrix) -> tuple[float, float]:
    """Exact slopes of beta <dQ> and of <dS> at beta0.  With dp = -p0 (E - <E>),
    the beta derivative of the Gibbs state, and dq = T dp, they are
    E.(q0 - p0) + beta0 E.(dq - dp) and
    sum dp (log p0 - log d) - sum dq (log q0 - log d), read from the certified
    table: q0 = rho p0, and rho, within FIXED_POINT_TOL of 1, has a finite log."""
    energies, log_d = G.system.energies, np.log(G.system.degeneracy_weights())
    p0 = G.fixed_point.weights
    dp = -p0 * (energies - p0 @ energies)
    dq = G.matrix.entries @ dp
    heat = energies @ ((G.rho - 1.0) * p0) + G.beta0 * (energies @ (dq - dp))
    entropy = dp @ (G.log_p0 - log_d) - dq @ (np.log(G.rho) + G.log_p0 - log_d)
    return float(heat), float(entropy)


def _fd_slopes(G: GibbsMatrix) -> tuple[float, float]:
    """Central differences of beta <dQ> and of <dS> at beta0, both read from
    one :func:`grid_pass` over beta0 +/- h.  The step is fixed at
    h = 1e-4 max(1, |beta0|), which balances truncation against rounding."""
    h = 1e-4 * max(1.0, abs(G.beta0))
    grid = grid_pass(G, [G.beta0 + h, G.beta0 - h])
    beta_dq, ds = grid.betas * grid.dq, grid.ds
    return float(beta_dq[0] - beta_dq[1]) / (2.0 * h), float(ds[0] - ds[1]) / (2.0 * h)


def slope_numeric(G: GibbsMatrix) -> float:
    """Tangent slope by central finite difference of beta <dQ> at beta0."""
    return _fd_slopes(G)[0]


def entropy_slope_numeric(G: GibbsMatrix) -> float:
    """Central finite difference of <dS>(beta) at beta0.

    Shares the tangent of beta <dQ> at beta0, so it must match
    :func:`slope_numeric` to finite-difference accuracy.
    """
    return _fd_slopes(G)[1]


def slope_suite(G: GibbsMatrix) -> list[InequalityReport]:
    """The four slope routes compared, reported rather than raised, each
    tolerance applied here only: both closed forms and the exact tangent
    against ``direct``, and the common tangent of beta <dQ> and <dS>, all to
    ``CLOSED_FORM_RTOL`` relative to max(1, |a|); nonnegativity of all four."""
    direct, symmetrized = slope_direct(G), slope_symmetrized(G)
    fluctuation, (tangent, entropy_tangent) = slope_fluctuation(G), _tangents(G)
    scale = max(1.0, abs(direct))
    return [
        compare("slope agreement: |direct - symmetrized| <= 1e-9 max(1, |a|)",
                abs(direct - symmetrized), CLOSED_FORM_RTOL * scale),
        compare("slope agreement: |direct - fluctuation| <= 1e-9 max(1, |a|)",
                abs(direct - fluctuation), CLOSED_FORM_RTOL * scale),
        compare("slope agreement: |direct - tangent| <= 1e-9 max(1, |a|)",
                abs(direct - tangent), CLOSED_FORM_RTOL * scale),
        compare("slope nonnegativity: -min(slopes) <= 1e-10",
                -min(direct, symmetrized, fluctuation, tangent), NONNEG_TOL),
        compare("common tangent: |slope(beta<dQ>) - slope(<dS>)| <= 1e-9 max(1, |a|)",
                abs(tangent - entropy_tangent), CLOSED_FORM_RTOL * scale),
    ]


# ---------------------------------------------------------------------------
# cumulant expansion of the heat at the fixed point
# ---------------------------------------------------------------------------

def cumulant_deviation(G: GibbsMatrix, t):
    """|log <exp(t dQ)> - (k1 t + k2 t^2 / 2)| at beta = beta0.

    The remainder is third order in t, and k1 vanishes at the fixed point up
    to rounding.  An array of t gives its scalar values bit for bit, from
    one heat table.
    """
    t = _float_array(t, "t")
    if np.any(np.abs(t) > 0.1):
        raise InvalidInputError("cumulant check is meant for |t| <= 0.1")
    joint, dq, k1, k2 = _heat_cumulants(G)
    generating = np.reshape([math.log(_expectation_sum(joint, np.exp(s * dq)))
                             for s in t.flat], t.shape)
    deviation = np.abs(generating - (k1 * t + 0.5 * k2 * t * t))
    return float(deviation) if t.ndim == 0 else deviation


def cumulant_suite(G: GibbsMatrix) -> list[InequalityReport]:
    """Truncation order of the second-order cumulant expansion: residuals at
    most ``CUMULANT_FLOOR``, or a fitted exponent >= ``CUMULANT_EXPONENT``."""
    # two-sided max per |t|: the odd and even parts of the remainder add in
    # magnitude on one of the two sides, so no cancellation can distort the fit
    t_grid = (0.1, 0.05, 0.025)
    deviations = cumulant_deviation(G, [s * t for t in t_grid for s in (1.0, -1.0)]).tolist()
    residuals = [max(plus, minus) for plus, minus in zip(deviations[::2], deviations[1::2])]
    if max(residuals) <= CUMULANT_FLOOR:
        return [compare("cumulant truncation: residuals at rounding floor",
                        max(residuals), CUMULANT_FLOOR)]
    exponent = float(np.polyfit(np.log(t_grid), np.log(residuals), 1)[0])
    return [compare(f"cumulant truncation: fitted residual exponent >= {CUMULANT_EXPONENT:g}",
                    CUMULANT_EXPONENT, exponent)]


def newton_cooling_coefficient(G: GibbsMatrix) -> float:
    """Heat conduction coefficient a beta0 in
    <dQ> = -a beta0 (tau - tau0) + O(tau - tau0)^2."""
    if G.beta0 <= 0.0:
        raise InvalidInputError("Newton-cooling linearization requires beta0 > 0")
    return G.beta0 * slope_direct(G)


# ---------------------------------------------------------------------------
# weak-coupling Clausius equality
# ---------------------------------------------------------------------------

def clausius_equality_residual(M: TransitionMatrix, system: LevelSystem,
                               beta: float, eps: float) -> float:
    """|<dS> - beta <dE>| for T = (1 - eps) 1 + eps M and a Gibbs initial state.

    T is a transition matrix for every eps in [0, 1]; an eps outside is an
    input error naming it.  The residual vanishes at eps = 0 and shrinks as
    eps^2: to first order in the coupling the Clausius bound is an equality.
    """
    eps, beta = float(eps), float(beta)
    if not 0.0 <= eps <= 1.0:
        raise InvalidInputError(f"eps must lie in [0, 1]; got eps={eps!r}")
    T = TransitionMatrix((1.0 - eps) * np.eye(M.size) + eps * M.entries)
    de, ds = _marginal_changes(T, system, beta)
    return abs(ds - beta * de)


@dataclass(frozen=True)
class WeakCouplingFit:
    """Residual table and fitted scaling exponent of the weak-coupling
    Clausius equality.  ``exponent`` is ``inf`` when every residual is zero
    (for example for M = 1)."""

    eps: tuple[float, ...]
    residuals: tuple[float, ...]
    exponent: float


def weak_coupling_residual(M: TransitionMatrix, system: LevelSystem,
                           beta: float, eps_list) -> WeakCouplingFit:
    """Fit log |<dS> - beta <dE>| against log eps over the couplings of the
    family (1 - eps) 1 + eps M.

    The exponent must come out close to 2.  An eps above 1 is rejected with
    an error naming it.
    """
    eps = tuple(float(e) for e in eps_list)
    if len(eps) < 2:
        raise InvalidInputError("need at least two eps values for the fit")
    if any(e <= 0.0 for e in eps):
        raise InvalidInputError("eps values must be positive for the log-log fit")
    residuals = tuple(clausius_equality_residual(M, system, beta, e) for e in eps)
    if all(r == 0.0 for r in residuals):
        return WeakCouplingFit(eps=eps, residuals=residuals, exponent=float("inf"))
    if any(r == 0.0 for r in residuals):
        raise EvaluationError("mixed zero and nonzero residuals; cannot fit an exponent")
    slope = float(np.polyfit(np.log(eps), np.log(residuals), 1)[0])
    return WeakCouplingFit(eps=eps, residuals=residuals, exponent=slope)
