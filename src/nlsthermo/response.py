"""Linear response around the bath temperature.

At beta = beta0 both beta <dQ> and <dS> vanish and share a tangent line; its
slope ``a`` is computed here along four independent routes:

* ``slope_direct``: the double sum beta0 sum_{nm} T[n,m] p0_m E_m (E_m - E_n);
* ``slope_symmetrized``: the manifestly nonnegative quadratic form
  (beta0/4) sum_{nm} (T[n,m] p0_m + T[m,n] p0_n)(E_m - E_n)^2;
* ``slope_fluctuation``: (beta0/2) Var(dQ) at the fixed point;
* the exact tangent d(beta <dQ>)/dbeta, with d<dS>/dbeta, at beta0, from
  ``fluctuation._beta_slopes``, which also locates the entropy extremum.

:func:`slope_suite` is the one judge of the four routes: it reports, and
never raises, their agreement, their nonnegativity and the common tangent.
``slope_numeric`` and ``entropy_slope_numeric``, central differences over
beta0 +/- h from one :func:`~nlsthermo.fluctuation.grid_pass`, are the exact
tangents' reference.  :func:`cumulant_suite` judges the cumulant expansion
of the heat against its exact cubic term, in the heat's own unit.  Newton
cooling, <dQ> = -a beta0 (tau - tau0) + O^2, is a measurable quantity that
tests pin down, and so is the weak-coupling Clausius equality along T =
(1 - eps) 1 + eps M: :func:`clausius_equality_residual` returns beta <dE> -
<dS> = KL(T p || p) as a termwise sum of nonnegative terms, whose leading
term (1/2) eps^2 chi^2(M p - p || p) tests check with its exact coefficient.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    GibbsMatrix,
    InequalityReport,
    InvalidInputError,
    LevelSystem,
    TransitionMatrix,
    _expectation_sum,
    _float_array,
    _from_reference,
    _termwise_kl,
    delta_q_table,
    gibbs_log_weights,
)
from .fluctuation import _beta_slopes, compare, grid_pass

__all__ = [
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
]

#: closed-form slope routes, the exact tangent among them, must agree to this
#: relative tolerance
CLOSED_FORM_RTOL = 1e-9
#: the cumulant line's t in the heat's own unit: t = +/- tau / max |dQ|
CUMULANT_TAU = 1e-3
#: slopes may undershoot zero by at most this much
NONNEG_TOL = 1e-10


def slope_direct(G: GibbsMatrix) -> float:
    """Tangent slope as the double sum over the stationary flow, E from min E."""
    energies, _ = _from_reference(G.system.energies)
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


def _heat_table(G: GibbsMatrix):
    """(joint, dQ table): the fixed-point two-point distribution and the heat
    on its support (0 elsewhere, so unused gaps cannot overflow)."""
    joint = G.matrix.entries * G.fixed_point.weights[None, :]
    return joint, np.where(joint > 0.0, delta_q_table(G.system), 0.0)


def slope_fluctuation(G: GibbsMatrix) -> float:
    """Tangent slope as (beta0 / 2) Var(dQ) at the fixed point, where the
    mean heat vanishes up to rounding."""
    joint, dq = _heat_table(G)
    k1 = _expectation_sum(joint, dq)
    return 0.5 * G.beta0 * (_expectation_sum(joint, dq * dq) - k1 * k1)


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
    """Central finite difference of <dS>(beta) at beta0, which shares the
    tangent of beta <dQ>: it matches :func:`slope_numeric` to that accuracy."""
    return _fd_slopes(G)[1]


def slope_suite(G: GibbsMatrix) -> list[InequalityReport]:
    """The four slope routes compared, reported rather than raised, each
    tolerance applied here only: both closed forms and the exact tangent
    against ``direct``, and the common tangent of beta <dQ> and <dS>, all to
    ``CLOSED_FORM_RTOL`` relative to max(1, |a|); nonnegativity of all four."""
    direct, symmetrized = slope_direct(G), slope_symmetrized(G)
    fluctuation = slope_fluctuation(G)
    (tangent,), (entropy_tangent,) = _beta_slopes(G, [G.beta0])
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

def _remainders(G: GibbsMatrix, t=None):
    """(|K - (k1 tau + k2 tau^2/2 + k3 tau^3/6)| at each tau = t X (default
    +/- CUMULANT_TAU), (k1, k2, k3, mu4)) of F / M(0) for s = dQ / X, X = max
    |dQ| on the support of F: K = log(M(tau)/M(0)), M(tau) = sum F e^{tau s}."""
    joint, dq = _heat_table(G)
    f, heat = joint[joint > 0.0], dq[joint > 0.0]
    reach = float(np.max(np.abs(heat), initial=0.0))
    s = heat / reach if reach > 0.0 else heat
    tau = np.array([CUMULANT_TAU, -CUMULANT_TAU]) if t is None else t * reach
    if not np.all(np.abs(tau) <= 0.1):  # also a NaN
        raise InvalidInputError("cumulant check is meant for |t| max|dQ| <= 0.1")
    total = float(np.sum(f))
    k1 = float(np.sum(f * s)) / total
    d = s - k1
    f_d2 = f * d * d
    k2, k3, mu4 = (float(np.sum(x)) / total for x in (f_d2, f_d2 * d, f_d2 * d * d))
    cgf = np.reshape([math.log(np.sum(f * np.exp(x * s)) / total) for x in tau.flat], tau.shape)
    return np.abs(cgf - tau * (k1 + tau * (k2 / 2.0 + tau * (k3 / 6.0)))), (k1, k2, k3, mu4)


def cumulant_deviation(G: GibbsMatrix, t):
    """|log(M(t)/M(0)) - (k1 t + k2 t^2/2 + k3 t^3/6)|, M(t) = <exp(t dQ)>
    under the fixed-point joint, for |t| max|dQ| <= 0.1 (so exp(t dQ) cannot
    overflow).  An array of t gives its scalar values bit for bit."""
    deviation = _remainders(G, _float_array(t, "t"))[0]
    return float(deviation) if deviation.ndim == 0 else deviation


def cumulant_suite(G: GibbsMatrix) -> list[InequalityReport]:
    """The remainder R(t) of the cubic cumulant expansion of K(t) =
    log(M(t) / M(0)), M(t) = sum F e^{t dQ}, at t = +/- tau / max|dQ|, tau =
    CUMULANT_TAU, is at most (16 e^{2 tau} mu4 + 2 e^{4 tau} mu2^2) t^4/24 +
    16 u log2 N (mu2 = k2, mu4 central moments of F / M(0); u = 2^-53).

    By Taylor, R(t) = k4(xi) t^4/24 for some |xi| <= |t|, k4(xi) = mu4(xi) -
    3 mu2(xi)^2 of the tilted weights F e^{xi dQ} / M(xi), which lie within
    e^{2 tau} of F / M(0) as |xi dQ| <= tau.  (a + b)^4 <= 8 (a^4 + b^4) and
    Jensen give mu4(xi) <= 16 e^{2 tau} mu4; mu2(xi) <= e^{2 tau} mu2, the
    mean minimizing the second moment; mu2(xi)^2 <= mu4(xi) gives |k4(xi)| <=
    mu4(xi) + 2 mu2(xi)^2.  16 u log2 N covers the rounding of K's two sums
    (2.4 u measured), so no SLACK_TOL, above the whole bound, is added.  Each
    term is a pure number: no energy unit can move the line."""
    remainders, (_, k2, _, mu4) = _remainders(G)
    tau, lhs = CUMULANT_TAU, float(np.max(remainders))
    rhs = ((16.0 * math.exp(2.0 * tau) * mu4 + 2.0 * math.exp(4.0 * tau) * k2 * k2)
           * tau ** 4 / 24.0 + 16.0 * 2.0 ** -53 * math.log2(G.system.size))
    return [InequalityReport(f"cumulant truncation: |R(t)| <= sup|k4| t^4/24 + 16 u log2 N"
                             f" at t = +/-{tau:g}/max|dQ|", lhs, rhs, rhs - lhs, lhs <= rhs)]


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
    """beta <dE> - <dS> = KL(T p || p) for T = (1 - eps) 1 + eps M, eps in
    [0, 1] (else an input error naming it), and the Gibbs state p at beta.

    It is sum_m p_m phi(eps delta_m / p_m) >= 0, delta = M p - p, phi(x) =
    (1 + x) log1p(x) - x: (1/2) eps^2 chi^2(delta || p) (1 + theta), |theta|
    <= r / (3 (1 - r)), r = eps / eps* < 1, eps* = min p / |delta|, so the
    Clausius bound is an equality to first order.  Summed term by term by
    :func:`~nlsthermo.core._termwise_kl`, with log p from
    :func:`~nlsthermo.core.gibbs_log_weights`, finite where p underflows.
    This Bregman sum leaves out the O(eps * column-sum defect) term (1 - log
    Z) eps sum_n (column sum_n - 1) p_n that the scalar route keeps."""
    eps, beta = float(eps), float(beta)
    if not 0.0 <= eps <= 1.0:
        raise InvalidInputError(f"eps must lie in [0, 1]; got eps={eps!r}")
    if M.size != system.size:
        raise InvalidInputError("matrix and level system sizes differ")
    log_p, _ = gibbs_log_weights(system, beta)
    p = np.exp(log_p)
    return _termwise_kl(p, log_p, eps * (M.entries @ p - p))
