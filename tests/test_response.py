"""Slope formulas, cumulant truncation, Newton cooling, weak coupling."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from nlsthermo import response
from nlsthermo.core import (
    GibbsMatrix,
    InvalidInputError,
    LevelSystem,
    TransitionMatrix,
    certify_gibbs_matrix,
    gibbs_log_weights,
    make_gibbs_state,
)
from nlsthermo.fluctuation import (_beta_slopes, _marginal_changes, grid_pass,
                                   heat_and_entropy_change)
from nlsthermo.genrand import random_gibbs_instance, random_stochastic
from nlsthermo.response import (
    clausius_equality_residual,
    cumulant_deviation,
    cumulant_suite,
    entropy_slope_numeric,
    newton_cooling_coefficient,
    slope_direct,
    slope_fluctuation,
    slope_numeric,
    slope_suite,
    slope_symmetrized,
)
from nlsthermo.spinboson import spin1_gibbs_matrix
from strategies import (EXACT_CASES, exact_gibbs, ladder_instances, metropolis_entries,
                        metropolis_instances, random_instances, spin1_instances,
                        thermal_instances)

EPS_GRID = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)


def identity_gibbs(beta0=1.0):
    system = LevelSystem([0.3, -1.2, 2.0], [1, 1, 1])
    return GibbsMatrix(TransitionMatrix(np.eye(3)), system, beta0)


class TestSlopeRoutes:
    def test_identity_matrix_has_zero_slope(self):
        G = identity_gibbs()
        assert slope_direct(G) == 0.0
        assert slope_symmetrized(G) == 0.0
        assert slope_fluctuation(G) == 0.0
        assert abs(slope_numeric(G)) <= 1e-12

    def test_zero_bath_beta_kills_the_prefactor(self):
        # a doubly stochastic matrix fixes the uniform state, which is the
        # Gibbs state at beta0 = 0 for unit degeneracies
        system = LevelSystem([0.4, -0.3, 1.1], [1, 1, 1])
        T = TransitionMatrix(np.array([
            [0.6, 0.3, 0.1],
            [0.3, 0.4, 0.3],
            [0.1, 0.3, 0.6],
        ]))
        G = GibbsMatrix(T, system, beta0=0.0)
        assert slope_direct(G) == 0.0

    def test_two_level_hand_expansion(self):
        beta0 = 1.0
        system = LevelSystem([0.0, 1.0], [1, 1])
        p0 = make_gibbs_state(system, beta0).weights
        a = 0.3
        b = a * p0[0] / p0[1]
        T = TransitionMatrix(np.array([[1.0 - a, b], [a, 1.0 - b]]))
        G = GibbsMatrix(T, system, beta0)
        expected = 0.5 * beta0 * (T.entries[0, 1] * p0[1] + T.entries[1, 0] * p0[0])
        assert slope_fluctuation(G) == pytest.approx(expected, rel=1e-12)
        assert slope_direct(G) == pytest.approx(expected, rel=1e-12)
        assert slope_symmetrized(G) == pytest.approx(expected, rel=1e-12)

    def test_symmetrized_form_is_nonnegative_by_construction(self):
        for seed in range(10):
            G = random_gibbs_instance(2 + seed, seed)
            assert slope_symmetrized(G) >= 0.0

    def test_spin_boson_routes_agree(self):
        G = spin1_gibbs_matrix(1.0)
        direct = slope_direct(G)
        assert slope_fluctuation(G) == pytest.approx(direct, rel=1e-9)
        assert slope_symmetrized(G) == pytest.approx(direct, rel=1e-9)
        assert _beta_slopes(G, [G.beta0])[0][0] == pytest.approx(direct, rel=1e-12)

    def test_random_instances_validate_as_bundles(self):
        """The suite's agreement lines of the four routes, at their bounds."""
        for seed in range(30):
            G = random_gibbs_instance(2 + seed % 8, 900 + seed)
            symmetrized, fluctuation, tangent, _, _ = slope_suite(G)
            scale = max(1.0, abs(slope_direct(G)))
            assert symmetrized.lhs <= 1e-9 * scale
            assert fluctuation.lhs <= 1e-9 * scale
            assert tangent.lhs <= 1e-9 * scale

    def test_suite_reports_the_bundle_comparisons_and_the_tangent(self):
        """Each line's value compares the three closed forms and the exact
        tangents."""
        G = spin1_gibbs_matrix(1.0)
        reports = slope_suite(G)
        (heat,), (entropy,) = _beta_slopes(G, [G.beta0])
        routes = (slope_direct(G), slope_symmetrized(G), slope_fluctuation(G), heat)
        direct = routes[0]
        assert [r.lhs for r in reports] == [
            *(abs(direct - route) for route in routes[1:]), -min(routes),
            abs(heat - entropy)]
        assert [r.label.split(":")[0] for r in reports] == [
            "slope agreement", "slope agreement", "slope agreement",
            "slope nonnegativity", "common tangent"]
        assert all(r.holds for r in reports)

    def test_suite_reports_rather_than_raises(self):
        G = identity_gibbs()
        reports = slope_suite(G)
        assert len(reports) == 5 and all(r.holds for r in reports)

    def test_finite_difference_converges_at_second_order(self):
        """Both central differences approach the exact tangents as O(h^2)."""
        G = random_gibbs_instance(5, 321)
        h = 1e-3
        for fd_h, fd_half, (exact,) in zip(scalar_fd_slopes(G, h), scalar_fd_slopes(G, h / 2),
                                           _beta_slopes(G, [G.beta0])):
            assert 3.0 <= abs(fd_h - exact) / abs(fd_half - exact) <= 5.0

    def test_fixed_step_scales_with_beta0(self):
        # h = 1e-4 max(1, |beta0|): the public reference is the grid difference at that step
        for G in (spin1_gibbs_matrix(0.5), spin1_gibbs_matrix(3.0)):
            h = 1e-4 * max(1.0, abs(G.beta0))
            grid = grid_pass(G, [G.beta0 + h, G.beta0 - h])
            beta_dq = grid.betas * grid.dq
            assert slope_numeric(G) == float(beta_dq[0] - beta_dq[1]) / (2.0 * h)
            assert entropy_slope_numeric(G) == float(grid.ds[0] - grid.ds[1]) / (2.0 * h)


def scalar_fd_slopes(G, h):
    """The central differences of beta <dQ> and <dS> at beta0 from the scalar
    reference :func:`heat_and_entropy_change`, one call per side."""
    plus, minus = G.beta0 + h, G.beta0 - h
    dq_plus, ds_plus = heat_and_entropy_change(G, plus)
    dq_minus, ds_minus = heat_and_entropy_change(G, minus)
    return ((plus * dq_plus - minus * dq_minus) / (2.0 * h),
            (ds_plus - ds_minus) / (2.0 * h))


def assert_grid_slopes_match_the_scalar_reference(G):
    """Both finite differences read from grid rows are within
    1e-9 max(1, |a|) of the scalar ones at the same step."""
    bound = 1e-9 * max(1.0, abs(slope_direct(G)))
    reference = scalar_fd_slopes(G, 1e-4 * max(1.0, abs(G.beta0)))
    for grid_value, scalar_value in zip((slope_numeric(G), entropy_slope_numeric(G)),
                                        reference):
        assert abs(grid_value - scalar_value) <= bound


class TestGridFiniteDifference:
    """The finite-difference reference comes from one grid pass, and the
    scalar per-beta path stays its own reference; the suite reads the exact
    tangents and no grid at all."""

    @pytest.mark.parametrize("n", [3, 8, 16, 32, 48, 96])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_instances_match_the_scalar_reference(self, n, seed):
        assert_grid_slopes_match_the_scalar_reference(random_gibbs_instance(n, seed))

    @given(st.one_of(random_instances(), spin1_instances(), metropolis_instances(),
                     ladder_instances(), thermal_instances()))
    @settings(max_examples=300, deadline=None)
    def test_drawn_instances_match_the_scalar_reference(self, instance):
        system, raw, beta0 = instance
        _, G = certify_gibbs_matrix(raw, system, beta0)
        assume(G is not None)
        assert_grid_slopes_match_the_scalar_reference(G)

    def test_suite_makes_no_grid_pass(self, monkeypatch):
        calls = []
        grid_pass = response.grid_pass
        monkeypatch.setattr(response, "grid_pass",
                            lambda G, betas: calls.append(list(betas)) or grid_pass(G, betas))
        G = spin1_gibbs_matrix(2.0)
        slope_suite(G)
        assert calls == []
        slope_numeric(G)
        assert calls == [[2.0 + 2e-4, 2.0 - 2e-4]]


def normal_products(G):
    """Whether every nonzero entry of T, of the Gibbs weights p0 at beta0 and
    of the products the slope routines form from them with up to two
    energies is a normal double."""
    tiny = np.finfo(float).tiny
    energies, p0 = G.system.energies, G.fixed_point.weights
    flow = G.matrix.entries * p0
    gap = energies[:, None] - energies[None, :]
    return not any(np.any((x != 0.0) & (np.abs(x) < tiny)) for x in (
        G.matrix.entries, p0, p0 * energies * energies, flow, flow * energies,
        flow * energies * gap))


def metropolis_draw(energies, degeneracies, beta0):
    system = LevelSystem(energies, degeneracies)
    return system, metropolis_entries(system, beta0), beta0


#: a two-level Metropolis chain with T[0, 1] = 1.9e-309 and a subnormal
#: Gibbs weight; at k = -3 its slope_direct moves by 3 ulp
SUBNORMAL_DRAW = metropolis_draw([float.fromhex("0x1.2eab0e3728d3ep+6"),
                                  float.fromhex("0x1.84ac57ccf411ep+4")], [1, 4],
                                 float.fromhex("0x1.b97913997d64ep+3"))

#: relative bound on that draw, where a subnormal keeps fewer bits and a
#: power-of-two scale rounds it anew (measured at k = -3: 3.4e-16)
SUBNORMAL_RTOL = 1e-12


class TestUnitCovariance:
    """Under E -> 2^k E, beta0 -> 2^-k beta0 the Gibbs state, the matrix and
    rho are unchanged, each slope route is 2^k times its old value and the
    cumulant line keeps its lhs and rhs, bit for bit: a power-of-two scale
    is exact in binary floating point, as long as no product leaves the
    normal range (:func:`normal_products`)."""

    @given(instance=st.one_of(random_instances(), spin1_instances(), metropolis_instances(),
                              ladder_instances(), thermal_instances()),
           k=st.integers(-20, 20), rtol=st.just(0.0))
    @example(instance=SUBNORMAL_DRAW, k=-3, rtol=SUBNORMAL_RTOL)
    @settings(max_examples=300, deadline=None)
    def test_tangents_and_direct_scale_exactly(self, instance, k, rtol):
        system, raw, beta0 = instance
        _, G = certify_gibbs_matrix(raw, system, beta0)
        assume(G is not None)
        scaled = GibbsMatrix(G.matrix, LevelSystem(np.ldexp(system.energies, k),
                                                   system.degeneracies),
                             math.ldexp(G.beta0, -k))
        if rtol == 0.0:
            assume(normal_products(G) and normal_products(scaled))
        assert np.array_equal(scaled.rho, G.rho)
        pairs = [(scaled_slopes, np.ldexp(slopes, k)) for scaled_slopes, slopes
                 in zip(_beta_slopes(scaled, [scaled.beta0]), _beta_slopes(G, [G.beta0]))]
        pairs.append((slope_direct(scaled), math.ldexp(slope_direct(G), k)))
        (line,), (scaled_line,) = cumulant_suite(G), cumulant_suite(scaled)
        pairs += [(scaled_line.lhs, line.lhs), (scaled_line.rhs, line.rhs)]
        for found, expected in pairs:
            assert np.all(np.abs(found - expected) <= rtol * np.abs(expected)), (found, expected)


class TestVastUnusedGap:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_routes_vanish_without_overflow(self):
        # a gap of 1e300 that no flow crosses must not reach any table
        system = LevelSystem([0.0, 1e300], [1, 1])
        G = GibbsMatrix(TransitionMatrix(np.eye(2)), system, 1.0)
        assert slope_direct(G) == 0.0
        assert slope_symmetrized(G) == 0.0
        assert slope_fluctuation(G) == 0.0
        assert cumulant_deviation(G, 0.1) == 0.0
        assert cumulant_deviation(G, -0.1) == 0.0


class TestFixedPointZeros:
    def test_heat_and_entropy_vanish_at_bath_temperature(self):
        for seed in (3, 14, 15):
            G = random_gibbs_instance(6, seed)
            dq, ds = heat_and_entropy_change(G, G.beta0)
            assert abs(dq) <= 1e-12
            assert abs(ds) <= 1e-12

    def test_common_tangent(self):
        for seed in (1, 2):
            G = random_gibbs_instance(4, seed)
            assert abs(slope_numeric(G) - entropy_slope_numeric(G)) <= 1e-4
        G = spin1_gibbs_matrix(1.0)
        assert abs(slope_numeric(G) - entropy_slope_numeric(G)) <= 1e-4


def heat_support(G):
    """(F, dQ, max |dQ|) on the support of the fixed-point joint F."""
    joint, dq = response._heat_table(G)
    f, heat = joint[joint > 0.0], dq[joint > 0.0]
    return f, heat, float(np.abs(heat).max())


class TestCumulantTruncation:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_vast_heat_is_held_by_the_guard(self):
        # t = 0.1 on a heat of 1e4 would overflow exp(t dQ); the guard
        # |t| max|dQ| <= 0.1 rejects it, and the line's t = tau / max|dQ| holds
        system = LevelSystem([0.0, 1e4], [1, 1])
        p0 = make_gibbs_state(system, 1e-3).weights
        up = 0.5 * p0[1] / p0[0]  # detailed balance with the downward 0.5
        T = TransitionMatrix(np.array([[1.0 - up, 0.5], [up, 0.5]]))
        G = GibbsMatrix(T, system, 1e-3)
        assert math.isfinite(cumulant_deviation(G, 1e-5))
        with pytest.raises(InvalidInputError, match=re.escape("|t| max|dQ| <= 0.1")):
            cumulant_deviation(G, [1e-5, 0.1])
        (report,) = cumulant_suite(G)
        assert report.holds

    def test_zero_t_has_zero_deviation(self):
        G = spin1_gibbs_matrix(1.0)
        assert cumulant_deviation(G, 0.0) <= 1e-14

    def test_first_cumulant_vanishes_at_fixed_point(self):
        # log <e^{t dQ}> is approximately quadratic: deviation from the pure
        # second-order term stays cubic-small even with k1 dropped
        G = spin1_gibbs_matrix(1.0)
        t = 0.05
        from nlsthermo.core import delta_q_table, expectation, two_point_distribution
        dist = two_point_distribution(G.matrix, G.fixed_point)
        dq = expectation(dist, delta_q_table(G.system))
        assert abs(dq) <= 1e-14
        assert cumulant_deviation(G, t) <= 1e-4

    @pytest.mark.parametrize("build", [lambda: spin1_gibbs_matrix(1.0),
                                       lambda: random_gibbs_instance(6, 5),
                                       lambda: identity_gibbs()])
    def test_suite_holds(self, build):
        (report,) = cumulant_suite(build())
        assert report.label.startswith("cumulant truncation")
        assert report.holds

    def test_large_t_is_rejected(self):
        with pytest.raises(InvalidInputError):
            cumulant_deviation(spin1_gibbs_matrix(1.0), 0.2)

    def test_nan_t_is_rejected(self):
        with pytest.raises(InvalidInputError, match=re.escape("|t| max|dQ| <= 0.1")):
            cumulant_deviation(spin1_gibbs_matrix(1.0), [0.01, math.nan])

    @pytest.mark.parametrize("build", [
        lambda: spin1_gibbs_matrix(1.0),
        lambda: random_gibbs_instance(5, 3),
    ])
    def test_residual_exponent_is_at_least_cubic(self, build):
        G = build()
        reach = heat_support(G)[2]
        ts = [tau / reach for tau in (0.1, 0.05, 0.025, -0.1, -0.05, -0.025)]
        residuals = [cumulant_deviation(G, t) for t in ts]
        exponent = np.polyfit(np.log(np.abs(ts)), np.log(residuals), 1)[0]
        assert exponent >= 2.5


class TestBatchedCumulantDeviation:
    """An array of t gives the scalar values bit for bit, and the suite builds
    the fixed-point heat table once."""

    #: t in units of 1 / max|dQ|, inside the guard's 0.1
    TS = (0.08, -0.08, 0.05, -0.05, 0.025, -0.025, 0.0, 0.0731, -0.0137)

    @pytest.mark.parametrize("build", [lambda: random_gibbs_instance(3, 0),
                                       lambda: random_gibbs_instance(8, 0),
                                       lambda: random_gibbs_instance(32, 1),
                                       lambda: spin1_gibbs_matrix(0.01),
                                       lambda: spin1_gibbs_matrix(1.0)])
    def test_batch_equals_the_scalar_calls_bit_for_bit(self, build):
        G = build()
        f, heat, reach = heat_support(G)
        ts = np.array(self.TS) / reach
        batch = cumulant_deviation(G, ts)
        scalars = [cumulant_deviation(G, t) for t in ts]
        assert batch.shape == (len(self.TS),)
        assert batch.tolist() == scalars
        # the scalar value is the plain formula at tau = t max|dQ|: one sum,
        # one math.log and the cubic in Horner form
        s, total = heat / reach, float(np.sum(f))
        k1, k2, k3, _ = response._remainders(G)[1]
        assert scalars == [abs(math.log(np.sum(f * np.exp(tau * s)) / total)
                               - tau * (k1 + tau * (k2 / 2.0 + tau * (k3 / 6.0))))
                           for tau in (t * reach for t in ts)]

    def test_any_large_t_in_a_batch_is_rejected(self):
        with pytest.raises(InvalidInputError):
            cumulant_deviation(spin1_gibbs_matrix(1.0), [0.01, -0.2])

    def test_suite_builds_the_heat_table_once(self, monkeypatch):
        calls = []
        heat_table = response._heat_table
        monkeypatch.setattr(response, "_heat_table",
                            lambda G: calls.append(G) or heat_table(G))
        G = random_gibbs_instance(8, 0)
        cumulant_suite(G)
        assert calls == [G]


class TestNewtonCooling:
    def test_identity_has_zero_coefficient(self):
        assert newton_cooling_coefficient(identity_gibbs()) == 0.0

    def test_spin_boson_linear_law(self):
        G = spin1_gibbs_matrix(1.0)
        coef = newton_cooling_coefficient(G)
        assert coef == G.beta0 * slope_direct(G)
        tau0 = 1.0 / G.beta0

        def residual(delta):
            worst = 0.0
            for sign in (1.0, -1.0):
                tau = tau0 * (1.0 + sign * delta)
                dq, _ = heat_and_entropy_change(G, 1.0 / tau)
                worst = max(worst, abs(dq + coef * (tau - tau0)))
            return worst

        r1 = residual(1e-3)
        assert r1 <= 1e-5 * abs(coef)
        r2 = residual(5e-4)
        assert 3.0 <= r1 / r2 <= 5.0

    def test_requires_positive_bath_beta(self):
        system = LevelSystem([0.4, -0.3, 1.1], [1, 1, 1])
        T = TransitionMatrix(np.array([
            [0.6, 0.3, 0.1],
            [0.3, 0.4, 0.3],
            [0.1, 0.3, 0.6],
        ]))
        G = GibbsMatrix(T, system, beta0=0.0)
        with pytest.raises(InvalidInputError):
            newton_cooling_coefficient(G)


#: unit roundoff of a double
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def exact_slopes(G, beta=None):
    """Each slope route's value at 50 digits, with the double entries,
    energies, degeneracies, beta0 and ``beta`` (default beta0) taken as
    exact, and the sum of the magnitudes of the operands it adds:
    {route: (value, magnitude)}.  The three closed forms are at beta0, the
    two derivative columns of ``_beta_slopes`` at ``beta``.  Where a route
    subtracts (q - p, dq - dp, E - <E>) the operands count, a log p counts
    as |log d| + |beta E| + |log Z|, its parts, and a log q as |log q|."""
    with mpmath.workdps(50):
        t = [[mpmath.mpf(float(x)) for x in row] for row in G.matrix.entries]
        e = [mpmath.mpf(float(x)) for x in G.system.energies]
        d = [int(x) for x in G.system.degeneracies]
        levels, beta0 = range(len(e)), mpmath.mpf(G.beta0)
        beta = beta0 if beta is None else mpmath.mpf(beta)
        p0, p = exact_gibbs(G.system, beta0), exact_gibbs(G.system, beta)
        log_z = mpmath.log(mpmath.fsum(d[m] * mpmath.exp(-beta * e[m]) for m in levels))
        mean = mpmath.fsum(p[m] * e[m] for m in levels)
        dp = [-p[m] * (e[m] - mean) for m in levels]
        q, dq = ([mpmath.fsum(t[m][n] * v[n] for n in levels) for m in levels] for v in (p, dp))
        abs_dp = [p[m] * (abs(e[m]) + abs(mean)) for m in levels]
        abs_dq = [mpmath.fsum(t[m][n] * abs_dp[n] for n in levels) for m in levels]
        pairs = [(m, n) for m in levels for n in levels]
        # row n, column m of T, as slope_direct sums them
        direct = [beta0 * t[n][m] * p0[m] * e[m] * (e[m] - e[n]) for n, m in pairs]
        symmetrized = [beta0 / 4 * (t[n][m] * p0[m] + t[m][n] * p0[n]) * (e[m] - e[n]) ** 2
                       for n, m in pairs]
        k1 = mpmath.fsum(t[m][n] * p0[n] * (e[m] - e[n]) for m, n in pairs)
        k2 = mpmath.fsum(t[m][n] * p0[n] * (e[m] - e[n]) ** 2 for m, n in pairs)
        heat = mpmath.fsum(e[m] * (q[m] - p[m]) + beta * e[m] * (dq[m] - dp[m])
                           for m in levels)
        entropy = mpmath.fsum(dp[m] * (mpmath.log(p[m] / d[m]))
                              - dq[m] * (mpmath.log(q[m] / d[m])) for m in levels)
        routes = {
            "direct": (mpmath.fsum(direct), mpmath.fsum(map(abs, direct))),
            "symmetrized": (mpmath.fsum(symmetrized), mpmath.fsum(symmetrized)),
            "fluctuation": (beta0 / 2 * (k2 - k1 * k1), beta0 / 2 * (k2 + k1 * k1)),
            "heat tangent": (heat, mpmath.fsum(
                abs(e[m]) * (q[m] + p[m] + abs(beta) * (abs_dq[m] + abs_dp[m]))
                for m in levels)),
            "entropy tangent": (entropy, mpmath.fsum(
                abs_dp[m] * (1 + mpmath.log(d[m]) + abs(beta * e[m]) + abs(log_z))
                + abs_dq[m] * (1 + mpmath.log(d[m]) + abs(mpmath.log(q[m])))
                for m in levels)),
        }
        return {route: (float(value), float(size)) for route, (value, size) in routes.items()}


class TestExactSlopeReference:
    """The four slope routes and the entropy tangent against their 50-digit
    values, on the fixed families of the J reference: each lies within
    4 N u of the magnitudes it sums, so the direct-vs-tangent line's bound
    of 1e-9 max(1, |a|) is rounding headroom, not slack."""

    @pytest.mark.parametrize("build", EXACT_CASES)
    def test_routes_lie_within_rounding_of_their_exact_values(self, build):
        G = build()
        computed = dict(zip(("direct", "symmetrized", "fluctuation"),
                            (slope_direct(G), slope_symmetrized(G), slope_fluctuation(G))))
        (computed["heat tangent"],), (computed["entropy tangent"],) = _beta_slopes(G, [G.beta0])
        for route, (exact, magnitude) in exact_slopes(G).items():
            assert abs(computed[route] - exact) <= 4 * G.size * UNIT_ROUNDOFF * magnitude, route

    @pytest.mark.parametrize("build", EXACT_CASES)
    def test_beta_slopes_lie_within_rounding_away_from_beta0(self, build):
        G = build()
        betas = [-G.beta0, 0.0, G.beta0 / 2, 2 * G.beta0]
        bound = 4 * G.size * UNIT_ROUNDOFF
        for beta, heat, entropy in zip(betas, *_beta_slopes(G, betas)):
            exact = exact_slopes(G, beta)
            for route, computed in (("heat tangent", heat), ("entropy tangent", entropy)):
                value, magnitude = exact[route]
                assert abs(computed - value) <= bound * magnitude, (beta, route)

    def test_direct_and_tangent_agree_far_inside_the_line(self):
        worst = max(abs(slope_direct(G) - _beta_slopes(G, [G.beta0])[0][0])
                    / max(1.0, abs(slope_direct(G)))
                    for G in (case.values[0]() for case in EXACT_CASES))
        assert worst <= 1e-12


def exact_cumulants(G):
    """The cumulant line's quantities at 50 digits, with the double entries,
    energies and beta0 taken as exact and p0 the exact Gibbs state, each with
    the sum of the magnitudes of its terms: {name: (value, magnitude)} for
    k1, k2 = mu2, k3, mu4 of the heat s = dQ / max|dQ| and the remainder at
    each of t = +/- tau / max|dQ|, whose terms are the two normalized sums
    M(t) / M(0) and 1 and the three terms of the cubic."""
    with mpmath.workdps(50):
        t = [[mpmath.mpf(float(x)) for x in row] for row in G.matrix.entries]
        e = [mpmath.mpf(float(x)) for x in G.system.energies]
        p0 = exact_gibbs(G.system, mpmath.mpf(G.beta0))
        support = [(m, n) for m in range(len(e)) for n in range(len(e)) if t[m][n] > 0]
        f = [t[m][n] * p0[n] for m, n in support]
        heat = [e[m] - e[n] for m, n in support]
        reach = max(map(abs, heat))
        s = [x / reach for x in heat] if reach else heat
        total = mpmath.fsum(f)
        k1 = mpmath.fsum(w * x for w, x in zip(f, s)) / total
        d = [x - k1 for x in s]

        def moment(j, magnitude=False):
            return mpmath.fsum(w * (abs(y) if magnitude else y) ** j for w, y in zip(f, d)) / total

        values = {"k1": (k1, mpmath.fsum(w * abs(x) for w, x in zip(f, s)) / total),
                  "k2": (moment(2), moment(2)), "k3": (moment(3), moment(3, magnitude=True)),
                  "mu4": (moment(4), moment(4))}
        for tau in (response.CUMULANT_TAU, -response.CUMULANT_TAU):
            tau = mpmath.mpf(tau)
            ratio = mpmath.fsum(w * mpmath.exp(tau * x) for w, x in zip(f, s)) / total
            cubic = [k1 * tau, values["k2"][0] * tau ** 2 / 2, values["k3"][0] * tau ** 3 / 6]
            values[f"remainder {float(tau):+g}"] = (
                abs(mpmath.log(ratio) - mpmath.fsum(cubic)),
                ratio + 1 + mpmath.fsum(map(abs, cubic)))
        return {name: (float(value), float(size)) for name, (value, size) in values.items()}


#: c in the c u sum|terms| budget of the cumulant line's quantities; the 28
#: exact cases reach 4.3 (mu4), and 1.21 on a remainder
CUMULANT_ROUNDING = 8


class TestExactCumulantReference:
    """The cumulant line's moments and remainders against their 50-digit
    values, each within 8 u of the magnitudes it sums.  A remainder sums
    about 2, so its error (at most 2.4 u measured) is far inside the line's
    rounding term 16 u log2 N."""

    @pytest.mark.parametrize("build", EXACT_CASES)
    def test_moments_and_remainders_lie_within_rounding(self, build):
        G = build()
        tau = response.CUMULANT_TAU
        remainders, moments = response._remainders(G)
        computed = dict(zip(("k1", "k2", "k3", "mu4"), moments))
        computed.update(zip((f"remainder {tau:+g}", f"remainder {-tau:+g}"), remainders))
        for name, (exact, magnitude) in exact_cumulants(G).items():
            assert abs(computed[name] - exact) <= CUMULANT_ROUNDING * UNIT_ROUNDOFF * magnitude, name


def exact_residual(M, system, beta, eps):
    """sum_m p_m phi(x_m), x = eps delta / p, phi(x) = (1 + x) log1p(x) - x,
    at 40 digits, with p the exact Gibbs state at ``beta`` and delta = M p - p
    from M's double entries, and the magnitude S the double computation
    rounds: the sum itself, delta's rounding (each p_n off by about
    u (1 + log d_n + |beta E_n| + |log Z|) relative, the parts
    :func:`gibbs_log_weights` subtracts) times |dR/d delta_m| = eps
    |log1p x_m|, p_m's own times |dR/dp_m| = |log1p x_m - x_m|, and, where
    |x| > 0.1, the two logs of q (log q - log p): (value, S)."""
    with mpmath.workdps(40):
        t = [[mpmath.mpf(float(x)) for x in row] for row in M.entries]
        p, eps = exact_gibbs(system, mpmath.mpf(beta)), mpmath.mpf(eps)
        levels = range(len(p))
        log_z = mpmath.log(mpmath.fsum(int(d) * mpmath.exp(-beta * mpmath.mpf(float(e)))
                                       for e, d in zip(system.energies, system.degeneracies)))
        blur = [w * (1 + mpmath.log(int(d)) + abs(beta * mpmath.mpf(float(e))) + abs(log_z))
                for w, e, d in zip(p, system.energies, system.degeneracies)]
        value = size = mpmath.mpf(0)
        for m in levels:
            x = eps * (mpmath.fsum(t[m][n] * p[n] for n in levels) - p[m]) / p[m]
            log1p = mpmath.log1p(x)
            term = p[m] * ((1 + x) * log1p - x)
            value += term
            size += (term + eps * abs(log1p) * (mpmath.fsum(t[m][n] * blur[n] for n in levels)
                                                + blur[m])
                     + abs(log1p - x) * blur[m])
            if abs(x) > 0.1:
                size += (1 + x) * p[m] * (abs(mpmath.log((1 + x) * p[m])) + abs(mpmath.log(p[m])))
        return float(value), float(size)


#: c in the c u S budget of the residual against its 40-digit value; the 28
#: exact cases reach 0.87 (ladder-2, beta = -1, eps = 0.1, where |x| just
#: passes 0.1) and the underflowing weight 0.38
RESIDUAL_ROUNDING = 2


def leading_term_gaps(M, system, beta):
    """At eps = eps* {1e-1, 1e-2, 1e-3}, capped at 1, with eps* = min p / |delta|
    over delta = M p - p and p the Gibbs state at ``beta``:
    (|R / ((1/2) eps^2 chi^2) - 1|, r / (3 (1 - r))) per eps, r = eps / eps*,
    chi^2 = sum delta^2 / p, R = :func:`clausius_equality_residual`.  None
    where a weight with delta != 0 lies below tiny / u (so at 0 too): there
    eps* is 0, or the leading term leaves the normal range."""
    log_p, _ = gibbs_log_weights(system, beta)
    p = np.exp(log_p)
    delta = M.entries @ p - p
    moved = delta != 0.0
    if np.any(p[moved] < np.finfo(float).tiny / UNIT_ROUNDOFF):
        return None
    eps_star = float(np.min(p[moved] / np.abs(delta[moved]), initial=math.inf))
    gaps = []
    for scale in (1e-1, 1e-2, 1e-3):
        eps = min(1.0, scale * eps_star)
        step = eps * delta[moved]
        leading = 0.5 * float(np.sum(step * (step / p[moved])))
        residual = clausius_equality_residual(M, system, beta, eps)
        if leading == 0.0:  # delta is 0 on every level
            assert residual == 0.0
            continue
        r = eps / eps_star
        gaps.append((abs(residual / leading - 1.0), r / (3.0 * (1.0 - r))))
    return gaps


#: c in the c u allowance of the leading-term law; 7256 family draws reach 2.0
LEADING_ROUNDING = 4

#: c in the c u S budget of the residual at eps = 1 against beta <dE> - <dS>
#: of the scalar route and of the grid; 7256 family draws reach 0.26
SCALAR_ROUNDING = 1


class TestWeakCoupling:
    """The family T = (1 - eps) 1 + eps M of a transition matrix M, whose
    residual beta <dE> - <dS> is KL(T p || p) = (1/2) eps^2 chi^2 (1 + theta)."""

    def test_zero_eps_gives_zero_residual(self):
        M = random_stochastic(4, 0)
        system = LevelSystem(np.linspace(-1, 1, 4), np.ones(4, dtype=np.int64))
        assert clausius_equality_residual(M, system, beta=0.8, eps=0.0) == 0.0

    def test_identity_matrix_gives_zero_residuals(self):
        M = TransitionMatrix(np.eye(3))
        system = LevelSystem([0.0, 0.5, 1.0], [1, 1, 1])
        assert [clausius_equality_residual(M, system, 0.7, eps)
                for eps in EPS_GRID] == [0.0] * len(EPS_GRID)

    def test_the_whole_unit_range_is_admissible(self):
        M = random_stochastic(5, 7)
        system = LevelSystem(np.linspace(-1, 1, 5), np.ones(5, dtype=np.int64))
        for eps in (0.0, 0.5, 1.0):
            assert math.isfinite(clausius_equality_residual(M, system, 0.6, eps))

    @pytest.mark.parametrize("eps", [-0.25, 1.5, math.nan])
    def test_eps_outside_the_unit_range_is_named(self, eps):
        M = random_stochastic(4, 11)
        system = LevelSystem(np.linspace(-1, 1, 4), np.ones(4, dtype=np.int64))
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"eps must lie in [0, 1]; got eps={eps!r}")):
            clausius_equality_residual(M, system, 0.6, eps)

    def test_sizes_must_match(self):
        system = LevelSystem(np.linspace(-1, 1, 3), np.ones(3, dtype=np.int64))
        with pytest.raises(InvalidInputError, match="sizes differ"):
            clausius_equality_residual(random_stochastic(4, 11), system, 0.6, 0.1)

    def test_residual_scales_quadratically(self):
        """The exact coefficient: |R / ((1/2) eps^2 chi^2) - 1| <= r / (3 (1 - r))."""
        rng = np.random.default_rng(123)
        for k in range(8):
            n = 2 + k % 5
            M = random_stochastic(n, 800 + k)
            system = LevelSystem(rng.uniform(-1, 1, n), np.ones(n, dtype=np.int64))
            for gap, bound in leading_term_gaps(M, system, float(rng.uniform(0.2, 1.0))):
                assert gap <= bound + LEADING_ROUNDING * UNIT_ROUNDOFF

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_underflowing_gibbs_weight_keeps_its_term(self):
        # p_2 = e^-1000 is 0 in doubles while delta_2 > 0: the term
        # q (log q - log p) - eps delta reads log p from the log weights
        M = random_stochastic(3, 5)
        system = LevelSystem([0.0, 0.5, 1000.0], [1, 1, 1])
        assert make_gibbs_state(system, 1.0).weights[2] == 0.0
        assert clausius_equality_residual(M, system, 1.0, 0.1) == pytest.approx(
            18.759011427078, rel=1e-12, abs=0.0)
        residual = clausius_equality_residual(M, system, 1.0, 1e-9)
        exact, size = exact_residual(M, system, 1.0, 1e-9)
        assert 0.0 < residual < math.inf
        assert abs(residual - exact) <= RESIDUAL_ROUNDING * UNIT_ROUNDOFF * size

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(instance=st.one_of(random_instances(), spin1_instances(), metropolis_instances(),
                              ladder_instances(), thermal_instances()),
           k=st.floats(-3.0, 3.0))
    @settings(max_examples=300, deadline=None)
    def test_residual_is_the_upper_clausius_slack_and_meets_its_leading_term(self, instance, k):
        """M = T of a family draw and beta = k beta0: R >= 0; at eps = 1, R is
        beta <dE> - <dS> of the scalar route and of the grid, less their
        column-sum defect term (1 - log Z) sum (q - p), within c u S; the
        leading-term law where no weight underflows (hypothesis statistics
        give the share that does).  Each weight carries a relative error of
        about u L, L = 1 + max (log d + |beta E|) + |log Z|, the parts
        :func:`gibbs_log_weights` subtracts, and each route multiplies it by
        the logs it forms: S = L sum (p + q)(1 + log d + |beta E| + |log p|
        + |log q|)."""
        system, raw, beta0 = instance
        _, G = certify_gibbs_matrix(raw, system, beta0)
        assume(G is not None)
        beta = k * beta0
        residual = clausius_equality_residual(G.matrix, system, beta, 1.0)
        assert residual >= 0.0
        log_p, log_z = gibbs_log_weights(system, beta)
        p = np.exp(log_p)
        q = G.matrix.entries @ p
        defect = (1.0 - log_z) * (float(np.sum(q)) - float(np.sum(p)))
        log_q = np.log(q, out=np.zeros(q.shape), where=q > 0.0)
        parts = np.log(system.degeneracy_weights()) + np.abs(beta * system.energies)
        size = (1.0 + float(np.max(parts)) + abs(log_z)) * float(
            np.sum((p + q) * (1.0 + parts - log_p - log_q)))
        de, ds = _marginal_changes(G.matrix, system, beta)
        grid = grid_pass(G, [beta])
        for route in (beta * de - ds, float(grid.betas[0] * grid.dq[0] - grid.ds[0])):
            assert abs(residual - (route - defect)) <= SCALAR_ROUNDING * UNIT_ROUNDOFF * size
        gaps = leading_term_gaps(G.matrix, system, beta)
        event(f"a Gibbs weight underflows: {gaps is None}")
        for gap, bound in gaps or ():
            assert gap <= bound + LEADING_ROUNDING * UNIT_ROUNDOFF


class TestExactResidualReference:
    """The residual against its 40-digit value on the 28 exact cases, M = T,
    beta in {-beta0, 0, beta0/2, 2 beta0}, eps from 1 down to 1e-12: within
    2 u S, S carrying the rounding of delta = M p - p itself."""

    @pytest.mark.parametrize("build", EXACT_CASES)
    def test_residual_lies_within_rounding_of_its_exact_value(self, build):
        G = build()
        for beta in (-G.beta0, 0.0, G.beta0 / 2, 2 * G.beta0):
            for eps in (1.0, 1e-1, 1e-3, 1e-6, 1e-9, 1e-12):
                residual = clausius_equality_residual(G.matrix, G.system, beta, eps)
                exact, size = exact_residual(G.matrix, G.system, beta, eps)
                assert abs(residual - exact) <= RESIDUAL_ROUNDING * UNIT_ROUNDOFF * size, (beta, eps)
