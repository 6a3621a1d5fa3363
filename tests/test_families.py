"""Properties of the instance families themselves: thermal operations, whose
Gibbs fixed point comes from unitarity alone, and the degeneracy lift, which
must leave every verify line where it was."""

import functools
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings

from nlsthermo.core import (SUM_TOL, GibbsMatrix, TransitionMatrix, certify_gibbs_matrix,
                            make_gibbs_state)
from nlsthermo.fluctuation import bistochastic_work_check, grid_pass, inequality_suite
from nlsthermo.response import cumulant_suite, slope_suite
from strategies import lift, metropolis_instances, thermal_draw

#: unit roundoff of a double
UNIT_ROUNDOFF = np.finfo(float).eps / 2

#: c in the c N u bound on the fixed-point and column-sum lines; 5000 seeded
#: draws per variant reached 12
ROUNDING_FACTOR = 32

#: the argmin beta a line names may move between near-tied grid points
BETA_SUFFIX = re.compile(r" \[beta=[^\]]*\]$")


def verify_lines(system, raw, beta0):
    """Every line ``verify`` reports on the default grid (201 points over
    +/- 5 beta0), and the certified matrix or None."""
    lines, G = certify_gibbs_matrix(raw, system, beta0)
    if G is not None:
        lines += inequality_suite(grid_pass(G, np.linspace(-5.0 * beta0, 5.0 * beta0, 201)))
        lines += slope_suite(G) + cumulant_suite(G)
    return lines, G


@functools.cache
def thermal_draws(haar):
    """200 seeded :func:`thermal_draw` instances of one variant."""
    return [thermal_draw(seed, haar) for seed in range(200)]


def heat_symmetry_defect(G):
    """Largest |chi(s) - chi(beta - beta0 - s)| / max(1, |chi(s)|) over a few
    beta and s, chi(s) = <exp(-s dQ)> from the Gibbs state at beta, which
    detailed balance makes symmetric (Jarzynski and Wojcik, PRL 92, 230602, 2004)."""
    energies, t = G.system.energies, G.matrix.entries
    gaps = energies[:, None] - energies[None, :]
    worst = 0.0
    for beta in (0.0, G.beta0 / 2, 2 * G.beta0, 3 * G.beta0):
        p = make_gibbs_state(G.system, beta).weights
        dbeta = beta - G.beta0
        for s in (-0.5, dbeta / 4, 1.0):
            a, b = (float(np.sum(t * p * np.exp(-x * gaps))) for x in (s, dbeta - s))
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    return worst


def balance_defect(G):
    """max |T[j, i] p0_i - T[i, j] p0_j|."""
    flow = G.matrix.entries * G.fixed_point.weights
    return float(np.abs(flow - flow.T).max())


class TestThermalOperations:
    """T[j, i] = (1/d_i) sum |<j beta a|U|i alpha b>|^2 g_b with U energy
    conserving on system plus bath ladder, 200 draws per variant."""

    @pytest.mark.parametrize("haar", [False, True], ids=["time-average", "haar"])
    def test_every_draw_certifies_to_rounding_and_passes_every_line(self, haar):
        for system, raw, beta0 in thermal_draws(haar):
            lines, G = verify_lines(system, raw, beta0)
            column_sum, fixed_point, _ = lines[:3]
            assert G is not None
            bound = ROUNDING_FACTOR * system.size * UNIT_ROUNDOFF
            assert fixed_point.lhs <= bound and column_sum.lhs <= bound
            assert [line.label for line in lines if not line.holds] == []

    def test_time_average_keeps_detailed_balance_and_heat_symmetry(self):
        for system, raw, beta0 in thermal_draws(False):
            G = GibbsMatrix(TransitionMatrix(raw), system, beta0)
            assert balance_defect(G) <= 1e-13
            assert heat_symmetry_defect(G) <= 1e-13

    def test_haar_draws_break_detailed_balance(self):
        """A Haar shell of three or more states has no symmetric |U|^2, so
        most draws break both (164 and 116 of the 200)."""
        draws = [GibbsMatrix(TransitionMatrix(raw), system, beta0)
                 for system, raw, beta0 in thermal_draws(True)]
        assert sum(balance_defect(G) > 1e-13 for G in draws) >= 100
        assert sum(heat_symmetry_defect(G) > 1e-13 for G in draws) >= 60

    @pytest.mark.parametrize("seed", range(20))
    def test_one_level_bath_is_bistochastic(self, seed):
        """With no bath energy to exchange, T mixes only equal-energy levels
        by a doubly stochastic |U|^2, and the pure-work bounds apply."""
        system, raw, _ = thermal_draw(seed, seed % 2 == 1, bath_levels=1, unit=True)
        T = TransitionMatrix(raw)
        assert np.abs(raw.sum(axis=1) - 1.0).max() <= SUM_TOL
        for beta in (0.0, 0.5, 2.0, 10.0):
            assert all(r.holds for r in bistochastic_work_check(T, system, beta))


#: the line a lift moves by more than rounding: the sign rule's lhs is the
#: least entry, which the lift divides by d_m; it keeps its verdict
VERDICT_ONLY = ("certification: entries nonnegative",)


class TestDegeneracyLift:
    @given(metropolis_instances())
    @settings(max_examples=200, deadline=None)
    def test_lift_keeps_every_verdict_and_value(self, instance):
        """A level of degeneracy d split into d unit levels carries the same
        <dQ>, <dS>, KL sides and slopes, so every line keeps its verdict and,
        but for ``VERDICT_ONLY``, its values to 1e-9 max(1, |x|) + 1e-12.

        That needs each quotient T[m, n] / d_m rounded to a relative u: a
        subnormal one carries fewer bits, and the fixed-point ratio reads its
        error times p0_n / p0_m (one Metropolis draw with a 3e-316 quotient
        certified at max |rho - 1| = 4.1e-11, and its lift read 6.7e-10)."""
        system, raw, beta0 = instance
        lifted_system, lifted_raw = lift(system, raw)
        assume(not np.any((lifted_raw > 0.0) & (lifted_raw < np.finfo(float).tiny)))
        lines, G = verify_lines(system, raw, beta0)
        lifted, G_lift = verify_lines(lifted_system, lifted_raw, beta0)
        assert (G is None) == (G_lift is None)
        assert [line.holds for line in lines] == [line.holds for line in lifted]
        if G is None:
            # a ratio far from 1 comes from entries that underflowed, which the
            # division by d_m rounds anew: one draw read 0.4166669 and 0.4166681
            return
        for line, other in zip(lines, lifted):
            if line.label.startswith(VERDICT_ONLY):
                continue
            assert BETA_SUFFIX.sub("", line.label) == BETA_SUFFIX.sub("", other.label)
            for side in ("lhs", "rhs"):
                x, y = getattr(line, side), getattr(other, side)
                assert abs(x - y) <= 1e-9 * max(1.0, abs(x)) + 1e-12, (line.label, side)
