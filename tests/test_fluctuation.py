"""J-equation identities and the second-law-like inequality checks."""

import math

import numpy as np
import pytest

from nlsthermo.core import (
    FIXED_POINT_TOL,
    SUM_TOL,
    GibbsMatrix,
    InvalidInputError,
    LevelSystem,
    ProbabilityVector,
    TransitionMatrix,
    entropy,
    make_gibbs_state,
    propagate,
)
from nlsthermo.fluctuation import (
    J_EQUATION_TOL,
    bistochastic_work_check,
    certification_suite,
    clausius_bounds,
    compare,
    entropy_flow_check,
    general_j_expectation,
    grid_pass,
    heat_and_entropy_change,
    heat_flow_check,
    inequality_suite,
    j_heat_expectation,
    jequation_suite,
    kl_monotonicity_check,
)
from nlsthermo.genrand import random_gibbs_instance, random_stochastic
from nlsthermo.spinboson import spin1_gibbs_matrix


def positive_distribution(n, rng):
    w = rng.uniform(0.05, 1.0, size=n)
    return w / w.sum()


def general_j_oracle(T, p, p0, ptilde):
    """Independent double sum with compensated accumulation."""
    t = T.entries
    q0 = [math.fsum(float(t[j, i]) * float(p0[i]) for i in range(t.shape[1]))
          for j in range(t.shape[0])]
    terms = []
    for j in range(t.shape[0]):
        for i in range(t.shape[1]):
            if t[j, i] > 0.0:
                terms.append(float(t[j, i]) * float(p[i]) * float(p0[i])
                             * float(ptilde[j]) / (q0[j] * float(p[i])))
    return math.fsum(terms)


def j_heat_oracle(G, beta):
    """Direct summation of T[m,n] p_n exp(-(beta-beta0)(E_m - E_n))."""
    t = G.matrix.entries
    e = G.system.energies
    p = make_gibbs_state(G.system, beta).probabilities.weights
    dbeta = beta - G.beta0
    return math.fsum(
        float(t[m, n]) * float(p[n]) * math.exp(-dbeta * float(e[m] - e[n]))
        for m in range(t.shape[0]) for n in range(t.shape[1]))


class TestInequalityReport:
    def test_holds_tracks_slack(self):
        assert compare("x", 0.0, 1.0).holds
        assert compare("x", 0.0, -1e-13).holds
        assert not compare("x", 0.0, -1e-11).holds
        report = compare("x", 2.0, 5.0)
        assert report.slack == 3.0


class TestGeneralJEquation:
    def test_identity_matrix_is_exact(self):
        T = TransitionMatrix(np.eye(4))
        p = ProbabilityVector([0.25, 0.25, 0.25, 0.25])
        p0 = ProbabilityVector([0.5, 0.25, 0.125, 0.125])
        ptilde = ProbabilityVector([0.125, 0.125, 0.25, 0.5])
        assert general_j_expectation(T, p, p0, ptilde) == 1.0

    def test_random_positive_instances_match_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            T = random_stochastic(5, rng.integers(1 << 31))
            p = positive_distribution(5, rng)
            p0 = positive_distribution(5, rng)
            ptilde = positive_distribution(5, rng)
            value = general_j_expectation(T, p, p0, ptilde)
            assert abs(value - 1.0) <= 1e-12
            assert value == pytest.approx(
                general_j_oracle(T, p, p0, ptilde), abs=5e-14)

    def test_propagated_ptilde_feeds_the_clausius_route(self):
        G = random_gibbs_instance(6, 13)
        p = make_gibbs_state(G.system, 2.2).probabilities
        q = propagate(G.matrix, p)
        value = general_j_expectation(G.matrix, p, G.fixed_point, q)
        assert abs(value - 1.0) <= 1e-12

    def test_rejects_zero_entries(self):
        T = TransitionMatrix(np.eye(2))
        good = ProbabilityVector([0.5, 0.5])
        dead = ProbabilityVector([1.0, 0.0])
        with pytest.raises(InvalidInputError, match="p must"):
            general_j_expectation(T, dead, good, good)
        with pytest.raises(InvalidInputError, match="p0"):
            general_j_expectation(T, good, dead, good)


class TestHeatJEquation:
    def test_equal_temperatures(self):
        G = random_gibbs_instance(5, 3)
        assert j_heat_expectation(G, G.beta0) == pytest.approx(1.0, abs=1e-13)

    def test_spin_boson_example(self):
        G = spin1_gibbs_matrix(1.0)
        value = j_heat_expectation(G, 2.0)
        assert abs(value - 1.0) <= 1e-10
        assert value == pytest.approx(j_heat_oracle(G, 2.0), abs=1e-12)

    def test_random_instance_negative_beta(self):
        G = random_gibbs_instance(8, 21)
        value = j_heat_expectation(G, -3.0)
        assert abs(value - 1.0) <= 1e-10
        assert value == pytest.approx(j_heat_oracle(G, -3.0), abs=1e-11)

    def test_agrees_with_general_j_specialization(self):
        # ptilde = p with the Gibbs fixed point: the same expectation through
        # the probability-ratio route
        for seed in (5, 6):
            G = random_gibbs_instance(4, seed)
            for beta in (-4.0, 0.3, 2.5):
                p = make_gibbs_state(G.system, beta).probabilities
                via_ratio = general_j_expectation(G.matrix, p, G.fixed_point, p)
                via_heat = j_heat_expectation(G, beta)
                assert via_ratio == pytest.approx(via_heat, abs=1e-12)

    def test_thousand_certified_instances_across_the_wide_range(self):
        # identity and route agreement over 1000 instances, beta in [-10, 10]
        rng = np.random.default_rng(271828)
        worst_identity = worst_route_gap = 0.0
        for k in range(1000):
            G = random_gibbs_instance(2 + k % 15, 70_000 + k)
            beta = float(rng.uniform(-10.0, 10.0))
            via_heat = j_heat_expectation(G, beta)
            worst_identity = max(worst_identity, abs(via_heat - 1.0))
            p = make_gibbs_state(G.system, beta).probabilities
            via_ratio = general_j_expectation(G.matrix, p, G.fixed_point, p)
            worst_route_gap = max(worst_route_gap, abs(via_ratio - via_heat))
        assert worst_identity <= 1e-10
        assert worst_route_gap <= 1e-12


class TestHeatFlow:
    def test_zero_at_equal_temperatures(self):
        G = random_gibbs_instance(4, 2)
        report = heat_flow_check(G, G.beta0)
        assert report.holds
        assert abs(report.rhs) <= 1e-13

    def test_hotter_system_loses_heat(self):
        G = spin1_gibbs_matrix(1.0)
        dq, _ = heat_and_entropy_change(G, 0.5)
        assert dq <= 0.0
        assert heat_flow_check(G, 0.5).holds

    def test_colder_system_gains_heat(self):
        G = random_gibbs_instance(5, 15)
        dq, _ = heat_and_entropy_change(G, 2.0 * G.beta0)
        assert dq >= 0.0
        assert heat_flow_check(G, 2.0 * G.beta0).holds


class TestClausiusBounds:
    def test_common_zero_at_bath_temperature(self):
        G = spin1_gibbs_matrix(1.0)
        bounds = clausius_bounds(G, 1.0)
        assert abs(bounds.beta0_heat) <= 1e-12
        assert abs(bounds.entropy_increase) <= 1e-12
        assert abs(bounds.beta_heat) <= 1e-12

    def test_spin_boson_strict_ordering(self):
        bounds = clausius_bounds(spin1_gibbs_matrix(1.0), 3.0)
        assert bounds.lower.holds and bounds.upper.holds
        assert bounds.lower.slack > 1e-6
        assert bounds.upper.slack > 1e-6

    def test_negative_beta_keeps_ordering_with_opposite_heat_terms(self):
        G = random_gibbs_instance(4, 44)
        bounds = clausius_bounds(G, -5.0 * G.beta0)
        assert bounds.lower.holds and bounds.upper.holds
        # at negative beta the two heat terms bracket with opposite signs
        assert bounds.beta0_heat <= 0.0 <= bounds.beta_heat


class TestEntropyFlow:
    def test_zero_at_equal_temperatures(self):
        G = random_gibbs_instance(3, 9)
        report = entropy_flow_check(G, G.beta0)
        assert report.holds
        assert abs(report.rhs) <= 1e-13

    def test_hotter_system_loses_entropy(self):
        G = spin1_gibbs_matrix(1.0)
        _, ds = heat_and_entropy_change(G, 0.1)
        assert ds <= 0.0
        assert entropy_flow_check(G, 0.1).holds

    def test_colder_system_gains_entropy(self):
        G = random_gibbs_instance(6, 30)
        _, ds = heat_and_entropy_change(G, 4.0 * G.beta0)
        assert ds >= 0.0
        assert entropy_flow_check(G, 4.0 * G.beta0).holds

    def test_negative_beta_is_outside_the_hypothesis(self):
        G = random_gibbs_instance(3, 1)
        with pytest.raises(InvalidInputError):
            entropy_flow_check(G, -0.5)


class TestKlMonotonicity:
    def test_identity_map_is_equality(self):
        T = TransitionMatrix(np.eye(3))
        p = ProbabilityVector([0.2, 0.5, 0.3])
        p0 = ProbabilityVector([0.4, 0.4, 0.2])
        report = kl_monotonicity_check(T, p, p0)
        assert report.holds
        assert abs(report.slack) <= 1e-14

    def test_rank_one_map_contracts_fully(self):
        v = np.array([0.3, 0.3, 0.4])
        T = TransitionMatrix(np.tile(v[:, None], (1, 3)))
        p = ProbabilityVector([0.2, 0.5, 0.3])
        p0 = ProbabilityVector([0.4, 0.4, 0.2])
        report = kl_monotonicity_check(T, p, p0)
        assert report.lhs <= 1e-14
        assert report.holds

    def test_random_triples_hold(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            T = random_stochastic(6, rng.integers(1 << 31))
            p = positive_distribution(6, rng)
            p0 = positive_distribution(6, rng)
            assert kl_monotonicity_check(T, p, p0).holds

    def test_requires_strict_positivity(self):
        T = TransitionMatrix(np.eye(2))
        with pytest.raises(InvalidInputError):
            kl_monotonicity_check(T, ProbabilityVector([1.0, 0.0]),
                                  ProbabilityVector([0.5, 0.5]))


def permutation_mixture(n, k, rng):
    weights = rng.uniform(size=k)
    weights /= weights.sum()
    entries = np.zeros((n, n))
    for w in weights:
        entries += w * np.eye(n)[rng.permutation(n)]
    return TransitionMatrix(entries)


class TestBistochasticLimit:
    def test_permutation_leaves_entropy_unchanged(self):
        system = LevelSystem([0.0, 1.0, 2.0], [1, 1, 1])
        perm = TransitionMatrix(np.eye(3)[[2, 0, 1]])
        first, second = bistochastic_work_check(perm, system, beta=1.0)
        assert abs(first.rhs) <= 1e-13
        assert first.holds and second.holds

    def test_uniform_matrix_maximizes_entropy(self):
        system = LevelSystem([0.0, 0.5, 1.0, 2.0], [1, 1, 1, 1])
        T = TransitionMatrix(np.full((4, 4), 0.25))
        beta = 1.2
        p = make_gibbs_state(system, beta).probabilities
        first, second = bistochastic_work_check(T, system, beta)
        expected = math.log(4) - entropy(system, p)
        assert first.rhs == pytest.approx(expected, rel=1e-12)
        assert first.holds and second.holds

    def test_random_mixtures_hold(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            system = LevelSystem(rng.normal(size=n), np.ones(n, dtype=np.int64))
            T = permutation_mixture(n, 5, rng)
            first, second = bistochastic_work_check(T, system, beta=1.0)
            assert first.holds and second.holds

    def test_rejects_non_bistochastic(self):
        inst = random_gibbs_instance(4, 3)
        system = LevelSystem(np.zeros(4), np.ones(4, dtype=np.int64))
        with pytest.raises(InvalidInputError, match="bi-stochastic"):
            bistochastic_work_check(inst.matrix, system, beta=1.0)

    def test_rejects_degenerate_levels(self):
        system = LevelSystem([0.0, 1.0], [2, 1])
        T = TransitionMatrix(np.eye(2))
        with pytest.raises(InvalidInputError, match="degenerac"):
            bistochastic_work_check(T, system, beta=1.0)

    def test_rejects_negative_beta(self):
        system = LevelSystem([0.0, 1.0], [1, 1])
        T = TransitionMatrix(np.eye(2))
        with pytest.raises(InvalidInputError, match="beta"):
            bistochastic_work_check(T, system, beta=-0.5)


# ---------------------------------------------------------------------------
# the grid pass against the per-point functions
# ---------------------------------------------------------------------------

# +/-800 drive some Gibbs weights of the wider spectra (spin-1, N = 3) to
# exactly zero, so the p > 0 mask is hit both ways
WIDE_GRID = np.concatenate(([-800.0], np.linspace(-50.0, 50.0, 41), [800.0]))
GRID_CASES = [pytest.param(lambda n=n: random_gibbs_instance(n, 70 + n),
                           id=f"random-{n}") for n in (3, 8, 32)]
GRID_CASES.append(pytest.param(lambda: spin1_gibbs_matrix(1.0), id="spin1"))


@pytest.mark.parametrize("build", GRID_CASES)
class TestGridPass:
    def test_matches_the_per_point_functions_exactly(self, build):
        G = build()
        grid = grid_pass(G, WIDE_GRID, identities=True)
        assert grid.positive.any()
        for i, beta in enumerate(WIDE_GRID.tolist()):
            assert (grid.dq[i], grid.ds[i]) == heat_and_entropy_change(G, beta)
            assert grid.j_heat[i] == j_heat_expectation(G, beta)
            p = make_gibbs_state(G.system, beta).probabilities
            assert grid.positive[i] == (p.weights.min() > 0.0)
            if not grid.positive[i]:
                assert math.isnan(grid.j_general[i])
                continue
            q = propagate(G.matrix, p)
            assert grid.j_general[i] == general_j_expectation(
                G.matrix, p, G.fixed_point, q)
            report = kl_monotonicity_check(G.matrix, p, G.fixed_point)
            assert (grid.kl_after[i], grid.kl_before[i]) == (report.lhs, report.rhs)

    def test_without_identities_gives_the_same_heat_and_entropy(self, build):
        G = build()
        full = grid_pass(G, WIDE_GRID, identities=True)
        plain = grid_pass(G, WIDE_GRID)
        assert plain.j_heat is None and plain.positive is None
        assert np.array_equal(plain.dq, full.dq)
        assert np.array_equal(plain.ds, full.ds)

    def test_suites_report_the_worst_per_point_value(self, build):
        G = build()
        grid = grid_pass(G, WIDE_GRID, identities=True)
        heat, general = jequation_suite(grid)
        assert heat.lhs == max(abs(j_heat_expectation(G, b) - 1.0) for b in WIDE_GRID)
        assert heat.rhs == general.rhs == J_EQUATION_TOL
        assert heat.holds and general.holds
        flow, lower, upper, entropy_flow, contraction = inequality_suite(grid)
        per_point = [heat_flow_check(G, b) for b in WIDE_GRID]
        worst = min(range(len(per_point)), key=lambda i: per_point[i].slack)
        assert flow.label.endswith(f"[beta={WIDE_GRID[worst]:.17g}]")
        assert (flow.lhs, flow.rhs) == (per_point[worst].lhs, per_point[worst].rhs)
        bounds = [clausius_bounds(G, b) for b in WIDE_GRID]
        assert lower.slack == min(b.lower.slack for b in bounds)
        assert upper.slack == min(b.upper.slack for b in bounds)
        assert entropy_flow.slack == min(
            entropy_flow_check(G, b).slack for b in WIDE_GRID if b >= 0.0)
        assert contraction.label.startswith("KL contraction")
        assert all(c.holds for c in (flow, lower, upper, entropy_flow, contraction))


class TestGridSuites:
    @pytest.mark.parametrize("build", GRID_CASES[0:1] + GRID_CASES[3:])
    def test_wide_grid_reaches_zero_gibbs_weights(self, build):
        grid = grid_pass(build(), WIDE_GRID, identities=True)
        assert not grid.positive[0] and not grid.positive[-1]
        assert grid.positive[1:-1].all()
        assert np.isnan(grid.kl_after[[0, -1]]).all()

    def test_negative_grid_has_no_entropy_flow_report(self):
        G = random_gibbs_instance(4, 3)
        grid = grid_pass(G, np.linspace(-5.0, -1.0, 9), identities=True)
        labels = [c.label for c in inequality_suite(grid)]
        assert len(labels) == 4
        assert not any(label.startswith("entropy flow") for label in labels)

    def test_first_minimum_wins_ties(self):
        # the identity map leaves p unchanged: every slack is exactly zero
        system = LevelSystem([0.3, -1.2, 2.0], [1, 1, 1])
        G = GibbsMatrix(TransitionMatrix(np.eye(3)), system, 1.0)
        grid = grid_pass(G, [-2.0, 0.5, 3.0], identities=True)
        reports = inequality_suite(grid)
        assert all(r.slack == 0.0 for r in reports)
        # entropy flow counts only beta >= 0, so its first point is 0.5
        assert [r.label.rsplit(" ", 1)[1] for r in reports] == [
            "[beta=-2]", "[beta=-2]", "[beta=-2]", "[beta=0.5]", "[beta=-2]"]

    def test_rejects_a_nonfinite_beta(self):
        G = random_gibbs_instance(4, 3)
        with pytest.raises(InvalidInputError):
            grid_pass(G, [0.0, math.inf])

    def test_heat_j_overflow_near_1e300_matches_the_per_point_value(self):
        # rounding in the log-space terms overflows exp at these betas; both
        # paths report inf, and the suite warning filter turns any numpy
        # overflow warning into a failure here
        G = random_gibbs_instance(5, 2)
        betas = np.linspace(-1e300, 1e300, 101)
        grid = grid_pass(G, betas, identities=True)
        assert np.isinf(grid.j_heat).any()
        for i, beta in enumerate(betas.tolist()):
            assert grid.j_heat[i] == j_heat_expectation(G, beta)
        heat, _ = jequation_suite(grid)
        assert not heat.holds


class TestCertificationSuite:
    LABELS = ["certification: column-sum deviation <= tol",
              "certification: fixed-point residual <= tol",
              "certification: entries nonnegative"]

    def test_certified_instance_passes_with_the_rule_bounds(self):
        inst = random_gibbs_instance(6, 4)
        reports, G = certification_suite(inst.matrix.entries, inst.system, inst.beta0)
        assert [r.label for r in reports] == self.LABELS
        assert [r.rhs for r in reports] == [SUM_TOL, FIXED_POINT_TOL, 0.0]
        assert all(r.holds and r.slack >= 0.0 for r in reports)
        assert all(r.slack == r.rhs - r.lhs for r in reports)
        np.testing.assert_array_equal(G.matrix.entries, inst.matrix.entries)
        assert G.fixed_point.weights.tolist() == inst.fixed_point.weights.tolist()

    @pytest.mark.parametrize("entry, failing", [
        (1.005e-10, [0]),                 # inside the report slack, outside the rule
        (5e-11, [0]),
        (1.5e-12, [0]),                   # within SLACK_TOL of the bound
        (-5e-13, [2]),                    # within SLACK_TOL of zero
        (-1e-11, [0, 2]),
        (-0.0, []),
    ])
    def test_each_line_holds_exactly_when_its_rule_does(self, entry, failing):
        raw = np.eye(3)
        raw[1, 2] = entry
        reports, G = certification_suite(raw, LevelSystem([0.0, 1.0, 2.0], [1, 1, 1]), 1.0)
        assert [i for i, r in enumerate(reports) if not r.holds] == failing
        assert (G is None) == bool(failing)
        assert all(r.holds == (r.slack >= 0.0) for r in reports)

    def test_broken_fixed_point_fails_only_its_line(self):
        inst = random_gibbs_instance(4, 8)
        reports, G = certification_suite(inst.matrix.entries, inst.system, 2.0)
        assert [r.holds for r in reports] == [True, False, True]
        assert G is None
