"""J-equation identities and the second-law-like inequality checks."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nlsthermo.core import (
    FIXED_POINT_TOL,
    SUM_TOL,
    CertificationError,
    EvaluationError,
    GibbsMatrix,
    InvalidInputError,
    LevelSystem,
    ProbabilityVector,
    TransitionMatrix,
    certify_gibbs_matrix,
    entropy,
    gibbs_log_weights,
    kl_divergence,
    make_gibbs_state,
    mean_energy,
    propagate,
    _from_reference,
)
from nlsthermo.fluctuation import (
    BLOCK_ROWS,
    _gibbs_rows,
    bistochastic_work_check,
    clausius_bounds,
    compare,
    entropy_flow_check,
    general_j_expectation,
    grid_pass,
    heat_and_entropy_change,
    heat_flow_check,
    inequality_suite,
    j_heat_expectation,
    kl_monotonicity_check,
)
from nlsthermo.genrand import random_gibbs_instance, random_stochastic
from nlsthermo.spinboson import spin1_gibbs_matrix
from strategies import (EXACT_CASES, exact_gibbs, ladder_instances, metropolis_instances,
                        random_instances, spin1_instances, thermal_instances)


#: unit roundoff of a double
UNIT_ROUNDOFF = np.finfo(float).eps / 2


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
    p = make_gibbs_state(G.system, beta).weights
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
        p = make_gibbs_state(G.system, 2.2)
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
                p = make_gibbs_state(G.system, beta)
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
            p = make_gibbs_state(G.system, beta)
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
        p = make_gibbs_state(system, beta)
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
# exactly zero, so the KL sides are read on rows with a zero weight too; the
# grid spans more than one block of the pass
WIDE_GRID = np.concatenate(([-800.0], np.linspace(-50.0, 50.0, BLOCK_ROWS + 45), [800.0]))
GRID_CASES = [pytest.param(lambda n=n: random_gibbs_instance(n, 70 + n),
                           id=f"random-{n}") for n in (3, 8, 32, 96)]
GRID_CASES.append(pytest.param(lambda: spin1_gibbs_matrix(1.0), id="spin1"))

#: the pass sums in another order than the per-point functions
DIFF_TOL = 1e-12


def assert_close(batch, reference, scale=0.0):
    """|batch - reference| <= DIFF_TOL max(|reference|, scale) everywhere."""
    batch, reference = np.asarray(batch), np.asarray(reference)
    bound = DIFF_TOL * np.maximum(np.abs(reference), scale)
    assert np.all(np.abs(batch - reference) <= bound)


def per_point(G, betas):
    """The per-point functions over ``betas``, with the magnitudes each value
    cancels down from: E(q), E(p) for <dQ>, S(q), S(p) for <dS>, and the
    cross entropy of each KL side.  The KL sides are the 0 log 0 = 0
    divergences, so a row with a zero Gibbs weight has them too."""
    q0 = propagate(G.matrix, G.fixed_point)
    rows = []
    for beta in betas.tolist():
        p = make_gibbs_state(G.system, beta)
        q = propagate(G.matrix, p)
        dq, ds = heat_and_entropy_change(G, beta)
        rows.append((
            dq, max(abs(mean_energy(G.system, q)), abs(mean_energy(G.system, p))),
            ds, max(abs(entropy(G.system, q)), abs(entropy(G.system, p))),
            kl_divergence(q, q0), kl_divergence(p, G.fixed_point),
            -float(q.weights @ np.log(q0.weights)),
            -float(p.weights @ np.log(G.fixed_point.weights))))
    return [np.array(column) for column in zip(*rows)]


@pytest.mark.parametrize("build", GRID_CASES)
class TestGridPass:
    def test_agrees_with_the_per_point_functions(self, build):
        G = build()
        grid = grid_pass(G, WIDE_GRID)
        (dq, dq_scale, ds, ds_scale, kl_after, kl_before,
         after_scale, before_scale) = per_point(G, WIDE_GRID)
        assert_close(grid.dq, dq, dq_scale)
        assert_close(grid.ds, ds, ds_scale)
        assert_close(grid.kl_after, kl_after, after_scale)
        assert_close(grid.kl_before, kl_before, before_scale)

    def test_suites_report_the_worst_per_point_value(self, build):
        G = build()
        grid = grid_pass(G, WIDE_GRID)
        flow, lower, upper, entropy_flow, contraction = inequality_suite(grid)
        _, _, _, _, kl_after, kl_before, _, _ = per_point(G, WIDE_GRID)
        per_point_slacks = [
            (flow, [heat_flow_check(G, b).slack for b in WIDE_GRID], WIDE_GRID),
            (lower, [clausius_bounds(G, b).lower.slack for b in WIDE_GRID], WIDE_GRID),
            (upper, [clausius_bounds(G, b).upper.slack for b in WIDE_GRID], WIDE_GRID),
            (entropy_flow, [entropy_flow_check(G, b).slack for b in WIDE_GRID if b >= 0.0],
             WIDE_GRID[WIDE_GRID >= 0.0]),
        ]
        for report, slacks, betas in per_point_slacks:
            worst = int(np.argmin(slacks))
            assert report.label.endswith(f"[beta={betas[worst]:.17g}]")
            assert report.slack == pytest.approx(slacks[worst], abs=DIFF_TOL)
        # KL slacks tie near beta0 up to rounding: the reported one is the least
        assert contraction.label.startswith("KL contraction")
        assert contraction.slack == pytest.approx(min(kl_before - kl_after), abs=DIFF_TOL)
        assert all(c.holds for c in (flow, lower, upper, entropy_flow, contraction))

    def test_certification_bounds_both_j_equations(self, build):
        """J_heat(beta) = p(beta) @ rho and J_general(beta) = p(beta) @ (column
        sums) are convex combinations, so the fixed-point and column-sum lines
        bound |J - 1| at every beta; these lines are the J-equation checks."""
        G = build()
        column_sum, fixed_point, _ = G.certification
        assert fixed_point.lhs == np.abs(G.rho - 1.0).max()
        assert column_sum.lhs == np.abs(G.matrix.entries.sum(axis=0) - 1.0).max()
        assert (fixed_point.rhs, column_sum.rhs) == (FIXED_POINT_TOL, SUM_TOL)
        assert fixed_point.holds and column_sum.holds
        p = np.exp(gibbs_log_weights(G.system, WIDE_GRID)[0])
        p /= p.sum(axis=1, keepdims=True)
        rounding = 4 * G.size * UNIT_ROUNDOFF
        assert np.abs(p @ G.rho - 1.0).max() <= fixed_point.lhs + rounding
        sums = G.matrix.entries.sum(axis=0)
        assert np.abs(p @ sums - 1.0).max() <= column_sum.lhs + rounding
        # the per-point double sum stays within the tolerance on the wide grid
        assert max(abs(j_heat_expectation(G, b) - 1.0) for b in WIDE_GRID) <= FIXED_POINT_TOL


#: c in the c u S bound between a beta alone and inside a grid; random 96/0
#: reaches 3.0 on <dQ>, 1.8 on <dS>, 0.18 on S(Tp || Tp0) and 0 on S(p || p0)
LAYOUT_ROUNDING = 8


class TestGridLayout:
    def test_a_beta_alone_agrees_with_it_inside_the_grid(self):
        """q = p T^T goes through BLAS, which blocks a 1-row and a 256-row
        product differently, so a beta evaluated alone may differ in its last
        bits from the same beta inside a 2001-point grid: within c u S, S the
        magnitudes each line sums, on every value, sampled at every 7th beta."""
        G = random_gibbs_instance(96, 0)
        betas = np.linspace(G.beta0 - 10.0, G.beta0 + 10.0, 2001)
        grid = grid_pass(G, betas)
        p, q, log_p, log_q = _gibbs_rows(G, betas)
        energies, _ = _from_reference(G.system.energies)
        log_d = np.log(G.system.degeneracy_weights())
        log_q0 = np.log(G.rho) + G.log_p0
        sizes = {"dq": (p + q) @ np.abs(energies),
                 "ds": (p * np.abs(log_p - log_d) + q * np.abs(log_q - log_d)).sum(axis=1),
                 "kl_after": (q * (np.abs(log_q) + np.abs(log_q0))).sum(axis=1),
                 "kl_before": (p * (np.abs(log_p) + np.abs(G.log_p0))).sum(axis=1)}
        for i in range(0, betas.size, 7):
            alone = grid_pass(G, betas[i:i + 1])
            for name, size in sizes.items():
                gap = abs(getattr(alone, name)[0] - getattr(grid, name)[i])
                assert gap <= LAYOUT_ROUNDING * UNIT_ROUNDOFF * size[i], (betas[i], name)


class TestGridSuites:
    @pytest.mark.parametrize("build", [GRID_CASES[0], GRID_CASES[-1]])
    def test_wide_grid_reaches_zero_gibbs_weights(self, build):
        """Rows with a zero Gibbs weight keep finite KL sides, the 0 log 0 = 0
        divergences of the per-point functions (p0 is positive here)."""
        G = build()
        grid = grid_pass(G, WIDE_GRID)
        p = np.exp(gibbs_log_weights(G.system, WIDE_GRID)[0])
        zero = (p == 0.0).any(axis=1)
        assert zero[0] and zero[-1] and not zero[1:-1].any()
        assert G.fixed_point.weights.min() > 0.0
        assert np.isfinite(grid.kl_after).all() and np.isfinite(grid.kl_before).all()
        q0 = propagate(G.matrix, G.fixed_point)
        for i in (0, -1):
            p = make_gibbs_state(G.system, WIDE_GRID[i])
            after = kl_divergence(propagate(G.matrix, p), q0)
            before = kl_divergence(p, G.fixed_point)
            assert grid.kl_after[i] == pytest.approx(after, rel=DIFF_TOL, abs=DIFF_TOL)
            assert grid.kl_before[i] == pytest.approx(before, rel=DIFF_TOL, abs=DIFF_TOL)

    def test_spin1_kl_line_reaches_the_ground_state_limit(self):
        """Over +/-1e300 every row but beta = 0 has a zero Gibbs weight.  The
        KL line once skipped those rows and reported slack 2.05 at beta = 0;
        it reads every row now, and the least slack is near beta = 1e297,
        where p is the ground state."""
        grid = grid_pass(spin1_gibbs_matrix(5.0), np.linspace(-1e300, 1e300, 2001))
        assert np.isfinite(grid.kl_after).all() and np.isfinite(grid.kl_before).all()
        contraction = inequality_suite(grid)[-1]
        assert contraction.label == ("KL contraction: worst slack of S(Tp||Tp0) <= S(p||p0) "
                                     "[beta=9.9999999999996139e+296]")
        assert contraction.slack == pytest.approx(5.724968556425736e-3, rel=1e-12)
        assert contraction.holds

    def test_negative_grid_has_no_entropy_flow_report(self):
        G = random_gibbs_instance(4, 3)
        grid = grid_pass(G, np.linspace(-5.0, -1.0, 9))
        labels = [c.label for c in inequality_suite(grid)]
        assert len(labels) == 4
        assert not any(label.startswith("entropy flow") for label in labels)

    def test_first_minimum_wins_ties(self):
        # the identity map leaves p unchanged: every slack is exactly zero
        system = LevelSystem([0.3, -1.2, 2.0], [1, 1, 1])
        G = GibbsMatrix(TransitionMatrix(np.eye(3)), system, 1.0)
        grid = grid_pass(G, [-2.0, 0.5, 3.0])
        reports = inequality_suite(grid)
        assert all(r.slack == 0.0 for r in reports)
        # entropy flow counts only beta >= 0, so its first point is 0.5
        assert [r.label.rsplit(" ", 1)[1] for r in reports] == [
            "[beta=-2]", "[beta=-2]", "[beta=-2]", "[beta=0.5]", "[beta=-2]"]

    def test_rejects_a_nonfinite_beta(self):
        G = random_gibbs_instance(4, 3)
        with pytest.raises(InvalidInputError):
            grid_pass(G, [0.0, math.inf])

    def test_per_point_heat_j_breaks_down_near_1e300(self):
        # the rounding of the per-point log-space terms is far above one at
        # these betas, so the double sum breaks down (it reads 4.09 and 4.15
        # here); the suite warning filter turns any numpy overflow warning
        # into a failure here
        G = random_gibbs_instance(5, 2)
        values = [j_heat_expectation(G, b) for b in np.linspace(-1e300, 1e300, 101)]
        assert np.max(np.abs(np.subtract(values, 1.0))) > 1.0

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_heat_line_bounds_p_rho_on_wide_grids(self, n):
        """The heat J value at any beta is p @ rho, a convex combination of
        rho: on grids out to 1e300 it stays within the line, which sits at
        rounding for these instances."""
        for seed in range(10):
            G = random_gibbs_instance(n, seed)
            _, heat, _ = G.certification
            assert heat.lhs <= 1e-14
            for span in (1e20, 1e100, 1e300):
                p = np.exp(gibbs_log_weights(G.system, np.linspace(-span, span, 101))[0])
                p /= p.sum(axis=1, keepdims=True)
                assert np.abs(p @ G.rho - 1.0).max() <= heat.lhs + 4 * n * UNIT_ROUNDOFF

    def test_overflowing_ratio_fails_the_heat_line_without_warnings(self):
        """The residual |T p0 - p0| is 1e-11, but p0_1 = e^-740 / Z is
        subnormal, so rho_1 = 1e-11 e^740 overflows: the ratio rule rejects
        the matrix, naming the level, before any grid line is evaluated, and
        the suite turns any warning into a failure here."""
        T = TransitionMatrix([[1.0 - 1e-11, 0.0], [1e-11, 1.0]])
        system = LevelSystem([0.0, 740.0], [1, 1])
        with pytest.raises(CertificationError, match=r"\|rho - 1\| = inf at level m=1 "):
            GibbsMatrix(T, system, 1.0)
        reports, G = certify_gibbs_matrix(T, system, 1.0)
        assert G is None
        assert [r.holds for r in reports] == [True, False, True]
        assert reports[1].lhs == math.inf

    def test_underflowing_gibbs_weight_keeps_every_line_finite(self):
        """A Gibbs weight that underflows to 0 is no error: rho and log p0
        come from log space, so the identity map keeps every line exact."""
        G = GibbsMatrix(TransitionMatrix(np.eye(2)), LevelSystem([0.0, 1e300], [1, 1]), 1.0)
        assert G.fixed_point.weights[1] == 0.0
        grid = grid_pass(G, [0.0, 1.0])
        # S(p || p0) = (log 2 + 1e300) / 2 - log 2 at beta = 0, the same after
        # T; 0 at beta = 1, where p = p0 = (1, 0)
        assert grid.kl_before[0] == pytest.approx(5e299)
        assert grid.kl_after.tolist() == grid.kl_before.tolist()
        assert grid.kl_before[1] == 0.0
        assert np.array_equal(grid.dq, [0.0, 0.0])
        assert all(r.holds for r in G.certification + tuple(inequality_suite(grid)))


def exact_j_reference(G, betas):
    """The paper's two J double sums at each of ``betas`` (the general one
    with ptilde = q = T p), and max |rho - 1| and max |column sum - 1|, all
    at 50 digits with the double entries, energies and betas taken as exact."""
    with mpmath.workdps(50):
        t = [[mpmath.mpf(float(x)) for x in row] for row in G.matrix.entries]
        e = [mpmath.mpf(float(x)) for x in G.system.energies]
        n, beta0 = len(e), mpmath.mpf(G.beta0)
        pairs = [(m, k) for m in range(n) for k in range(n) if t[m][k] > 0]
        p0 = exact_gibbs(G.system, beta0)
        q0 = [mpmath.fsum(t[m][k] * p0[k] for k in range(n)) for m in range(n)]
        rho_dev = max(abs(q0[m] / p0[m] - 1) for m in range(n))
        column_dev = max(abs(mpmath.fsum(t[m][k] for m in range(n)) - 1) for k in range(n))
        heat, general = [], []
        for beta in map(mpmath.mpf, betas):
            p = exact_gibbs(G.system, beta)
            q = [mpmath.fsum(t[m][k] * p[k] for k in range(n)) for m in range(n)]
            heat.append(mpmath.fsum(t[m][k] * p[k] * mpmath.exp(-(beta - beta0) * (e[m] - e[k]))
                                    for m, k in pairs))
            general.append(mpmath.fsum(t[m][k] * p[k] * p0[k] * q[m] / (q0[m] * p[k])
                                       for m, k in pairs))
        return (float(rho_dev), float(column_dev),
                [float(abs(j - 1)) for j in heat], [float(abs(j - 1)) for j in general])


class TestExactJReference:
    """The fixed-point and column-sum certification lines bound the J
    double sums: at 50 digits the sums stay within each line at every beta
    of the default grid's span, and the certified values are the exact
    maxima, up to 4 N roundings."""

    @pytest.mark.parametrize("build", EXACT_CASES)
    def test_double_sums_stay_within_the_certified_lines(self, build):
        G = build()
        general, heat, _ = G.certification
        betas = np.linspace(-5.0 * G.beta0, 5.0 * G.beta0, 11)
        rho_dev, column_dev, heat_devs, general_devs = exact_j_reference(G, betas)
        rounding = 4 * G.size * UNIT_ROUNDOFF
        assert abs(rho_dev - heat.lhs) <= rounding
        assert abs(column_dev - general.lhs) <= rounding
        assert max(heat_devs) <= heat.lhs + rounding
        assert max(general_devs) <= general.lhs + rounding


class TestRelativeFixedPoint:
    @given(st.one_of(random_instances(), spin1_instances(), metropolis_instances(),
                     ladder_instances(), thermal_instances()))
    @settings(max_examples=400, deadline=None)
    def test_certified_instances_keep_the_lines_the_ratio_bounds(self, instance):
        """On a certified instance's default grid (201 points over
        +/- 5 beta0, every beta0 drawn here is positive): the pass raises nothing,
        the fixed-point line holds, the absolute residual is within the tolerance
        too, and <dS> - beta0 <dQ> >= -sum_m q_m log rho_m at every point, up
        to 1e-14 and the rounding of <dQ> (eps max |E|), which beta0 scales."""
        system, raw, beta0 = instance
        _, G = certify_gibbs_matrix(raw, system, beta0)
        assume(G is not None)
        p0 = G.fixed_point.weights
        assert np.abs(raw @ p0 - p0).max() <= FIXED_POINT_TOL
        betas = np.linspace(-5.0 * beta0, 5.0 * beta0, 201)
        grid = grid_pass(G, betas)
        _, heat, _ = G.certification
        assert heat.holds
        rho = G.rho
        p = np.exp(gibbs_log_weights(system, betas)[0])
        p /= p.sum(axis=1, keepdims=True)
        q = np.clip(p @ G.matrix.entries.T, 0.0, 1.0)
        rounding = 1e-14 + 4 * np.finfo(float).eps * beta0 * np.abs(system.energies).max()
        assert np.all(grid.ds - beta0 * grid.dq >= -(q @ np.log(rho)) - rounding)


class TestCertificationSuite:
    """The certification lines every verify report opens with, from
    :func:`nlsthermo.core.certify_gibbs_matrix`."""

    LABELS = ["certification: column-sum deviation <= tol",
              "certification: fixed-point ratio max |rho - 1| <= tol",
              "certification: entries nonnegative"]

    def test_certified_instance_passes_with_the_rule_bounds(self):
        inst = random_gibbs_instance(6, 4)
        reports, G = certify_gibbs_matrix(inst.matrix.entries, inst.system, inst.beta0)
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
        reports, G = certify_gibbs_matrix(raw, LevelSystem([0.0, 1.0, 2.0], [1, 1, 1]), 1.0)
        assert [i for i, r in enumerate(reports) if not r.holds] == failing
        assert (G is None) == bool(failing)
        assert all(r.holds == (r.slack >= 0.0) for r in reports)

    def test_broken_fixed_point_fails_only_its_line(self):
        inst = random_gibbs_instance(4, 8)
        reports, G = certify_gibbs_matrix(inst.matrix.entries, inst.system, 2.0)
        assert [r.holds for r in reports] == [True, False, True]
        assert G is None

    def test_a_failing_transition_matrix_reports_the_lines_of_its_entries(self):
        inst = random_gibbs_instance(4, 8)
        typed, G = certify_gibbs_matrix(inst.matrix, inst.system, 2.0)
        bare, _ = certify_gibbs_matrix(inst.matrix.entries, inst.system, 2.0)
        assert G is None
        assert typed == bare and [r.holds for r in typed] == [True, False, True]
