"""J-equation identities and the second-law-like inequality checks."""

import math

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
    make_gibbs_state,
    mean_energy,
    propagate,
)
from nlsthermo.fluctuation import (
    BLOCK_ROWS,
    J_EQUATION_TOL,
    GridPass,
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
    jequation_suite,
    kl_monotonicity_check,
)
from nlsthermo.genrand import random_gibbs_instance, random_stochastic
from nlsthermo.spinboson import analytic_entries, spin1_gibbs_matrix, spin1_level_system


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
# exactly zero, so the p > 0 mask is hit both ways; the grid spans more than
# one block of the pass
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
    cross entropy of each KL side."""
    q0 = propagate(G.matrix, G.fixed_point).weights
    rows = []
    for beta in betas.tolist():
        p = make_gibbs_state(G.system, beta)
        q = propagate(G.matrix, p)
        dq, ds = heat_and_entropy_change(G, beta)
        positive = bool(p.weights.min() > 0.0)
        if positive:
            kl = kl_monotonicity_check(G.matrix, p, G.fixed_point)
            general = general_j_expectation(G.matrix, p, G.fixed_point, q)
            kl_scales = (-float(q.weights @ np.log(q0)),
                         -float(p.weights @ np.log(G.fixed_point.weights)))
        rows.append((
            dq, max(abs(mean_energy(G.system, q)), abs(mean_energy(G.system, p))),
            ds, max(abs(entropy(G.system, q)), abs(entropy(G.system, p))),
            j_heat_expectation(G, beta), positive,
            *((general, kl.lhs, kl.rhs, *kl_scales) if positive else (np.nan,) * 5)))
    return [np.array(column) for column in zip(*rows)]


@pytest.mark.parametrize("build", GRID_CASES)
class TestGridPass:
    def test_agrees_with_the_per_point_functions(self, build):
        G = build()
        grid = grid_pass(G, WIDE_GRID, identities=True)
        (dq, dq_scale, ds, ds_scale, j_heat, positive, j_general, kl_after, kl_before,
         after_scale, before_scale) = per_point(G, WIDE_GRID)
        assert positive.any()
        np.testing.assert_array_equal(grid.positive, positive)
        assert_close(grid.dq, dq, dq_scale)
        assert_close(grid.ds, ds, ds_scale)
        assert_close(grid.j_heat, j_heat)
        assert np.isnan(grid.j_general[~positive]).all()
        assert np.isnan(grid.kl_after[~positive]).all()
        assert np.isnan(grid.kl_before[~positive]).all()
        assert_close(grid.j_general[positive], j_general[positive])
        assert_close(grid.kl_after[positive], kl_after[positive], after_scale[positive])
        assert_close(grid.kl_before[positive], kl_before[positive], before_scale[positive])

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
        assert heat.lhs == np.abs(grid.j_heat - 1.0).max()
        assert max(abs(j_heat_expectation(G, b) - 1.0) for b in WIDE_GRID) <= J_EQUATION_TOL
        assert heat.rhs == general.rhs == J_EQUATION_TOL
        assert heat.holds and general.holds
        flow, lower, upper, entropy_flow, contraction = inequality_suite(grid)
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
        assert contraction.label.startswith("KL contraction")
        assert all(c.holds for c in (flow, lower, upper, entropy_flow, contraction))


class TestGridSuites:
    @pytest.mark.parametrize("build", [GRID_CASES[0], GRID_CASES[-1]])
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

    def test_nan_heat_value_fails_its_line(self):
        # general J values off ``positive`` are NaN by design and do not count
        betas = np.array([0.0, 1.0, 2.0])
        positive = np.array([True, False, True])
        ones, nan_in_middle = np.ones(3), np.array([1.0, np.nan, 1.0])
        grid = GridPass(1.0, betas, np.zeros(3), np.zeros(3), positive,
                        j_heat=nan_in_middle, j_general=nan_in_middle,
                        kl_after=ones, kl_before=ones)
        heat, general = jequation_suite(grid)
        assert not heat.holds
        assert general.holds and general.lhs == 0.0

    def test_per_point_heat_j_overflows_near_1e300(self):
        # rounding in the per-point log-space terms overflows exp at these
        # betas; the suite warning filter turns any numpy overflow warning
        # into a failure here
        G = random_gibbs_instance(5, 2)
        values = [j_heat_expectation(G, b) for b in np.linspace(-1e300, 1e300, 101)]
        assert np.isinf(values).any()

    def test_batched_heat_j_holds_where_the_log_space_sum_overflowed(self):
        # a grid found by scanning: at |beta| ~ 1e20 the factored log-space
        # sums this pass once used rounded to errors that overflowed exp at
        # some points of this N = 3 instance; p @ rho has no such term
        G = random_gibbs_instance(3, 4)
        grid = grid_pass(G, np.linspace(-1e20, 1e20, 101), identities=True)
        heat, _ = jequation_suite(grid)
        assert heat.holds and heat.lhs <= 1e-14

    @pytest.mark.parametrize("n", [3, 5, 8])
    @pytest.mark.parametrize("span", [1e20, 1e100, 1e300])
    def test_heat_j_stays_at_rounding_on_wide_grids(self, n, span):
        for seed in range(10):
            G = random_gibbs_instance(n, seed)
            grid = grid_pass(G, np.linspace(-span, span, 101), identities=True)
            assert np.max(np.abs(grid.j_heat - 1.0)) <= 1e-14

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

    def test_underflowing_gibbs_weight_is_an_evaluation_error(self):
        """A Gibbs weight that underflows to 0 is no error: rho and log p0
        come from log space, so the identity map keeps every line exact."""
        G = GibbsMatrix(TransitionMatrix(np.eye(2)), LevelSystem([0.0, 1e300], [1, 1]), 1.0)
        assert G.fixed_point.weights[1] == 0.0
        grid = grid_pass(G, [0.0, 1.0], identities=True)
        assert grid.j_heat.tolist() == [1.0, 1.0]
        assert grid.positive.tolist() == [True, False]
        # S(p || p0) = (log 2 + 1e300) / 2 - log 2 at beta = 0, the same after T
        assert grid.kl_before[0] == pytest.approx(5e299)
        assert grid.kl_after[0] == grid.kl_before[0]
        assert np.array_equal(grid.dq, [0.0, 0.0])
        assert all(r.holds for r in jequation_suite(grid) + inequality_suite(grid))


@st.composite
def metropolis_instances(draw):
    """(system, T, beta0) of a Metropolis chain (Metropolis et al., J. Chem.
    Phys. 21, 1953) with a uniform proposal: T[m, n] = min(1, p0_m / p0_n) / N
    off the diagonal, which holds the Gibbs state fixed by detailed balance."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    beta0 = draw(st.floats(1e-2, 30.0))
    spread = draw(st.floats(1e-2, 1e2))
    system = LevelSystem(spread * rng.uniform(size=n), rng.integers(1, 5, size=n))
    log_w = np.log(system.degeneracy_weights()) - beta0 * system.energies
    t = np.exp(np.minimum(0.0, log_w[:, None] - log_w[None, :])) / n
    np.fill_diagonal(t, 0.0)
    t[np.diag_indices(n)] = 1.0 - t.sum(axis=0)
    return system, t, beta0


def random_instances():
    return st.builds(random_gibbs_instance, st.integers(2, 8), st.integers(0, 10_000)).map(
        lambda G: (G.system, G.matrix.entries, G.beta0))


def spin1_instances():
    return st.builds(lambda beta0: (spin1_level_system(), analytic_entries(beta0), beta0),
                     st.floats(1e-3, 10.0))


class TestRelativeFixedPoint:
    @given(st.one_of(random_instances(), spin1_instances(), metropolis_instances()))
    @settings(max_examples=400, deadline=None)
    def test_certified_instances_keep_the_lines_the_ratio_bounds(self, instance):
        """On a certified instance's default grid (201 points over
        +/- 5 beta0, every beta0 drawn here is positive): the pass raises nothing,
        the heat J line holds, the absolute residual is within the tolerance
        too, and <dS> - beta0 <dQ> >= -sum_m q_m log rho_m at every point, up
        to 1e-14 and the rounding of <dQ> (eps max |E|), which beta0 scales."""
        system, raw, beta0 = instance
        _, G = certify_gibbs_matrix(raw, system, beta0)
        assume(G is not None)
        p0 = G.fixed_point.weights
        assert np.abs(raw @ p0 - p0).max() <= FIXED_POINT_TOL
        betas = np.linspace(-5.0 * beta0, 5.0 * beta0, 201)
        grid = grid_pass(G, betas, identities=True)
        heat, _ = jequation_suite(grid)
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
