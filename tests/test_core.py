"""Core types, Gibbs states, propagation, expectations, entropies, divergences."""

import functools
import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsthermo.core import (
    FIXED_POINT_TOL,
    SUM_TOL,
    EvaluationError,
    GibbsMatrix,
    InvalidInputError,
    LevelSystem,
    ProbabilityVector,
    TransitionMatrix,
    CertificationError,
    certify_gibbs_matrix,
    delta_q_table,
    delta_s_table,
    entropy,
    expectation,
    gibbs_log_weights,
    instance_from_dict,
    instance_to_dict,
    kl_divergence,
    load_instance,
    make_gibbs_state,
    mean_energy,
    propagate,
    save_instance,
    TwoPointDistribution,
    _fixed_point_ratio,
    two_point_distribution,
)
from nlsthermo.fluctuation import grid_pass
from nlsthermo.genrand import random_gibbs_instance, random_stochastic
from nlsthermo.response import cumulant_deviation
from nlsthermo.spinboson import spin1_gibbs_matrix, spin1_level_system
from strategies import EXACT_CASES


EPS = np.finfo(float).eps

#: unit roundoff of a double
UNIT_ROUNDOFF = EPS / 2


def uniform_system(n):
    return LevelSystem(np.arange(n, dtype=float), np.ones(n, dtype=np.int64))


# ---------------------------------------------------------------------------
# type validation
# ---------------------------------------------------------------------------

class TestTypeValidation:
    def test_level_system_rejects_mismatched_lengths(self):
        with pytest.raises(InvalidInputError):
            LevelSystem([0.0, 1.0], [1, 1, 1])

    def test_level_system_rejects_single_level(self):
        with pytest.raises(InvalidInputError):
            LevelSystem([0.0], [1])

    def test_level_system_rejects_nonfinite_energy(self):
        with pytest.raises(InvalidInputError):
            LevelSystem([0.0, np.inf], [1, 1])

    def test_level_system_rejects_bad_degeneracy(self):
        with pytest.raises(InvalidInputError):
            LevelSystem([0.0, 1.0], [1, 0])
        with pytest.raises(InvalidInputError):
            LevelSystem([0.0, 1.0], [1, 1.5])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("degeneracy", [1e300, 2.0 ** 53 + 2, math.inf, math.nan])
    def test_level_system_accepts_only_exact_integer_degeneracies(self, degeneracy):
        with pytest.raises(InvalidInputError, match=r"integers in \[1, 2\*\*53\]"):
            LevelSystem([0.0, 1.0], [1, degeneracy])
        assert LevelSystem([0.0, 1.0], [1, 2 ** 53]).degeneracies[1] == 2 ** 53

    def test_probability_vector_rejects_negative_and_unnormalized(self):
        with pytest.raises(InvalidInputError):
            ProbabilityVector([-0.1, 1.1])
        with pytest.raises(InvalidInputError):
            ProbabilityVector([0.5, 0.6])

    def test_transition_matrix_rejects_negative_entry(self):
        with pytest.raises(InvalidInputError):
            TransitionMatrix([[1.1, 0.0], [-0.1, 1.0]])

    def test_transition_matrix_rejects_bad_column_sum(self):
        with pytest.raises(InvalidInputError) as err:
            TransitionMatrix([[0.5, 0.5], [0.5, 0.5001]])
        assert "column 1" in str(err.value)

    def test_gibbs_matrix_rejects_non_fixing_matrix(self):
        system = uniform_system(2)
        matrix = TransitionMatrix([[0.9, 0.3], [0.1, 0.7]])
        with pytest.raises(CertificationError):
            GibbsMatrix(matrix, system, beta0=1.0)

    def test_broken_rules_raise_certification_errors(self):
        # a CertificationError is also an InvalidInputError, so callers that
        # catch the latter keep working
        assert issubclass(CertificationError, InvalidInputError)
        with pytest.raises(CertificationError, match="column 0"):
            TransitionMatrix([[1.0 + 5e-11, 0.0], [0.0, 1.0]])
        with pytest.raises(CertificationError, match="nonnegative"):
            TransitionMatrix([[1.0, -1e-11], [0.0, 1.0 + 1e-11]])

    def test_messages_print_plain_floats(self):
        with pytest.raises(InvalidInputError) as err:
            ProbabilityVector([0.5, 0.6])
        assert "np.float64" not in str(err.value)
        assert "got 1.1" in str(err.value)
        with pytest.raises(CertificationError) as err:
            TransitionMatrix([[0.5, 0.5], [0.5, 0.5001]])
        assert "np.float64" not in str(err.value)
        assert "sums to 1.0001" in str(err.value)

    @pytest.mark.parametrize("bad", [[[1.0, 0.0], [0.0]], [0, [1]], ["x", 1]],
                             ids=["ragged", "nested", "string"])
    @pytest.mark.parametrize("build, name", [
        (TransitionMatrix, "transition matrix entries"),
        (lambda bad: certify_gibbs_matrix(bad, uniform_system(2), 1.0),
         "transition matrix entries"),
        (lambda bad: LevelSystem(bad, [1, 1]), "energies"),
        (lambda bad: LevelSystem([0.0, 1.0], bad), "degeneracies"),
        (ProbabilityVector, "weights"),
        (lambda bad: TwoPointDistribution(bad, *[ProbabilityVector([0.5, 0.5])] * 2),
         "joint"),
        (lambda bad: entropy(uniform_system(2), bad), "distribution"),
        (lambda bad: kl_divergence(bad, [0.5, 0.5]), "distribution"),
        (lambda bad: gibbs_log_weights(uniform_system(2), bad), "beta"),
        (lambda bad: expectation(two_point_distribution(
            TransitionMatrix(np.eye(2)), ProbabilityVector([0.5, 0.5])), bad), "table"),
        (lambda bad: grid_pass(random_gibbs_instance(3, 0), bad), "betas"),
        (lambda bad: cumulant_deviation(spin1_gibbs_matrix(1.0), bad), "t"),
    ], ids=["transition", "certify", "energies", "degeneracies", "weights", "joint",
            "entropy", "kl", "gibbs-beta", "expectation", "grid-betas", "cumulant-t"])
    def test_ragged_or_non_numeric_input_is_an_input_error_naming_it(self, build, name,
                                                                     bad):
        # numpy's own ValueError would fall outside the package's two error bases
        with pytest.raises(InvalidInputError, match=f"^{name} must be an array of numbers: "):
            build(bad)

    def test_values_are_frozen(self):
        system = uniform_system(3)
        with pytest.raises(ValueError):
            system.energies[0] = 5.0


# ---------------------------------------------------------------------------
# Gibbs states
# ---------------------------------------------------------------------------

class TestGibbsState:
    @pytest.mark.parametrize("beta", [-3.0, 0.0, 7.0])
    def test_symmetric_degenerate_levels_give_half_half(self, beta):
        system = LevelSystem([0.0, 0.0], [1, 1])
        state = make_gibbs_state(system, beta)
        np.testing.assert_allclose(state.weights, [0.5, 0.5],
                                   rtol=0, atol=1e-15)

    def test_three_level_closed_form(self):
        # spin-1 ladder: p proportional to (e^-beta, 1, e^beta)
        beta = 1.7
        system = LevelSystem([1.0, 0.0, -1.0], [1, 1, 1])
        state = make_gibbs_state(system, beta)
        expected = np.array([math.exp(-beta), 1.0, math.exp(beta)])
        expected /= expected.sum()
        np.testing.assert_allclose(state.weights, expected,
                                   rtol=1e-14, atol=0)

    def test_beta_zero_weights_by_degeneracy(self):
        system = LevelSystem([0.0, 1.0, 2.0], [1, 2, 1])
        state = make_gibbs_state(system, 0.0)
        np.testing.assert_allclose(state.weights,
                                   [0.25, 0.5, 0.25], rtol=0, atol=1e-15)
        assert math.exp(gibbs_log_weights(system, 0.0)[1]) == pytest.approx(4.0, rel=1e-14)

    def test_nonfinite_beta_rejected(self):
        with pytest.raises(InvalidInputError):
            make_gibbs_state(uniform_system(3), math.nan)

    @pytest.mark.parametrize("beta", [300.0, -300.0])
    def test_extreme_beta_is_stable(self, beta):
        state = make_gibbs_state(uniform_system(3), beta)
        w = state.weights
        assert np.all(np.isfinite(w))
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_log_partition_function_past_double_range_without_warning(self):
        # log Z = 1000 > log(DBL_MAX): Z itself is not a double, log Z is
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = make_gibbs_state(uniform_system(3), -500.0)
            _, log_z = gibbs_log_weights(uniform_system(3), -500.0)
        assert log_z == pytest.approx(1000.0, rel=1e-15)
        assert state.weights[2] == 1.0

    @pytest.mark.parametrize("system", [LevelSystem([0.0, 1.0, 2.0], [1, 2, 1]),
                                        LevelSystem([0.0, 0.0, 3.5, -1.0], [3, 1, 1, 2]),
                                        uniform_system(12),
                                        LevelSystem(np.random.default_rng(5).uniform(-3, 3, 96),
                                                    np.random.default_rng(6).integers(1, 5, 96))])
    def test_array_of_betas_matches_stacked_scalar_calls_bit_for_bit(self, system):
        # 1001 betas, enough for a one-ulp split between two logarithms to show
        betas = np.concatenate([[-1e300, -800.0, 0.0, 1e-9, 800.0, 1e300],
                                np.linspace(-50.0, 50.0, 1001)])
        log_p, log_z = gibbs_log_weights(system, betas)
        rows = [gibbs_log_weights(system, float(beta)) for beta in betas]
        assert log_p.shape == (betas.size, system.size)
        assert all(isinstance(z, float) for _, z in rows)
        np.testing.assert_array_equal(log_p, np.stack([lp for lp, _ in rows]))
        np.testing.assert_array_equal(log_z, [z for _, z in rows])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("beta, weights", [(1e308, [0.0, 0.0, 1.0]),
                                               (-1e308, [1.0, 0.0, 0.0])])
    def test_exponents_past_the_double_range_are_zero_weights(self, beta, weights):
        # spin-1 levels 1, 0, -1: -beta E_n is -1e308, 0, 1e308 and the
        # shifted exponent -2e308 leaves the double range; exp gives 0
        assert make_gibbs_state(spin1_level_system(), beta).weights.tolist() == weights

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_row_whose_largest_exponent_overflows_names_its_beta(self):
        system = LevelSystem([0.0, 1e300], [1, 1])
        log_p, _ = gibbs_log_weights(system, [0.0, 1e10])
        assert log_p[1].tolist() == [0.0, -math.inf]
        with pytest.raises(EvaluationError, match=r"double range at beta=-10000000000\.0$"):
            gibbs_log_weights(system, [0.0, -1e10, -2e10])
        with pytest.raises(EvaluationError, match=r"at beta=-1e\+300$"):
            make_gibbs_state(LevelSystem([1e300, 2e300], [1, 1]), -1e300)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_array_with_a_nonfinite_beta_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="beta must be finite"):
            gibbs_log_weights(uniform_system(3), np.array([0.0, bad, 1.0]))

    def test_identity_entropy_energy_logz_random_draws(self):
        # S(p) = beta E(p) + log Z over 1000 seeded draws
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(2, 13))
            system = LevelSystem(rng.uniform(-3, 3, n), rng.integers(1, 4, n))
            beta = float(rng.uniform(-10, 10))
            p = make_gibbs_state(system, beta)
            assert abs(p.weights.sum() - 1.0) <= 1e-12
            lhs = entropy(system, p)
            rhs = beta * mean_energy(system, p) + gibbs_log_weights(system, beta)[1]
            assert abs(lhs - rhs) <= 1e-12


def log_weight_errors(system, beta):
    """|log p_n - exact| / u of :func:`gibbs_log_weights` against 40 digits,
    |score_n - score_s| of each level, and the top level s."""
    log_p, _ = gibbs_log_weights(system, beta)
    with mpmath.workdps(40):
        scores = [mpmath.log(int(d)) - mpmath.mpf(beta) * mpmath.mpf(float(e))
                  for e, d in zip(system.energies, system.degeneracies)]
        top = max(range(system.size), key=scores.__getitem__)
        log_z = scores[top] + mpmath.log(mpmath.fsum(mpmath.exp(x - scores[top])
                                                     for x in scores))
        errors = [float(abs(mpmath.mpf(float(x)) - (y - log_z))) / UNIT_ROUNDOFF
                  for x, y in zip(log_p, scores)]
        return errors, [float(abs(x - scores[top])) for x in scores], top


#: c in the c u (1 + |score_n - score_s|) bound on each log weight; the exact
#: cases reach 1.7 (6.5 while log Z was subtracted from every score)
LOG_WEIGHT_ROUNDING = 3


class TestGibbsLogWeightAccuracy:
    """log p_s of the top level s is -log1p(rest), with rest summed without
    its own 1, so it stays within 4 u of its exact value, and every other
    level within c u (1 + |score_n - score_s|), the rounding of its score."""

    @pytest.mark.parametrize("beta", [-5.0, 3.0])
    def test_dominant_weight_of_a_metropolis_draw_to_four_ulps(self, beta):
        # log p_0 at beta = -5 is -7e-13; subtracting a rounded log Z from
        # its score left it 5.9 u off
        system = LevelSystem([10.19, 4.32, 0.66, 0.26], [1, 4, 3, 4])
        errors, _, top = log_weight_errors(system, beta)
        assert errors[top] <= 4.0

    @pytest.mark.parametrize("build", EXACT_CASES)
    def test_every_level_lies_within_the_rounding_of_its_score(self, build):
        G = build()
        for beta in (-G.beta0, 0.0, G.beta0 / 2, 2 * G.beta0):
            errors, gaps, top = log_weight_errors(G.system, beta)
            assert errors[top] <= 4.0, beta
            for error, gap in zip(errors, gaps):
                assert error <= LOG_WEIGHT_ROUNDING * (1.0 + gap), beta


# ---------------------------------------------------------------------------
# propagation and the two-point distribution
# ---------------------------------------------------------------------------

class TestPropagate:
    def test_identity_preserves(self):
        p = ProbabilityVector([0.2, 0.3, 0.5])
        T = TransitionMatrix(np.eye(3))
        np.testing.assert_array_equal(propagate(T, p).weights, p.weights)

    def test_rank_one_projects(self):
        v = np.array([0.1, 0.6, 0.3])
        T = TransitionMatrix(np.tile(v[:, None], (1, 3)))
        for p in ([1.0, 0.0, 0.0], [0.2, 0.3, 0.5]):
            q = propagate(T, ProbabilityVector(p))
            np.testing.assert_allclose(q.weights, v, rtol=0, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            propagate(TransitionMatrix(np.eye(3)), ProbabilityVector([0.5, 0.5]))

    @given(st.integers(2, 12), st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_propagate_preserves_simplex(self, n, seed_t, seed_p):
        T = random_stochastic(n, seed_t)
        w = np.random.default_rng(seed_p).uniform(size=n)
        p = ProbabilityVector(w / w.sum())
        q = propagate(T, p)
        assert np.all(q.weights >= 0.0)
        assert abs(q.weights.sum() - 1.0) <= 1e-12

    def test_two_point_marginals(self):
        T = random_stochastic(5, 11)
        w = np.random.default_rng(1).uniform(size=5)
        p = ProbabilityVector(w / w.sum())
        dist = two_point_distribution(T, p)
        np.testing.assert_allclose(dist.joint.sum(axis=0), p.weights,
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(dist.joint.sum(axis=1), dist.final.weights,
                                   rtol=0, atol=1e-15)
        assert abs(dist.joint.sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------

class TestExpectation:
    def test_constant_rv_normalizes(self):
        T = random_stochastic(4, 3)
        p = make_gibbs_state(uniform_system(4), 0.7)
        dist = two_point_distribution(T, p)
        assert expectation(dist, np.ones((4, 4))) == pytest.approx(1.0, abs=1e-12)

    def test_heat_vanishes_for_identity(self):
        system = uniform_system(3)
        dist = two_point_distribution(TransitionMatrix(np.eye(3)),
                                      make_gibbs_state(system, 0.4))
        assert expectation(dist, delta_q_table(system)) == 0.0

    def test_heat_vanishes_at_bath_temperature(self):
        G = random_gibbs_instance(5, 8)
        dist = two_point_distribution(G.matrix, G.fixed_point)
        assert abs(expectation(dist, delta_q_table(G.system))) <= 1e-12

    def test_table_nonfinite_values_off_support_are_skipped(self):
        system = uniform_system(2)
        dist = two_point_distribution(TransitionMatrix(np.eye(2)),
                                      make_gibbs_state(system, 0.0))
        values = np.array([[1.0, np.inf], [np.inf, 1.0]])
        assert expectation(dist, values) == 1.0

    def test_nonfinite_rv_on_support_is_reported(self):
        T = random_stochastic(3, 1)
        p = make_gibbs_state(uniform_system(3), 0.0)
        dist = two_point_distribution(T, p)
        values = np.zeros((3, 3))
        values[1, 2] = math.inf
        with pytest.raises(EvaluationError, match=r"\(m=1, n=2\)"):
            expectation(dist, values)

    def test_table_shape_must_match_the_joint(self):
        dist = two_point_distribution(random_stochastic(3, 1),
                                      ProbabilityVector([0.2, 0.3, 0.5]))
        with pytest.raises(InvalidInputError, match="shape"):
            expectation(dist, np.ones((2, 2)))


class TestEnergyMoments:
    def test_symmetric_spectrum(self):
        system = LevelSystem([1.0, 0.0, -1.0], [1, 1, 1])
        p = ProbabilityVector([1 / 3, 1 / 3, 1 / 3])
        assert mean_energy(system, p) == pytest.approx(0.0, abs=1e-15)

    def test_point_mass(self):
        system = LevelSystem([0.3, -1.2, 2.0], [1, 1, 1])
        p = ProbabilityVector([0.0, 1.0, 0.0])
        assert mean_energy(system, p) == -1.2

    def test_against_brute_force_sum(self):
        rng = np.random.default_rng(7)
        energies = rng.normal(size=9)
        system = LevelSystem(energies, np.ones(9, dtype=np.int64))
        w = rng.uniform(size=9)
        w /= w.sum()
        p = ProbabilityVector(w)
        oracle = math.fsum(float(w[i]) * float(energies[i]) for i in range(9))
        assert mean_energy(system, p) == pytest.approx(oracle, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            mean_energy(uniform_system(3), ProbabilityVector([0.5, 0.5]))


# ---------------------------------------------------------------------------
# entropy and KL divergence
# ---------------------------------------------------------------------------

class TestEntropy:
    def test_uniform_two_levels(self):
        assert entropy(uniform_system(2), ProbabilityVector([0.5, 0.5])) == \
            pytest.approx(math.log(2), rel=1e-15)

    def test_point_mass_is_zero(self):
        assert entropy(uniform_system(3), ProbabilityVector([0.0, 1.0, 0.0])) == 0.0

    def test_zero_weight_is_skipped(self):
        assert entropy(uniform_system(3), ProbabilityVector([0.5, 0.5, 0.0])) == \
            pytest.approx(math.log(2), rel=1e-15)

    def test_degeneracies_enter_the_reference_measure(self):
        system = LevelSystem([0.0, 1.0, 2.0], [1, 2, 1])
        state = make_gibbs_state(system, 0.0)
        # at beta = 0 the entropy equals log Z = log 4
        assert entropy(system, state) == \
            pytest.approx(math.log(4), rel=1e-14)


class TestKlDivergence:
    def test_identical_distributions(self):
        p = ProbabilityVector([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == 0.0

    def test_point_mass_against_uniform(self):
        assert kl_divergence(ProbabilityVector([1.0, 0.0]),
                             ProbabilityVector([0.5, 0.5])) == \
            pytest.approx(math.log(2), rel=1e-15)

    def test_missing_support_gives_inf(self):
        assert kl_divergence(ProbabilityVector([0.5, 0.5]),
                             ProbabilityVector([1.0, 0.0])) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            kl_divergence(ProbabilityVector([0.5, 0.5]),
                          ProbabilityVector([0.2, 0.3, 0.5]))

    @given(st.integers(2, 10), st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_nonnegative_and_zero_iff_equal(self, n, seed):
        rng = np.random.default_rng(seed)
        q = rng.uniform(size=n)
        q /= q.sum()
        p = rng.uniform(size=n)
        p /= p.sum()
        value = kl_divergence(q, p)
        assert value >= -1e-14
        if value < 1e-14:
            # Pinsker: KL >= ||q - p||_1^2 / 2
            assert np.abs(q - p).max() <= 1e-6

    def test_against_brute_force_sum(self):
        rng = np.random.default_rng(42)
        q = rng.uniform(size=7)
        q /= q.sum()
        p = rng.uniform(size=7)
        p /= p.sum()
        oracle = math.fsum(float(q[i]) * math.log(float(q[i]) / float(p[i]))
                           for i in range(7))
        assert kl_divergence(q, p) == pytest.approx(oracle, abs=1e-15)


# ---------------------------------------------------------------------------
# heat and entropy-increase random variables
# ---------------------------------------------------------------------------

class TestDeltaRandomVariables:
    def test_entropy_increase_vanishes_for_identity(self):
        system = uniform_system(3)
        p = make_gibbs_state(system, 0.8)
        dist = two_point_distribution(TransitionMatrix(np.eye(3)), p)
        ds = delta_s_table(system, p, dist.final)
        assert abs(expectation(dist, ds)) <= 1e-14

    def test_entropy_increase_vanishes_at_bath_temperature(self):
        G = random_gibbs_instance(4, 77)
        dist = two_point_distribution(G.matrix, G.fixed_point)
        ds = delta_s_table(G.system, G.fixed_point, dist.final)
        assert abs(expectation(dist, ds)) <= 1e-12

    def test_mean_entropy_increase_matches_marginal_form(self):
        # expectation over the joint vs S(q) - S(p): two computation paths
        for seed in (1, 2, 3):
            inst = random_gibbs_instance(6, seed)
            system = inst.system
            p = make_gibbs_state(system, 2.5)
            dist = two_point_distribution(inst.matrix, p)
            via_joint = expectation(dist, delta_s_table(system, p, dist.final))
            via_margins = entropy(system, dist.final) - entropy(system, p)
            assert via_joint == pytest.approx(via_margins, abs=1e-12)

    def test_mean_heat_matches_marginal_form(self):
        inst = random_gibbs_instance(5, 4)
        p = make_gibbs_state(inst.system, -1.5)
        dist = two_point_distribution(inst.matrix, p)
        via_joint = expectation(dist, delta_q_table(inst.system))
        via_margins = mean_energy(inst.system, dist.final) - mean_energy(inst.system, p)
        assert via_joint == pytest.approx(via_margins, abs=1e-13)

    def test_point_masses_give_a_table_without_warnings(self):
        # -inf - (-inf) at the off-support outcome (m=1, n=1) used to warn
        table = delta_s_table(LevelSystem([0, 1], [1, 1]), [1, 0], [1, 0])
        assert table[0, 0] == 0.0
        assert not np.isfinite(table[:, 1]).any() and table[1, 0] == math.inf
        dist = two_point_distribution(TransitionMatrix(np.eye(2)), ProbabilityVector([1, 0]))
        assert expectation(dist, table) == 0.0

    def test_zero_weight_on_support_is_reported(self):
        # table built from a mismatched initial distribution hits a zero weight
        system = uniform_system(3)
        p = ProbabilityVector([0.5, 0.25, 0.25])
        T = TransitionMatrix(np.full((3, 3), 1 / 3))
        dist = two_point_distribution(T, p)
        broken = ProbabilityVector([0.0, 0.5, 0.5])
        ds = delta_s_table(system, broken, dist.final)
        with pytest.raises(EvaluationError, match="n=0"):
            expectation(dist, ds)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

class TestCertification:
    # report lines: 0 column-sum deviation, 1 fixed-point ratio, 2 sign

    def test_identity_passes_with_zero_residual(self):
        system = uniform_system(4)
        reports, G = certify_gibbs_matrix(np.eye(4), system, beta0=0.9)
        assert G is not None
        assert reports[1].lhs == 0.0
        assert reports[0].lhs == 0.0

    def test_perturbed_column_fails_with_reported_deviation(self):
        inst = random_gibbs_instance(4, 10)
        raw = inst.matrix.entries.copy()
        raw[:, 1] *= 1.001
        reports, G = certify_gibbs_matrix(raw, inst.system, beta0=1.0)
        assert G is None
        assert not reports[0].holds
        assert reports[0].lhs == pytest.approx(1e-3, rel=1e-2)

    @pytest.mark.parametrize("build", [lambda: random_gibbs_instance(3, 0),
                                       lambda: random_gibbs_instance(8, 0),
                                       lambda: random_gibbs_instance(32, 1),
                                       lambda: spin1_gibbs_matrix(0.01),
                                       lambda: spin1_gibbs_matrix(1.0)])
    def test_fixed_point_table_is_read_only_and_bit_identical(self, build):
        G = build()
        log_p0, _ = gibbs_log_weights(G.system, G.beta0)
        assert G.log_p0.tolist() == log_p0.tolist()
        assert G.rho.tolist() == _fixed_point_ratio(G.matrix.entries, log_p0, G.beta0).tolist()
        assert G.fixed_point.weights.tolist() == \
            make_gibbs_state(G.system, G.beta0).weights.tolist()
        for table in (G.log_p0, G.rho):
            with pytest.raises(ValueError):
                table[0] = 0.0
        with pytest.raises(AttributeError):
            G.rho = np.ones(G.size)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_minus_inf_log_weight_raises_naming_the_level(self):
        """log p0_1 = -1e310 at beta0 = 1e10: rho_1 would be -inf - -inf = NaN."""
        system = LevelSystem([0.0, 1e300], [1, 1])
        message = (r"^the Gibbs log weight of level m=1 leaves the double range "
                   r"at beta0=10000000000\.0$")
        with pytest.raises(EvaluationError, match=message):
            certify_gibbs_matrix(np.eye(2), system, 1e10)
        with pytest.raises(EvaluationError, match=message):
            GibbsMatrix(TransitionMatrix(np.eye(2)), system, 1e10)

    @pytest.mark.parametrize("raw, line", [
        ([[1.001, 0.0], [0.0, 1.0]], 0),
        ([[0.5, 0.5], [0.5, 0.5]], 1),
        ([[1.0 + 1e-11, 0.0], [-1e-11, 1.0]], 2),
    ])
    def test_each_rule_error_opens_with_its_report_label(self, raw, line):
        system = LevelSystem([0.0, 1.0], [1, 1])
        reports, _ = certify_gibbs_matrix(raw, system, 1.0)
        assert [r.holds for r in reports].index(False) == line
        with pytest.raises(CertificationError) as err:
            GibbsMatrix(TransitionMatrix(raw), system, 1.0)
        assert str(err.value).startswith(f"{reports[line].label} fails: ")

    def test_accepts_transition_matrix_objects(self):
        inst = random_gibbs_instance(3, 5)
        reports, G = certify_gibbs_matrix(inst.matrix, inst.system, beta0=1.0)
        assert G is not None
        assert reports[1].lhs <= 1e-12
        np.testing.assert_array_equal(G.matrix.entries, inst.matrix.entries)

    def test_certification_lines_ride_on_the_matrix(self):
        """A certified matrix keeps its three lines, read-only, and
        certify_gibbs_matrix hands back exactly those."""
        G = random_gibbs_instance(8, 0)
        reports, certified = certify_gibbs_matrix(G.matrix.entries, G.system, G.beta0)
        assert isinstance(G.certification, tuple)
        assert list(certified.certification) == reports == list(G.certification)
        assert all(r.holds for r in G.certification)
        with pytest.raises(AttributeError):
            G.certification = ()

    @pytest.mark.parametrize("build", [lambda: random_gibbs_instance(8, 0),
                                       lambda: spin1_gibbs_matrix(1.0)],
                             ids=["random-8-0", "spin1-1"])
    def test_the_certified_fixed_point_is_not_validated_again(self, build, monkeypatch):
        """Constructing a Gibbs matrix validates no ProbabilityVector: its
        fixed point is exp(log_p0) normalized, bit for bit, and read-only."""
        G = build()
        validated = []
        original = ProbabilityVector.__post_init__
        monkeypatch.setattr(ProbabilityVector, "__post_init__",
                            lambda self: validated.append(1) or original(self))
        G = GibbsMatrix(G.matrix, G.system, G.beta0)
        assert validated == []
        w = np.exp(G.log_p0)
        assert G.fixed_point.weights.tobytes() == (w / w.sum()).tobytes()
        with pytest.raises(ValueError):
            G.fixed_point.weights[0] = 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_negative_entry_gives_the_finite_fixed_point_line(self):
        """The negative entry adds exactly 0 to rho: a finite line, its value
        pinned bit for bit, and no warning."""
        raw = [[1.0 + 1e-11, 0.0], [-1e-11, 1.0]]
        reports, G = certify_gibbs_matrix(raw, LevelSystem([0.0, 1.0], [1, 1]), 1.0)
        assert G is None
        assert reports[1].lhs == float.fromhex("0x1.5fd8p-37")
        assert reports[1].holds and not reports[2].holds


def gathered_terms(t, log_p0):
    """The terms of rho over t > 0 only, gathered by index in row order."""
    rows, cols = np.nonzero(t > 0.0)
    with np.errstate(over="ignore"):
        return rows, np.exp(np.log(t[rows, cols]) + log_p0[cols] - log_p0[rows])


def gathered_fixed_point_ratio(t, log_p0):
    """The sparse reference form of rho: the gathered terms summed per row in
    index order."""
    rows, terms = gathered_terms(t, log_p0)
    return np.bincount(rows, weights=terms, minlength=t.shape[0])


def exact_fixed_point_ratio(t, log_p0):
    """The gathered terms of each row summed exactly (math.fsum)."""
    rows, terms = gathered_terms(t, log_p0)
    bounds = np.searchsorted(rows, np.arange(t.shape[0] + 1))
    return np.array([math.fsum(terms[a:b]) for a, b in zip(bounds[:-1], bounds[1:])])


def bordered_instance(n, seed):
    """(t, system): columns of 1 - uniform entries, normalized, and the
    stationary state of one bordered solve as the Gibbs state at beta0 = 1."""
    t = 1.0 - np.random.default_rng(seed).uniform(size=(n, n))
    t /= t.sum(axis=0)
    bordered = t - np.eye(n)
    bordered[-1, :] = 1.0
    p = np.linalg.solve(bordered, np.eye(n)[-1])
    return t, LevelSystem(-np.log(p / p.sum()), np.ones(n, dtype=np.int64))


@functools.cache
def fixed_point_cases():
    """(name, t, system, beta0): random instances, spin-1, detailed-balance
    matrices with exact zeros, and one N = 1000 matrix."""
    cases = []
    for n in (3, 8, 32, 96):
        for seed in range(4):
            G = random_gibbs_instance(n, seed)
            cases.append((f"random-{n}-{seed}", G.matrix.entries, G.system, G.beta0))
    for beta0 in np.geomspace(1e-6, 10.0, 20):
        G = spin1_gibbs_matrix(float(beta0))
        cases.append((f"spin1-{beta0:.3g}", G.matrix.entries, G.system, G.beta0))
    rng = np.random.default_rng(5)
    for n in (2, 3, 5, 8, 13):
        system = LevelSystem(rng.uniform(-2.0, 2.0, size=n), rng.integers(1, 3, size=n))
        beta0 = float(rng.uniform(0.2, 2.0))
        cases.append((f"zeros-{n}", detailed_balance_matrix(system, beta0, rng)[0],
                      system, beta0))
    cases.append(("bordered-1000", *bordered_instance(1000, 0), 1.0))
    assert sum(np.count_nonzero(t == 0.0) > 0 for _, t, _, _ in cases) >= 5
    return cases


class TestDenseFixedPointRatio:
    """The dense log-space rho against the gathered form it replaced and
    against the exact sum of the same terms, within 4 eps max rho."""

    def test_agrees_with_the_gathered_form(self):
        # at N = 1000 the gathered form's index-order sum is itself about
        # 10 eps off the exact sum, so that case is held to the exact sum only
        for name, t, system, beta0 in fixed_point_cases():
            if t.shape[0] > 96:
                continue
            log_p0, _ = gibbs_log_weights(system, beta0)
            dense = _fixed_point_ratio(t, log_p0, beta0)
            gathered = gathered_fixed_point_ratio(t, log_p0)
            assert np.abs(dense - gathered).max() <= 4 * EPS * gathered.max(), name

    def test_agrees_with_the_exact_sum(self):
        for name, t, system, beta0 in fixed_point_cases():
            log_p0, _ = gibbs_log_weights(system, beta0)
            dense = _fixed_point_ratio(t, log_p0, beta0)
            exact = exact_fixed_point_ratio(t, log_p0)
            assert np.abs(dense - exact).max() <= 4 * EPS * exact.max(), name


def detailed_balance_matrix(system, beta0, rng):
    """A Gibbs matrix with exact zeros: T[m, n] = c K[m, n] p0[m] off the
    diagonal for a symmetric 0/1-masked K, diagonal filling each column."""
    p0 = make_gibbs_state(system, beta0).weights
    n = system.size
    k = np.triu(rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.6), 1)
    t = 0.9 * (k + k.T) * p0[:, None]
    t[np.diag_indices(n)] = 1.0 - t.sum(axis=0)
    return t, p0


def pushed_across(n, seed, seeded_instance, rule, scale, factor):
    """(raw, system, beta0): a Gibbs matrix with one rule's value moved by
    about ``factor * scale``, across its bound or not."""
    rng = np.random.default_rng(seed)
    if seeded_instance and rule != "sign":  # its entries are all positive
        inst = random_gibbs_instance(n, seed)
        system, beta0, raw = inst.system, inst.beta0, inst.matrix.entries.copy()
        p0 = make_gibbs_state(system, beta0).weights
    else:
        system = LevelSystem(rng.uniform(-2.0, 2.0, size=n), rng.integers(1, 3, size=n))
        beta0 = float(rng.uniform(0.2, 2.0))
        raw, p0 = detailed_balance_matrix(system, beta0, rng)
    col = int(rng.integers(n))
    if rule == "column":
        # one entry, so one column sum, moves by about factor * scale
        raw[int(rng.integers(n)), col] += factor * scale
    elif rule == "sign":
        # drop one pair of flows (detailed balance still holds), then let
        # one of them dip below zero with the diagonal keeping the column
        # sum; the fixed point moves far less than its bound
        row = (col + 1) % n
        raw[col, col] += raw[row, col]
        raw[row, row] += raw[col, row]
        raw[row, col] = raw[col, row] = 0.0
        raw[row, col] = -factor * scale
        raw[col, col] += factor * scale
    else:
        # mass moves within a column: rho_col drops by the shift and
        # rho_next rises by shift * p0_col / p0_next, so max |rho - 1| moves
        # by about factor * scale
        nxt = (col + 1) % n
        shift = min(factor * scale / max(1.0, p0[col] / p0[nxt]), raw[col, col])
        raw[col, col] -= shift
        raw[nxt, col] += shift
    return raw, system, beta0


def constructor_verdicts(raw, system, beta0):
    """Each rule's verdict as the constructors reach it, in report-line order
    (column sums, fixed point, sign); ``None`` for a rule left unchecked
    because ``TransitionMatrix`` raised first (it checks the sign first)."""
    try:
        T = TransitionMatrix(raw)
    except CertificationError as exc:
        return [None, None, False] if "nonnegative" in str(exc) else [False, None, True]
    try:
        GibbsMatrix(T, system, beta0)
    except CertificationError:
        return [True, False, True]
    return [True, True, True]


PUSHED = (st.integers(2, 8), st.integers(0, 10_000), st.booleans(),
          st.sampled_from(["column", "sign", "fixed_point"]),
          st.sampled_from([SUM_TOL, FIXED_POINT_TOL]),
          st.one_of(st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 2.0]),
                    st.floats(0.0, 3.0)))


class TestCertifiedIffConstructs:
    """``certify_gibbs_matrix(raw, ...)`` returns a Gibbs matrix exactly when
    ``GibbsMatrix(TransitionMatrix(raw), ...)`` constructs, and each report
    line agrees with the constructors' verdict on its rule, for matrices
    pushed across each rule's bound."""

    @given(*PUSHED)
    @settings(max_examples=300, deadline=None)
    def test_certified_iff_constructs(self, n, seed, seeded_instance, rule, scale, factor):
        raw, system, beta0 = pushed_across(n, seed, seeded_instance, rule, scale, factor)
        _, G = certify_gibbs_matrix(raw, system, beta0)
        try:
            GibbsMatrix(TransitionMatrix(raw), system, beta0)
            constructs = True
        except CertificationError:
            constructs = False
        assert (G is not None) is constructs

    @given(*PUSHED)
    @settings(max_examples=300, deadline=None)
    def test_each_line_is_the_constructors_verdict(self, n, seed, seeded_instance, rule,
                                                   scale, factor):
        raw, system, beta0 = pushed_across(n, seed, seeded_instance, rule, scale, factor)
        reports, _ = certify_gibbs_matrix(raw, system, beta0)
        verdicts = constructor_verdicts(raw, system, beta0)
        assert [r.label for r in reports] == [
            "certification: column-sum deviation <= tol",
            "certification: fixed-point ratio max |rho - 1| <= tol",
            "certification: entries nonnegative"]
        assert all(r.slack == r.rhs - r.lhs for r in reports)
        assert all(v is None or v == r.holds for v, r in zip(verdicts, reports))


# ---------------------------------------------------------------------------
# instance JSON schema
# ---------------------------------------------------------------------------

class TestInstanceJson:
    def test_round_trip(self, tmp_path):
        inst = random_gibbs_instance(4, 9)
        path = tmp_path / "inst.json"
        save_instance(path, inst.system, inst.matrix, inst.beta0)
        system, raw, beta0 = load_instance(path)
        np.testing.assert_array_equal(system.energies, inst.system.energies)
        np.testing.assert_array_equal(raw, inst.matrix.entries)
        assert beta0 == inst.beta0

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"energies": [0, 1], ???')
        with pytest.raises(InvalidInputError, match="line"):
            load_instance(path)

    def test_missing_field_is_named(self):
        with pytest.raises(InvalidInputError, match="'transition'"):
            instance_from_dict({"energies": [0, 1], "degeneracies": [1, 1],
                                "beta0": 1.0})

    def test_wrong_shape_is_reported(self):
        obj = {"energies": [0.0, 1.0], "degeneracies": [1, 1],
               "transition": [[1.0, 0.0]], "beta0": 1.0}
        with pytest.raises(InvalidInputError, match="transition"):
            instance_from_dict(obj)

    def test_non_numeric_beta0_is_reported(self):
        obj = {"energies": [0.0, 1.0], "degeneracies": [1, 1],
               "transition": [[1.0, 0.0], [0.0, 1.0]], "beta0": "hot"}
        with pytest.raises(InvalidInputError, match="beta0"):
            instance_from_dict(obj)

    def test_serialized_floats_round_trip_exactly(self, tmp_path):
        inst = random_gibbs_instance(5, 123)
        text = json.dumps(instance_to_dict(inst.system, inst.matrix, inst.beta0))
        raw = np.asarray(json.loads(text)["transition"], dtype=float)
        np.testing.assert_array_equal(raw, inst.matrix.entries)
