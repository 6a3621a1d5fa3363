"""Core types, Gibbs states, propagation, expectations, entropies, divergences."""

import json
import math
import warnings

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
    instance_from_dict,
    instance_to_dict,
    kl_divergence,
    load_instance,
    make_gibbs_state,
    mean_energy,
    propagate,
    save_instance,
    two_point_distribution,
)
from nlsthermo.genrand import random_gibbs_instance, random_stochastic


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
        np.testing.assert_allclose(state.probabilities.weights, [0.5, 0.5],
                                   rtol=0, atol=1e-15)

    def test_three_level_closed_form(self):
        # spin-1 ladder: p proportional to (e^-beta, 1, e^beta)
        beta = 1.7
        system = LevelSystem([1.0, 0.0, -1.0], [1, 1, 1])
        state = make_gibbs_state(system, beta)
        expected = np.array([math.exp(-beta), 1.0, math.exp(beta)])
        expected /= expected.sum()
        np.testing.assert_allclose(state.probabilities.weights, expected,
                                   rtol=1e-14, atol=0)

    def test_beta_zero_weights_by_degeneracy(self):
        system = LevelSystem([0.0, 1.0, 2.0], [1, 2, 1])
        state = make_gibbs_state(system, 0.0)
        np.testing.assert_allclose(state.probabilities.weights,
                                   [0.25, 0.5, 0.25], rtol=0, atol=1e-15)
        assert state.partition_function == pytest.approx(4.0, rel=1e-14)

    def test_nonfinite_beta_rejected(self):
        with pytest.raises(InvalidInputError):
            make_gibbs_state(uniform_system(3), math.nan)

    @pytest.mark.parametrize("beta", [300.0, -300.0])
    def test_extreme_beta_is_stable(self, beta):
        state = make_gibbs_state(uniform_system(3), beta)
        w = state.probabilities.weights
        assert np.all(np.isfinite(w))
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_partition_function_past_double_range_is_inf_without_warning(self):
        # log Z = 1000 > log(DBL_MAX): Z itself is reported as inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = make_gibbs_state(uniform_system(3), -500.0)
        assert state.partition_function == math.inf
        assert state.log_partition_function == pytest.approx(1000.0, rel=1e-15)
        assert state.probabilities.weights[2] == 1.0

    def test_identity_entropy_energy_logz_random_draws(self):
        # S(p) = beta E(p) + log Z over 1000 seeded draws
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(2, 13))
            system = LevelSystem(rng.uniform(-3, 3, n), rng.integers(1, 4, n))
            beta = float(rng.uniform(-10, 10))
            state = make_gibbs_state(system, beta)
            p = state.probabilities
            assert abs(p.weights.sum() - 1.0) <= 1e-12
            lhs = entropy(system, p)
            rhs = beta * mean_energy(system, p) + state.log_partition_function
            assert abs(lhs - rhs) <= 1e-12


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
        p = make_gibbs_state(uniform_system(4), 0.7).probabilities
        dist = two_point_distribution(T, p)
        assert expectation(dist, np.ones((4, 4))) == pytest.approx(1.0, abs=1e-12)

    def test_heat_vanishes_for_identity(self):
        system = uniform_system(3)
        dist = two_point_distribution(TransitionMatrix(np.eye(3)),
                                      make_gibbs_state(system, 0.4).probabilities)
        assert expectation(dist, delta_q_table(system)) == 0.0

    def test_heat_vanishes_at_bath_temperature(self):
        G = random_gibbs_instance(5, 8)
        dist = two_point_distribution(G.matrix, G.fixed_point)
        assert abs(expectation(dist, delta_q_table(G.system))) <= 1e-12

    def test_table_nonfinite_values_off_support_are_skipped(self):
        system = uniform_system(2)
        dist = two_point_distribution(TransitionMatrix(np.eye(2)),
                                      make_gibbs_state(system, 0.0).probabilities)
        values = np.array([[1.0, np.inf], [np.inf, 1.0]])
        assert expectation(dist, values) == 1.0

    def test_nonfinite_rv_on_support_is_reported(self):
        T = random_stochastic(3, 1)
        p = make_gibbs_state(uniform_system(3), 0.0).probabilities
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
        assert entropy(system, state.probabilities) == \
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
        p = make_gibbs_state(system, 0.8).probabilities
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
            p = make_gibbs_state(system, 2.5).probabilities
            dist = two_point_distribution(inst.matrix, p)
            via_joint = expectation(dist, delta_s_table(system, p, dist.final))
            via_margins = entropy(system, dist.final) - entropy(system, p)
            assert via_joint == pytest.approx(via_margins, abs=1e-12)

    def test_mean_heat_matches_marginal_form(self):
        inst = random_gibbs_instance(5, 4)
        p = make_gibbs_state(inst.system, -1.5).probabilities
        dist = two_point_distribution(inst.matrix, p)
        via_joint = expectation(dist, delta_q_table(inst.system))
        via_margins = mean_energy(inst.system, dist.final) - mean_energy(inst.system, p)
        assert via_joint == pytest.approx(via_margins, abs=1e-13)

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
    def test_identity_passes_with_zero_residual(self):
        system = uniform_system(4)
        cert = certify_gibbs_matrix(np.eye(4), system, beta0=0.9)
        assert cert.passed
        assert cert.fixed_point_residual == 0.0
        assert cert.column_sum_deviation == 0.0

    def test_perturbed_column_fails_with_reported_deviation(self):
        inst = random_gibbs_instance(4, 10)
        raw = inst.matrix.entries.copy()
        raw[:, 1] *= 1.001
        cert = certify_gibbs_matrix(raw, inst.system, beta0=1.0)
        assert not cert.passed
        assert cert.column_sum_deviation == pytest.approx(1e-3, rel=1e-2)

    def test_accepts_transition_matrix_objects(self):
        inst = random_gibbs_instance(3, 5)
        cert = certify_gibbs_matrix(inst.matrix, inst.system, beta0=1.0)
        assert cert.passed
        assert cert.fixed_point_residual <= 1e-12


def detailed_balance_matrix(system, beta0, rng):
    """A Gibbs matrix with exact zeros: T[m, n] = c K[m, n] p0[m] off the
    diagonal for a symmetric 0/1-masked K, diagonal filling each column."""
    p0 = make_gibbs_state(system, beta0).probabilities.weights
    n = system.size
    k = np.triu(rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.6), 1)
    t = 0.9 * (k + k.T) * p0[:, None]
    t[np.diag_indices(n)] = 1.0 - t.sum(axis=0)
    return t, p0


class TestCertifiedIffConstructs:
    """``certify_gibbs_matrix(raw, ...).passed`` holds exactly when
    ``GibbsMatrix(TransitionMatrix(raw), ...)`` constructs, for matrices
    pushed across each rule's bound."""

    @given(st.integers(2, 8), st.integers(0, 10_000), st.booleans(),
           st.sampled_from(["column", "sign", "fixed_point"]),
           st.sampled_from([SUM_TOL, FIXED_POINT_TOL]),
           st.one_of(st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 2.0]),
                     st.floats(0.0, 3.0)))
    @settings(max_examples=300, deadline=None)
    def test_certified_iff_constructs(self, n, seed, seeded_instance, rule, scale, factor):
        rng = np.random.default_rng(seed)
        if seeded_instance and rule != "sign":  # its entries are all positive
            inst = random_gibbs_instance(n, seed)
            system, beta0, raw = inst.system, inst.beta0, inst.matrix.entries.copy()
            p0 = make_gibbs_state(system, beta0).probabilities.weights
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
            # mass moves within a column: residual about factor * scale
            shift = min(factor * scale / p0[col], raw[col, col])
            raw[col, col] -= shift
            raw[(col + 1) % n, col] += shift
        cert = certify_gibbs_matrix(raw, system, beta0)
        try:
            GibbsMatrix(TransitionMatrix(raw), system, beta0)
            constructs = True
        except CertificationError:
            constructs = False
        assert cert.passed is constructs


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
