"""The exactly solvable spin-1 / oscillator example and its two routes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsthermo.core import InvalidInputError, certify_gibbs_matrix, make_gibbs_state, propagate
from nlsthermo.spinboson import (
    MAX_BETA0,
    DegenerateBlockError,
    SpinBosonParams,
    _block_mixture,
    analytic_transition_matrix,
    delta_s_argmax,
    fock_cutoff,
    lerch_phi,
    numerical_transition_matrix,
    spin1_gibbs_matrix,
    spin1_level_system,
    triplet_block,
    triplet_eigenvalues,
)

# pinned with a 50-digit arbitrary-precision evaluation before this module
# was written; the float64 targets are exact round-trips of those values
LERCH_AT_EXP_MINUS_1 = 0.5176385317029960
LERCH_AT_HALF = 0.5542910011618996
T11_AT_BETA0_1 = 0.47429317379620526
T13_AT_BETA0_1 = 0.046599195057373055
T21_AT_BETA0_1 = 0.18138275975985336
T33_AT_BETA0_1 = 0.794008571523244


class TestLerchPhi:
    def test_only_first_term_survives_at_z_zero(self):
        assert lerch_phi(0.0, 2.0, 1.5) == pytest.approx(4.0 / 9.0, rel=1e-15)

    def test_pinned_high_precision_values(self):
        assert lerch_phi(math.exp(-1.0), 2.0, 1.5) == \
            pytest.approx(LERCH_AT_EXP_MINUS_1, rel=1e-14)
        assert lerch_phi(0.5, 2.0, 1.5) == pytest.approx(LERCH_AT_HALF, rel=1e-14)

    def test_matches_dilogarithm_series(self):
        # Phi(z, 2, 1) = (1/z) sum_{k>=1} z^k / k^2, summed independently
        for z in (0.3, -0.6, 0.9):
            acc, term_index = [], 1
            while True:
                term = z ** term_index / term_index ** 2
                acc.append(term)
                if abs(term) < 1e-18:
                    break
                term_index += 1
            oracle = math.fsum(acc) / z
            assert lerch_phi(z, 2.0, 1.0) == pytest.approx(oracle, rel=1e-13)

    @given(st.floats(-0.95, 0.95), st.floats(0.5, 3.0), st.floats(0.1, 5.0))
    @settings(max_examples=150, deadline=None)
    def test_recurrence(self, z, s, a):
        lhs = lerch_phi(z, s, a)
        rhs = a ** -s + z * lerch_phi(z, s, a + 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    def test_domain_errors(self):
        with pytest.raises(InvalidInputError):
            lerch_phi(1.0, 2.0, 1.5)
        with pytest.raises(InvalidInputError):
            lerch_phi(-1.2, 2.0, 1.5)
        with pytest.raises(InvalidInputError):
            lerch_phi(0.5, 2.0, 0.0)


class TestLevelSystem:
    def test_gibbs_state_matches_closed_form(self):
        beta0 = 1.0
        system = spin1_level_system()
        state = make_gibbs_state(system, beta0)
        expected = np.array([math.exp(-beta0), 1.0, math.exp(beta0)])
        expected /= expected.sum()
        np.testing.assert_allclose(state.probabilities.weights, expected, rtol=1e-15)

    def test_infinite_temperature_is_uniform(self):
        state = make_gibbs_state(spin1_level_system(), 0.0)
        np.testing.assert_allclose(state.probabilities.weights, 1 / 3, rtol=1e-15)

    def test_cold_limit_concentrates_on_the_bottom_level(self):
        state = make_gibbs_state(spin1_level_system(), 50.0)
        assert state.probabilities.weights[2] >= 1.0 - 1e-15
        hot = make_gibbs_state(spin1_level_system(), -50.0)
        assert hot.probabilities.weights[0] >= 1.0 - 1e-15


class TestAnalyticMatrix:
    def test_middle_entry_is_exactly_one_half(self):
        for beta0 in (0.25, 1.0, 3.0):
            assert analytic_transition_matrix(beta0).entries[1, 1] == 0.5

    def test_pinned_entries_at_unit_beta0(self):
        t = analytic_transition_matrix(1.0).entries
        assert t[0, 0] == pytest.approx(T11_AT_BETA0_1, rel=1e-14)
        assert t[0, 2] == pytest.approx(T13_AT_BETA0_1, rel=1e-14)
        assert t[1, 0] == pytest.approx(T21_AT_BETA0_1, rel=1e-14)
        assert t[2, 2] == pytest.approx(T33_AT_BETA0_1, rel=1e-14)

    def test_columns_sum_to_one(self):
        t = analytic_transition_matrix(1.0).entries
        np.testing.assert_allclose(t.sum(axis=0), 1.0, rtol=0, atol=1e-12)

    def test_fixed_point_residual(self):
        matrix = analytic_transition_matrix(1.0)
        p0 = make_gibbs_state(spin1_level_system(), 1.0).probabilities
        q = propagate(matrix, p0)
        assert np.abs(q.weights - p0.weights).max() < 1e-12

    def test_certifies_as_gibbs_matrix(self):
        for beta0 in (0.5, 1.0, 2.0):
            cert = certify_gibbs_matrix(analytic_transition_matrix(beta0),
                                        spin1_level_system(), beta0)
            assert cert.passed
        spin1_gibbs_matrix(1.0)

    def test_domain_error(self):
        with pytest.raises(InvalidInputError):
            analytic_transition_matrix(0.0)
        with pytest.raises(InvalidInputError):
            analytic_transition_matrix(-1.0)

    @pytest.mark.parametrize("beta0", [237.0, 400.0, 1e5, 1e308])
    def test_beta0_past_the_double_range_names_the_bound(self, beta0):
        # e^{3 beta0} overflows past log(DBL_MAX)/3 = 236.59...
        with pytest.raises(InvalidInputError, match=r"log\(DBL_MAX\)/3 = 236\.59"):
            analytic_transition_matrix(beta0)

    def test_bound_is_where_the_cube_overflows(self):
        assert math.isfinite(math.exp(MAX_BETA0) ** 3)
        with pytest.raises(OverflowError):
            math.exp(MAX_BETA0 + 1e-9) ** 3


class TestParams:
    def test_fock_cutoff_is_minimal(self):
        for beta0 in (0.5, 1.0, 2.0):
            n = fock_cutoff(beta0)
            tail = math.exp(-beta0 * n) / -math.expm1(-beta0)
            tail_before = math.exp(-beta0 * (n - 1)) / -math.expm1(-beta0)
            assert tail <= 1e-12 < tail_before

    def test_insufficient_cutoff_is_rejected(self):
        with pytest.raises(InvalidInputError, match="tail"):
            SpinBosonParams(beta0=0.5, n_max=40)
        SpinBosonParams(beta0=0.5)  # auto cutoff is fine

    def test_zero_coupling_is_rejected(self):
        with pytest.raises(InvalidInputError):
            SpinBosonParams(beta0=1.0, lam=0.0)

    def test_nonpositive_beta0_is_rejected(self):
        with pytest.raises(InvalidInputError):
            SpinBosonParams(beta0=-1.0)


class TestTripletBlocks:
    def test_matrix_layout(self):
        block = triplet_block(3, 0.8)
        expected = np.array([
            [3.5, 0.8 * math.sqrt(6.0), 0.0],
            [0.8 * math.sqrt(6.0), 3.5, 0.8 * math.sqrt(8.0)],
            [0.0, 0.8 * math.sqrt(8.0), 3.5],
        ])
        np.testing.assert_allclose(block.matrix, expected, rtol=1e-15)

    @pytest.mark.parametrize("lam", [0.7, 1.3])
    def test_closed_form_eigenvalues(self, lam):
        for n in range(1, 42):
            block = triplet_block(n, lam)
            computed = np.linalg.eigvalsh(block.matrix)
            np.testing.assert_allclose(computed, triplet_eigenvalues(n, lam),
                                       rtol=0, atol=1e-10)

    def test_index_starts_at_one(self):
        with pytest.raises(InvalidInputError):
            triplet_block(0, 1.0)

    def test_degenerate_block_is_rejected(self):
        nearly = np.array([[0.5, 1e-12], [1e-12, 0.5]])
        with pytest.raises(DegenerateBlockError):
            _block_mixture(nearly)


class TestNumericalOracle:
    def test_matches_analytic_at_unit_beta0(self):
        analytic = analytic_transition_matrix(1.0)
        numeric = numerical_transition_matrix(SpinBosonParams(beta0=1.0, n_max=40))
        assert np.abs(numeric.entries - analytic.entries).max() <= 1e-8

    @pytest.mark.parametrize("beta0", [0.5, 2.0])
    def test_matches_analytic_at_other_temperatures(self, beta0):
        analytic = analytic_transition_matrix(beta0)
        numeric = numerical_transition_matrix(SpinBosonParams(beta0=beta0))
        assert np.abs(numeric.entries - analytic.entries).max() <= 1e-8

    def test_coupling_independence(self):
        results = [
            numerical_transition_matrix(SpinBosonParams(beta0=1.0, lam=lam, n_max=40))
            for lam in (0.3, 0.7, 1.3, 2.0)
        ]
        for other in results[1:]:
            assert np.abs(other.entries - results[0].entries).max() <= 1e-10

    def test_columns_sum_to_one(self):
        numeric = numerical_transition_matrix(SpinBosonParams(beta0=1.0, n_max=40))
        np.testing.assert_allclose(numeric.entries.sum(axis=0), 1.0,
                                   rtol=0, atol=1e-10)

    def test_certifies_as_gibbs_matrix(self):
        numeric = numerical_transition_matrix(SpinBosonParams(beta0=1.0, n_max=40))
        cert = certify_gibbs_matrix(numeric, spin1_level_system(), 1.0)
        assert cert.passed


class TestEntropyTransferExtremum:
    def test_location_matches_the_quantitative_anchor(self):
        found = delta_s_argmax(1.0)
        assert found == pytest.approx(0.279896, abs=1e-3)

    def test_magnitude_beats_the_high_temperature_end(self):
        from nlsthermo.fluctuation import heat_and_entropy_change
        G = spin1_gibbs_matrix(1.0)
        found = delta_s_argmax(1.0)
        _, ds_star = heat_and_entropy_change(G, found)
        _, ds_edge = heat_and_entropy_change(G, 0.05)
        assert abs(ds_star) > abs(ds_edge)

    def test_entropy_change_vanishes_at_the_fixed_point(self):
        from nlsthermo.fluctuation import heat_and_entropy_change
        G = spin1_gibbs_matrix(1.0)
        _, ds = heat_and_entropy_change(G, 1.0)
        assert abs(ds) <= 1e-14

    def test_domain_error(self):
        with pytest.raises(InvalidInputError):
            delta_s_argmax(-2.0)
