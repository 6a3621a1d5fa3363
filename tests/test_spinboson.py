"""The exactly solvable spin-1 / oscillator example and its two routes."""

import math

import mpmath
import numpy as np
import pytest

from nlsthermo import spinboson
from nlsthermo.core import InvalidInputError, certify_gibbs_matrix, make_gibbs_state, propagate
from nlsthermo.spinboson import (
    _CHUNK,
    MAX_BETA0,
    MAX_CUTOFF,
    MIN_BETA0,
    DegenerateBlockError,
    SpinBosonParams,
    _block_mixture,
    analytic_entries,
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


def _lerch_reference(z):
    """Phi(z, 2, 3/2) at the same double z: mpmath's Lerch transcendent at 40
    digits, or for z <= 0.2 an exactly rounded direct sum (mpmath.lerchphi
    drifts past beta0 ~ 100, i.e. for z below about 4e-44)."""
    if z <= 0.2:
        terms, k = [], 0
        while not terms or terms[-1] > 1e-40 * terms[0]:
            terms.append(z ** k / (k + 1.5) ** 2)
            k += 1
        return math.fsum(terms)
    with mpmath.workdps(40):
        return float(mpmath.lerchphi(mpmath.mpf(z), 2, mpmath.mpf(3) / 2))


class TestLerchPhi:
    def test_only_first_term_survives_at_z_zero(self):
        assert lerch_phi(0.0) == pytest.approx(4.0 / 9.0, rel=1e-15)

    def test_pinned_high_precision_values(self):
        assert lerch_phi(math.exp(-1.0)) == pytest.approx(LERCH_AT_EXP_MINUS_1, rel=1e-14)
        assert lerch_phi(0.5) == pytest.approx(LERCH_AT_HALF, rel=1e-14)

    @pytest.mark.parametrize("beta0", np.geomspace(1e-6, 1.6, 10).tolist()
                             + [0.80, 0.85, 0.90, 0.95])
    def test_matches_mpmath_reference(self, beta0):
        # z > 0.2; the last four straddle the switch to the reflection at z = 0.4
        z = math.exp(-beta0)
        assert lerch_phi(z) == pytest.approx(_lerch_reference(z), rel=1e-14, abs=0)

    @pytest.mark.parametrize("beta0", np.geomspace(-math.log(0.2), MAX_BETA0, 25).tolist())
    def test_matches_direct_sum_for_small_z(self, beta0):
        z = math.exp(-beta0)
        assert lerch_phi(z) == pytest.approx(_lerch_reference(z), rel=1e-14, abs=0)

    def test_sums_directly_where_the_reflection_cancels(self):
        # just above r = sqrt(2) - 1 the reflection's terms cancel to a
        # hundredth and it errs by up to 2e-14; the direct sum does not
        for z in np.linspace((math.sqrt(2.0) - 1.0) ** 2, 0.2, 29).tolist():
            assert lerch_phi(z) == pytest.approx(_lerch_reference(z), rel=1e-14, abs=0)

    def test_branches_agree_at_the_switch(self):
        # z = 0.4 is summed directly, the next double above through the reflection
        below, above = lerch_phi(0.4), lerch_phi(math.nextafter(0.4, 1.0))
        assert above == pytest.approx(below, rel=1e-14)
        assert below == pytest.approx(_lerch_reference(0.4), rel=1e-14, abs=0)

    def test_approaches_the_anchor_at_one(self):
        # Phi(1, 2, 3/2) = pi^2/2 - 4; one ulp below 1 it is within ~ulp log(ulp)
        assert lerch_phi(math.nextafter(1.0, 0.0)) == pytest.approx(
            math.pi ** 2 / 2.0 - 4.0, rel=0, abs=1e-14)

    def test_domain_errors(self):
        for z in (-1e-300, -0.5, 1.0, 1.5, math.inf, math.nan):
            with pytest.raises(InvalidInputError, match="0 <= z < 1"):
                lerch_phi(z)


class TestLevelSystem:
    def test_gibbs_state_matches_closed_form(self):
        beta0 = 1.0
        system = spin1_level_system()
        state = make_gibbs_state(system, beta0)
        expected = np.array([math.exp(-beta0), 1.0, math.exp(beta0)])
        expected /= expected.sum()
        np.testing.assert_allclose(state.weights, expected, rtol=1e-15)

    def test_infinite_temperature_is_uniform(self):
        state = make_gibbs_state(spin1_level_system(), 0.0)
        np.testing.assert_allclose(state.weights, 1 / 3, rtol=1e-15)

    def test_cold_limit_concentrates_on_the_bottom_level(self):
        state = make_gibbs_state(spin1_level_system(), 50.0)
        assert state.weights[2] >= 1.0 - 1e-15
        hot = make_gibbs_state(spin1_level_system(), -50.0)
        assert hot.weights[0] >= 1.0 - 1e-15


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
        p0 = make_gibbs_state(spin1_level_system(), 1.0)
        q = propagate(matrix, p0)
        assert np.abs(q.weights - p0.weights).max() < 1e-12

    def test_certifies_as_gibbs_matrix(self):
        for beta0 in (0.5, 1.0, 2.0):
            _, G = certify_gibbs_matrix(analytic_transition_matrix(beta0),
                                        spin1_level_system(), beta0)
            assert G is not None
        spin1_gibbs_matrix(1.0)

    def test_domain_error(self):
        with pytest.raises(InvalidInputError):
            analytic_transition_matrix(0.0)
        with pytest.raises(InvalidInputError):
            analytic_transition_matrix(-1.0)

    @pytest.mark.parametrize("beta0", [236.0, 237.0, 400.0, 1e5, 1e308])
    def test_beta0_past_the_double_range_names_the_bound(self, beta0):
        # 32 e^{3 beta0} overflows past (log(DBL_MAX) - log 32)/3 = 235.44...
        with pytest.raises(InvalidInputError, match=r"MAX_BETA0 = 235\.43899233019474\]"):
            analytic_transition_matrix(beta0)

    def test_bound_is_where_the_cube_overflows(self):
        # t33's denominator 32 e^{3 beta0} is finite at the bound, inf one ulp above
        above = math.nextafter(MAX_BETA0, math.inf)
        assert math.isfinite(32.0 * math.exp(MAX_BETA0) ** 3)
        assert math.isinf(32.0 * math.exp(above) ** 3)
        assert np.isfinite(analytic_entries(MAX_BETA0)).all()
        with pytest.raises(InvalidInputError, match="MAX_BETA0"):
            analytic_entries(above)

    def test_lower_bound_is_the_smallest_beta0_that_evaluates(self):
        # from 2^-52 down e^{beta0/2} rounds to 1 and atanh(e^{-beta0/2}) diverges
        for beta0 in (MIN_BETA0, 2.3e-16):
            _, G = certify_gibbs_matrix(analytic_entries(beta0), spin1_level_system(), beta0)
            assert G is not None
        for beta0 in (math.nextafter(MIN_BETA0, 0.0), 2.2e-16, 1e-16, 5e-324):
            with pytest.raises(InvalidInputError, match=r"\[MIN_BETA0 = 2\.2204460492503136e-16,"):
                analytic_entries(beta0)

    def test_entries_stay_finite_up_to_the_bound(self):
        for beta0 in np.linspace(150.0, MAX_BETA0, 341).tolist():
            assert np.isfinite(analytic_entries(beta0)).all(), beta0


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

    def test_cutoff_bound_admits_beta0_down_to_one_millionth(self):
        assert fock_cutoff(1e-6) == MAX_CUTOFF
        assert SpinBosonParams(beta0=1e-6).n_max == MAX_CUTOFF
        for beta0 in (0.99e-6, 1e-9, 1e-17, 5e-324):
            with pytest.raises(InvalidInputError, match=r"MAX_CUTOFF = 41446533; "
                                                        r"the oracle admits beta0 >= 1e-06"):
                SpinBosonParams(beta0=beta0)
        with pytest.raises(InvalidInputError, match="MAX_CUTOFF"):
            SpinBosonParams(beta0=1.0, n_max=MAX_CUTOFF + 1)


class TestTripletBlocks:
    def test_matrix_layout(self):
        block = triplet_block(3, 0.8)
        expected = np.array([
            [3.5, 0.8 * math.sqrt(6.0), 0.0],
            [0.8 * math.sqrt(6.0), 3.5, 0.8 * math.sqrt(8.0)],
            [0.0, 0.8 * math.sqrt(8.0), 3.5],
        ])
        np.testing.assert_allclose(block, expected, rtol=1e-15)

    @pytest.mark.parametrize("lam", [0.7, 1.3])
    def test_closed_form_eigenvalues(self, lam):
        for n in range(1, 42):
            computed = np.linalg.eigvalsh(triplet_block(n, lam))
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
        _, G = certify_gibbs_matrix(numeric, spin1_level_system(), 1.0)
        assert G is not None

    @pytest.mark.parametrize("n_max", [_CHUNK - 2, _CHUNK - 1, _CHUNK, _CHUNK + 1])
    def test_chunk_seams(self, n_max):
        # triplets n = 1 .. n_max + 1 fill one stack, exactly one, or spill over
        numeric = numerical_transition_matrix(SpinBosonParams(beta0=0.1, n_max=n_max))
        np.testing.assert_allclose(numeric.entries.sum(axis=0), 1.0, rtol=0, atol=1e-12)
        analytic = analytic_transition_matrix(0.1)
        assert np.abs(numeric.entries - analytic.entries).max() <= 1e-12

    @pytest.mark.parametrize("chunk", [1, 7, 301])
    def test_stack_size_does_not_change_the_result(self, monkeypatch, chunk):
        # n_max = 300 at beta0 = 0.1, so chunk 301 ends one triplet short
        params = SpinBosonParams(beta0=0.1)
        reference = numerical_transition_matrix(params).entries
        monkeypatch.setattr(spinboson, "_CHUNK", chunk)
        chunked = numerical_transition_matrix(params).entries
        assert np.abs(chunked - reference).max() <= 1e-15

    @pytest.mark.parametrize("beta0", np.geomspace(1e-3, 5.0, 8).tolist())
    def test_matches_closed_form_on_a_log_grid(self, beta0):
        numeric = numerical_transition_matrix(SpinBosonParams(beta0=beta0))
        analytic = analytic_transition_matrix(beta0)
        assert np.abs(numeric.entries - analytic.entries).max() <= 1e-12

    def test_stacked_kernels_match_one_block_at_a_time(self):
        blocks = triplet_block(np.arange(1, 6), 0.9)
        stacked = _block_mixture(blocks)
        for block, kernel in zip(blocks, stacked):
            np.testing.assert_allclose(kernel, _block_mixture(block), rtol=0, atol=1e-15)
            np.testing.assert_allclose(kernel.sum(axis=0), 1.0, rtol=0, atol=1e-15)


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
