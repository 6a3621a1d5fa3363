"""The exactly solvable spin-1 / oscillator example, its two routes, and the
ladder oracle for other spins."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from nlsthermo import spinboson
from nlsthermo.core import (GibbsMatrix, InvalidInputError, TransitionMatrix,
                            certify_gibbs_matrix, make_gibbs_state, propagate)
from nlsthermo.fluctuation import (grid_pass, heat_and_entropy_change, inequality_suite,
                                   jequation_suite)
from nlsthermo.response import cumulant_suite, slope_suite
from nlsthermo.spinboson import (
    MAX_BETA0,
    MAX_CUTOFF,
    MIN_BETA0,
    DegenerateBlockError,
    SpinBosonParams,
    _block_mixture,
    _ladder_blocks,
    _ladder_oracle,
    analytic_entries,
    analytic_transition_matrix,
    delta_s_argmax,
    fock_cutoff,
    lerch_phi,
    numerical_transition_matrix,
    spin1_gibbs_matrix,
    spin1_level_system,
)
from strategies import ladder_system

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

    @pytest.mark.parametrize("beta0", [1e-6, 0.1, 0.5, 1.0, 40.0])
    def test_cutoff_is_derived_and_read_only(self, beta0):
        params = SpinBosonParams(beta0=beta0)
        assert params.n_max == fock_cutoff(beta0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.n_max = 1
        with pytest.raises(TypeError):
            SpinBosonParams(beta0=beta0, n_max=40)

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


def triplet_eigenvalues(n, lam):
    """Closed-form spectrum {n + 1/2, n + 1/2 +/- lam sqrt(4n + 2)} of the
    spin-1 block with top state |1, n - 1>, sorted ascending for lam > 0."""
    split = lam * math.sqrt(4.0 * n + 2.0)
    return np.array([n + 0.5 - split, n + 0.5, n + 0.5 + split])


class TestLadderBlocks:
    def test_matrix_layout(self):
        # spin 1, top state |1, 2>: spans |1, 2>, |0, 3>, |-1, 4>
        (block,) = _ladder_blocks(3, np.array([2]), 0.8)
        expected = np.array([
            [3.5, 0.8 * math.sqrt(6.0), 0.0],
            [0.8 * math.sqrt(6.0), 3.5, 0.8 * math.sqrt(8.0)],
            [0.0, 0.8 * math.sqrt(8.0), 3.5],
        ])
        np.testing.assert_allclose(block, expected, rtol=1e-15)

    @pytest.mark.parametrize("levels", [2, 3, 4, 7])
    def test_blocks_restrict_the_ladder_hamiltonian(self, levels):
        """Every block, partial ones included, is the Hamiltonian
        S_z + a^dagger a + 1/2 + lam (S+ a + S- a^dagger), built from
        Kronecker products on 12 oscillator states, restricted to the
        states |i, n0 + i>."""
        s, lam, fock = (levels - 1) / 2, 0.6, 12
        m = s - np.arange(levels)
        s_plus = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), 1)
        a = np.diag(np.sqrt(np.arange(1.0, fock)), 1)
        h = (np.kron(np.diag(m), np.eye(fock))
             + np.kron(np.eye(levels), a.T @ a + 0.5 * np.eye(fock))
             + lam * (np.kron(s_plus, a) + np.kron(s_plus.T, a.T)))
        for n0 in range(1 - levels, fock - levels + 1):
            states = [i * fock + n0 + i for i in range(levels) if n0 + i >= 0]
            (block,) = _ladder_blocks(levels, np.array([n0]), lam)
            np.testing.assert_allclose(block, h[np.ix_(states, states)], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("lam", [0.7, 1.3])
    def test_closed_form_eigenvalues(self, lam):
        blocks = _ladder_blocks(3, np.arange(41), lam)
        for n, block in enumerate(blocks, start=1):
            np.testing.assert_allclose(np.linalg.eigvalsh(block), triplet_eigenvalues(n, lam),
                                       rtol=0, atol=1e-10)

    def test_degenerate_block_is_rejected(self):
        nearly = np.array([[0.5, 1e-12], [1e-12, 0.5]])
        with pytest.raises(DegenerateBlockError):
            _block_mixture(nearly)


class TestNumericalOracle:
    def test_matches_analytic_at_unit_beta0(self):
        analytic = analytic_transition_matrix(1.0)
        numeric = numerical_transition_matrix(SpinBosonParams(beta0=1.0))
        assert np.abs(numeric.entries - analytic.entries).max() <= 1e-8

    @pytest.mark.parametrize("beta0", [0.5, 2.0])
    def test_matches_analytic_at_other_temperatures(self, beta0):
        analytic = analytic_transition_matrix(beta0)
        numeric = numerical_transition_matrix(SpinBosonParams(beta0=beta0))
        assert np.abs(numeric.entries - analytic.entries).max() <= 1e-8

    def test_coupling_independence(self):
        results = [
            numerical_transition_matrix(SpinBosonParams(beta0=1.0, lam=lam))
            for lam in (0.3, 0.7, 1.3, 2.0)
        ]
        for other in results[1:]:
            assert np.abs(other.entries - results[0].entries).max() <= 1e-10

    def test_columns_sum_to_one(self):
        numeric = numerical_transition_matrix(SpinBosonParams(beta0=1.0))
        np.testing.assert_allclose(numeric.entries.sum(axis=0), 1.0,
                                   rtol=0, atol=1e-10)

    def test_certifies_as_gibbs_matrix(self):
        numeric = numerical_transition_matrix(SpinBosonParams(beta0=1.0))
        _, G = certify_gibbs_matrix(numeric, spin1_level_system(), 1.0)
        assert G is not None

    @pytest.mark.parametrize("chunk", [299, 300, 301, 302])
    def test_chunk_seams(self, monkeypatch, chunk):
        # n_max = 300 at beta0 = 0.1: the 301 full blocks n0 = 0 .. 300 spill
        # over one stack, fill exactly one, or leave it room
        monkeypatch.setattr(spinboson, "_CHUNK", chunk)
        numeric = numerical_transition_matrix(SpinBosonParams(beta0=0.1))
        np.testing.assert_allclose(numeric.entries.sum(axis=0), 1.0, rtol=0, atol=1e-12)
        analytic = analytic_transition_matrix(0.1)
        assert np.abs(numeric.entries - analytic.entries).max() <= 1e-12

    @pytest.mark.parametrize("chunk", [1, 7, 301])
    def test_stack_size_does_not_change_the_result(self, monkeypatch, chunk):
        # n_max = 300 at beta0 = 0.1, so chunk 301 holds all 301 full blocks
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
        blocks = _ladder_blocks(3, np.arange(5), 0.9)
        stacked = _block_mixture(blocks)
        for block, kernel in zip(blocks, stacked):
            np.testing.assert_allclose(kernel, _block_mixture(block), rtol=0, atol=1e-15)
            np.testing.assert_allclose(kernel.sum(axis=0), 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("beta0", [1e-3, 0.01, 0.1, 1.0, 5.0, 10.0, 12.0, 20.0, 30.0, 40.0])
    def test_certifies_relatively_also_where_the_closed_form_fails(self, beta0):
        # the closed form stops certifying near beta0 = 10.5
        numeric = numerical_transition_matrix(SpinBosonParams(beta0=beta0))
        G = GibbsMatrix(numeric, spin1_level_system(), beta0)
        assert np.abs(G.rho - 1.0).max() <= 1e-14


class TestLadderOracle:
    """The oracle for other spins: detailed balance makes every matrix hold
    its Gibbs state fixed to rounding, however far the weights spread."""

    @pytest.mark.parametrize("beta0", [0.1, 1.0, 3.0])
    def test_spin_one_half_matches_the_closed_form(self, beta0):
        half = math.exp(-beta0) / 2.0
        expected = np.array([[0.5, half], [0.5, 1.0 - half]])
        t = _ladder_oracle(2, SpinBosonParams(beta0=beta0))
        assert np.abs(t - expected).max() <= 1e-15

    @pytest.mark.parametrize("levels, beta0", [
        (levels, beta0) for beta0 in (0.1, 1.0, 5.0)
        for levels in (2, 3, 4, 5, 8, 12, 21, 33, 50)
    ] + [(levels, 0.01) for levels in (2, 3, 4, 5, 8, 12, 21)])
    def test_certifies_and_passes_every_verify_line(self, levels, beta0):
        G = GibbsMatrix(TransitionMatrix(_ladder_oracle(levels, SpinBosonParams(beta0=beta0))),
                        ladder_system(levels), beta0)
        assert np.abs(G.rho - 1.0).max() <= 1e-14
        grid = grid_pass(G, np.linspace(-5.0 * beta0, 5.0 * beta0, 201))
        lines = (jequation_suite(G) + inequality_suite(grid) + slope_suite(G)
                 + cumulant_suite(G))
        assert [line.label for line in lines if not line.holds] == []

    def test_coupling_independence(self):
        params = [SpinBosonParams(beta0=1.0, lam=lam) for lam in (0.3, 1.0, 2.0)]
        results = [_ladder_oracle(6, p) for p in params]
        for other in results[1:]:
            assert np.abs(other - results[0]).max() <= 1e-10


#: the root of d<dS>/dbeta on the closed form at beta0 = 1, to 17 digits
ARGMAX_AT_ONE = 0.27989550393887651


def exact_entropy_root(beta0, guess):
    """The root of d<dS>/dbeta on the closed-form matrix at beta0, both in
    40-digit arithmetic (Lerch's transcendent from mpmath's ``lerchphi``),
    found from ``guess`` by ``findroot``: an independent route."""
    with mpmath.workdps(40):
        b = mpmath.mpf(beta0)
        x, h, s = mpmath.exp(b), mpmath.exp(b / 2), mpmath.sinh(b / 2)
        u, phi = mpmath.atanh(1 / h), mpmath.lerchphi(mpmath.exp(-b), 2, mpmath.mpf(3) / 2)
        t = [[(x - 1) / 32 * (12 / (x - 1) + 8 * h * u + 3 / x * phi - 8),
              (1 - 2 * s * u) / 4,
              mpmath.mpf(3) / 32 * mpmath.exp(-3 * b) * (4 * x - (x - 1) * phi)],
             [x * (1 - 2 * s * u) / 4, mpmath.mpf(1) / 2,
              mpmath.exp(-3 * b / 2) * (h + (x - 1) * u) / 4],
             [mpmath.mpf(3) / 32 * mpmath.exp(-b) * (4 * x - (x - 1) * phi),
              (2 * s * u + 1) / 4,
              (4 * x * x * (11 * mpmath.sinh(b) + 5 * mpmath.cosh(b) - 4 * s * u - 2)
               + 3 * (x - 1) * phi) / (32 * x ** 3)]]
        energies = (1, 0, -1)

        def entropy_slope(beta):
            w = [mpmath.exp(-beta * e) for e in energies]
            p = [v / mpmath.fsum(w) for v in w]
            mean = mpmath.fsum(pm * e for pm, e in zip(p, energies))
            dp = [-pm * (e - mean) for pm, e in zip(p, energies)]
            q, dq = ([mpmath.fsum(t[m][n] * v[n] for n in range(3)) for m in range(3)]
                     for v in (p, dp))
            return mpmath.fsum(dp[m] * mpmath.log(p[m]) - dq[m] * mpmath.log(q[m])
                               for m in range(3))

        return float(mpmath.findroot(entropy_slope, mpmath.mpf(guess)))


class TestEntropyTransferExtremum:
    def test_location_matches_the_quantitative_anchor(self):
        found = delta_s_argmax(1.0)
        assert round(found, 6) == 0.279896
        assert abs(found - ARGMAX_AT_ONE) <= 1e-13

    def test_magnitude_beats_the_high_temperature_end(self):
        G = spin1_gibbs_matrix(1.0)
        found = delta_s_argmax(1.0)
        _, ds_star = heat_and_entropy_change(G, found)
        _, ds_edge = heat_and_entropy_change(G, 0.05)
        assert abs(ds_star) > abs(ds_edge)

    def test_entropy_change_vanishes_at_the_fixed_point(self):
        G = spin1_gibbs_matrix(1.0)
        _, ds = heat_and_entropy_change(G, 1.0)
        assert abs(ds) <= 1e-14

    def test_domain_error(self):
        with pytest.raises(InvalidInputError):
            delta_s_argmax(-2.0)

    @pytest.mark.parametrize("beta0, bound", [(0.1, 1e-13), (0.5, 1e-13), (1.0, 1e-13),
                                              (2.0, 1e-13), (5.0, 1e-13), (10.0, 2e-12)])
    def test_matches_the_40_digit_root(self, beta0, bound):
        # at beta0 = 10 the double entries are about 1e-12 from the closed form
        found = delta_s_argmax(beta0)
        assert abs(found - exact_entropy_root(beta0, found)) <= bound

    def test_without_a_sign_change_the_larger_boundary_wins(self, monkeypatch):
        monkeypatch.setattr(spinboson, "_beta_slopes",
                            lambda G, betas: (np.ones(len(betas)),) * 2)
        G = spin1_gibbs_matrix(1.0)
        edges = {beta: abs(heat_and_entropy_change(G, beta)[1]) for beta in (0.0, 1.0)}
        assert delta_s_argmax(1.0) == max(edges, key=edges.get) == 0.0
