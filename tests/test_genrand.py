"""Seeded instance generation and stationary distributions."""

import numpy as np
import pytest

from nlsthermo import genrand
from nlsthermo.core import (
    EvaluationError,
    GibbsMatrix,
    InvalidInputError,
    TransitionMatrix,
    certify_gibbs_matrix,
    make_gibbs_state,
)
from nlsthermo.genrand import (
    MultiplicityError,
    random_gibbs_instance,
    random_stochastic,
    stationary_distribution,
)

# pinned on the first run of random_stochastic(2, 12345); the generator
# contract (one default_rng stream, uniform entries, column normalization)
# makes this stable across platforms
FIXTURE_2_12345 = np.array([
    [0.22185585455733137, 0.31898709923527263],
    [0.7781441454426687, 0.6810129007647274],
])


def spoil_next_solve(monkeypatch):
    """Make the next ``np.linalg.solve`` call in genrand off by 1e-9 in its
    first entry; later calls are exact."""
    exact = np.linalg.solve
    calls = []

    def solve(a, b):
        x = exact(a, b)
        if not calls:
            x[0] += 1e-9
        calls.append(1)
        return x

    monkeypatch.setattr(genrand.np.linalg, "solve", solve)


def power_iteration(T, iterations=20_000, tol=1e-15):
    p = np.full(T.size, 1.0 / T.size)
    for _ in range(iterations):
        nxt = T.entries @ p
        nxt /= nxt.sum()
        if np.abs(nxt - p).max() < tol:
            return nxt
        p = nxt
    return p


class TestRandomStochastic:
    def test_deterministic_in_the_seed(self):
        a = random_stochastic(6, 99)
        b = random_stochastic(6, 99)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_regression_fixture(self):
        T = random_stochastic(2, 12345)
        np.testing.assert_array_equal(T.entries, FIXTURE_2_12345)

    def test_columns_sum_to_one(self):
        T = random_stochastic(9, 4)
        np.testing.assert_allclose(T.entries.sum(axis=0), 1.0, rtol=0, atol=1e-14)

    def test_rejects_tiny_sizes(self):
        with pytest.raises(InvalidInputError):
            random_stochastic(1, 0)


class TestStationaryDistribution:
    def test_identity_has_no_unique_fixed_point(self):
        with pytest.raises(MultiplicityError):
            stationary_distribution(TransitionMatrix(np.eye(3)))

    def test_rank_one_matrix_returns_its_column(self):
        v = np.array([0.15, 0.25, 0.6])
        T = TransitionMatrix(np.tile(v[:, None], (1, 3)))
        p = stationary_distribution(T)
        np.testing.assert_allclose(p.weights, v, rtol=0, atol=1e-12)

    def test_residual_and_power_iteration_agreement(self):
        for seed in (0, 1, 2, 3):
            T = random_stochastic(6, seed)
            p = stationary_distribution(T)
            assert np.abs(T.entries @ p.weights - p.weights).max() <= 1e-12
            np.testing.assert_allclose(p.weights, power_iteration(T),
                                       rtol=0, atol=1e-10)

    def test_inaccurate_solve_is_an_evaluation_error(self, monkeypatch):
        spoil_next_solve(monkeypatch)
        with pytest.raises(EvaluationError, match="stationary solve left residual"):
            stationary_distribution(random_stochastic(4, 3))


class TestRandomGibbsInstance:
    def test_gibbs_state_reproduces_the_stationary_distribution(self):
        inst = random_gibbs_instance(5, 7)
        p0 = stationary_distribution(inst.matrix)
        gibbs = make_gibbs_state(inst.system, 1.0).probabilities
        np.testing.assert_allclose(gibbs.weights, p0.weights, rtol=0, atol=1e-12)

    def test_deterministic_in_n_and_seed(self):
        a = random_gibbs_instance(4, 42)
        b = random_gibbs_instance(4, 42)
        np.testing.assert_array_equal(a.matrix.entries, b.matrix.entries)
        np.testing.assert_array_equal(a.system.energies, b.system.energies)

    def test_every_instance_passes_certification(self):
        for k in range(50):
            inst = random_gibbs_instance(2 + k % 9, 1234 + k)
            cert = certify_gibbs_matrix(inst.matrix, inst.system, inst.beta0)
            assert cert.passed
            assert cert.fixed_point_residual <= 1e-10

    def test_stationary_entries_are_separated(self):
        for seed in range(20):
            inst = random_gibbs_instance(6, seed)
            w = make_gibbs_state(inst.system, 1.0).probabilities.weights
            assert w.min() >= 1e-6
            assert np.diff(np.sort(w)).min() >= 1e-6

    def test_returns_the_certified_gibbs_matrix(self):
        G = random_gibbs_instance(4, 6)
        assert isinstance(G, GibbsMatrix)
        p0 = stationary_distribution(G.matrix)
        np.testing.assert_allclose(G.fixed_point.weights, p0.weights, rtol=0, atol=1e-12)

    def test_unit_degeneracies_and_unit_beta0(self):
        inst = random_gibbs_instance(3, 0)
        assert inst.beta0 == 1.0
        assert np.all(inst.system.degeneracies == 1)

    def test_sweep_shape_matches_the_reference_figures(self):
        # all three curves vanish at beta0 and keep the two-sided ordering
        from nlsthermo.cli import sweep_records
        inst = random_gibbs_instance(4, 2024)
        records = sweep_records(inst, np.linspace(-10, 10, 81))
        at_beta0 = min(records, key=lambda r: abs(r.beta - 1.0))
        assert abs(at_beta0.beta_dQ) <= 1e-10
        assert abs(at_beta0.beta0_dQ) <= 1e-10
        assert abs(at_beta0.dS) <= 1e-10

    def test_rejects_tiny_sizes(self):
        with pytest.raises(InvalidInputError):
            random_gibbs_instance(1, 3)
