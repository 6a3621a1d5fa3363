"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion is one test; ``pytest -v tests/test_acceptance.py`` therefore
prints one pass/fail line per criterion, and each test additionally prints a
one-line summary of what it measured (visible with ``-s``).
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

import nlsthermo as nt
from nlsthermo.fluctuation import heat_and_entropy_change

BETA_GRID = np.linspace(-10.0, 10.0, 21)


def announce(number, text):
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def positive_distribution(rng, n):
    w = rng.uniform(0.05, 1.0, size=n)
    return w / w.sum()


_instances = {}


def gibbs_instances(count, start_seed):
    """200 seeded instances with N cycling over 2..16, cached per criterion."""
    key = (count, start_seed)
    if key not in _instances:
        _instances[key] = [
            nt.random_gibbs_instance(2 + k % 15, start_seed + k)
            for k in range(count)
        ]
    return _instances[key]


def test_criterion_01_general_j_equation():
    rng = np.random.default_rng(20_001)
    start = time.perf_counter()
    worst = 0.0
    for k in range(1000):
        n = 2 + k % 15
        entries = rng.uniform(size=(n, n))
        T = nt.TransitionMatrix(entries / entries.sum(axis=0))
        p = positive_distribution(rng, n)
        p0 = positive_distribution(rng, n)
        ptilde = positive_distribution(rng, n)
        worst = max(worst, abs(nt.general_j_expectation(T, p, p0, ptilde) - 1.0))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    announce(1, f"1000 general J-equations, max |value - 1| = {worst:.2e}, "
                f"{elapsed:.2f} s")


def test_criterion_02_heat_j_equation():
    worst = 0.0
    for G in gibbs_instances(200, 30_000):
        for beta in BETA_GRID:
            worst = max(worst, abs(nt.j_heat_expectation(G, beta) - 1.0))
    assert worst <= 1e-10
    announce(2, f"200 instances x 21 beta, max |<e^(-(b-b0) dQ)> - 1| = {worst:.2e}")


def test_criterion_03_flow_and_clausius_inequalities():
    worst_heat = worst_lower = worst_upper = worst_entropy = math.inf
    for G in gibbs_instances(200, 30_000):
        for beta in BETA_GRID:
            dq, ds = heat_and_entropy_change(G, beta)
            worst_heat = min(worst_heat, (beta - G.beta0) * dq)
            worst_lower = min(worst_lower, ds - G.beta0 * dq)
            worst_upper = min(worst_upper, beta * dq - ds)
            if beta >= 0.0:
                worst_entropy = min(worst_entropy, (beta - G.beta0) * ds)
    for value in (worst_heat, worst_lower, worst_upper, worst_entropy):
        assert value >= -1e-12
    announce(3, "heat flow, two-sided clausius, entropy flow: worst slacks "
                f"{worst_heat:.1e}, {worst_lower:.1e}, {worst_upper:.1e}, "
                f"{worst_entropy:.1e}")


def test_criterion_04_slope_cross_validation():
    worst_closed = worst_tangent = worst_common = 0.0
    most_negative = 0.0
    for k in range(500):
        G = nt.random_gibbs_instance(2 + k % 15, 50_000 + k)
        symmetrized, fluctuation, tangent, nonnegative, common = nt.slope_suite(G)
        scale = max(1.0, abs(nt.slope_direct(G)))
        worst_closed = max(worst_closed, symmetrized.lhs / scale, fluctuation.lhs / scale)
        worst_tangent = max(worst_tangent, tangent.lhs / scale)
        most_negative = min(most_negative, -nonnegative.lhs)
        worst_common = max(worst_common, common.lhs)
    assert worst_closed <= 1e-9
    assert worst_tangent <= 1e-9
    assert most_negative >= -1e-10
    assert worst_common <= 1e-9
    announce(4, f"500 slope suites: closed-form gap {worst_closed:.1e}, "
                f"tangent gap {worst_tangent:.1e}, common-tangent gap {worst_common:.1e}")


def test_criterion_05_weak_coupling_leading_term():
    """beta <dE> - <dS> along (1 - eps) 1 + eps M is (1/2) eps^2 chi^2 (1 + theta)
    with |theta| <= r / (3 (1 - r)), r = eps / eps*, eps* = min p / |delta|,
    chi^2 = sum delta^2 / p, delta = M p - p, at eps = eps* {1e-1, 1e-2, 1e-3}
    capped at 1: 50 random draws and spin1 at beta0 = 5, 10, beta = -2 beta0,
    3 beta0, where eps* is near 1e-8."""
    rng = np.random.default_rng(60_000)
    cases = []
    for k in range(50):
        n = 2 + k % 7
        M = nt.random_stochastic(n, 61_000 + k)
        system = nt.LevelSystem(rng.uniform(-1.0, 1.0, n),
                                np.ones(n, dtype=np.int64))
        cases.append((M, system, float(rng.uniform(0.2, 1.0))))
    for beta0 in (5.0, 10.0):
        G = nt.spin1_gibbs_matrix(beta0)
        cases += [(G.matrix, G.system, beta) for beta in (-2.0 * beta0, 3.0 * beta0)]
    worst = 0.0
    for M, system, beta in cases:
        log_p, _ = nt.gibbs_log_weights(system, beta)
        p = np.exp(log_p)
        delta = M.entries @ p - p
        moved = delta != 0.0
        eps_star = float(np.min(p[moved] / np.abs(delta[moved])))
        for scale in (1e-1, 1e-2, 1e-3):
            eps = min(1.0, scale * eps_star)
            r = eps / eps_star
            step = eps * delta[moved]
            leading = 0.5 * float(np.sum(step * (step / p[moved])))
            gap = abs(nt.clausius_equality_residual(M, system, beta, eps) / leading - 1.0)
            bound = r / (3.0 * (1.0 - r)) + 4.0 * 2.0 ** -53  # 4 u of rounding
            assert gap <= bound, (beta, eps)
            worst = max(worst, gap / bound)
    announce(5, f"{len(cases)} weak-coupling residuals, 3 eps each, within "
                f"r/(3(1-r)) of eps^2 chi^2/2: worst at {worst:.3f} of the bound")


def test_criterion_06_spin_boson_example():
    start = time.perf_counter()
    analytic = nt.analytic_transition_matrix(1.0)
    column_dev = float(np.abs(analytic.entries.sum(axis=0) - 1.0).max())
    p0 = nt.make_gibbs_state(nt.spin1_level_system(), 1.0).weights
    residual = float(np.abs(analytic.entries @ p0 - p0).max())
    assert column_dev <= 1e-12
    assert residual < 1e-12
    assert analytic.entries[1, 1] == 0.5
    oracle = nt.numerical_transition_matrix(nt.SpinBosonParams(beta0=1.0))
    oracle_dev = float(np.abs(oracle.entries - analytic.entries).max())
    assert oracle_dev <= 1e-8
    runs = [nt.numerical_transition_matrix(
        nt.SpinBosonParams(beta0=1.0, lam=lam)).entries
        for lam in (0.3, 0.7, 1.3, 2.0)]
    lam_dev = max(float(np.abs(run - runs[0]).max()) for run in runs[1:])
    assert lam_dev <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(6, f"analytic vs oracle deviation {oracle_dev:.1e}, coupling "
                f"independence {lam_dev:.1e}, {elapsed:.2f} s")


def test_criterion_07_entropy_extremum_anchor():
    found = nt.delta_s_argmax(1.0)
    # the printed anchor, and the 40-digit root of d<dS>/dbeta on the closed form
    assert round(found, 6) == 0.279896
    assert abs(found - 0.27989550393887651) <= 1e-13
    G = nt.spin1_gibbs_matrix(1.0)
    _, ds_star = heat_and_entropy_change(G, found)
    _, ds_edge = heat_and_entropy_change(G, 0.05)
    assert abs(ds_star) > abs(ds_edge)
    announce(7, f"|<dS>| maximizer at beta = {found:.6f}, magnitude "
                f"{abs(ds_star):.5f} > {abs(ds_edge):.5f} at beta = 0.05")


def test_criterion_08_bistochastic_limit():
    rng = np.random.default_rng(70_000)
    worst_entropy = worst_work = math.inf
    for k in range(100):
        n = 2 + k % 7
        weights = rng.uniform(size=5)
        weights /= weights.sum()
        entries = np.zeros((n, n))
        for w in weights:
            entries += w * np.eye(n)[rng.permutation(n)]
        T = nt.TransitionMatrix(entries)
        system = nt.LevelSystem(rng.normal(size=n), np.ones(n, dtype=np.int64))
        beta = float(rng.uniform(0.0, 5.0))
        first, second = nt.bistochastic_work_check(T, system, beta)
        worst_entropy = min(worst_entropy, first.slack)
        worst_work = min(worst_work, second.slack)
    assert worst_entropy >= -1e-12
    assert worst_work >= -1e-12
    announce(8, f"100 permutation mixtures: worst slacks {worst_entropy:.1e} "
                f"(entropy), {worst_work:.1e} (work bound)")


def test_criterion_09_kl_monotonicity():
    rng = np.random.default_rng(80_000)
    worst = math.inf
    for k in range(1000):
        n = 2 + k % 15
        entries = rng.uniform(size=(n, n))
        if k % 2:
            # sparsify: arbitrary left stochastic, far from any Gibbs matrix
            entries[entries < 0.4] = 0.0
            entries[0, entries.sum(axis=0) == 0.0] = 1.0
        T = nt.TransitionMatrix(entries / entries.sum(axis=0))
        p = positive_distribution(rng, n)
        p0 = positive_distribution(rng, n)
        worst = min(worst, nt.kl_monotonicity_check(T, p, p0).slack)
    assert worst >= -1e-12
    announce(9, f"1000 contraction checks, worst slack {worst:.1e}")


def test_criterion_10_byte_identical_verify_reports():
    command = [sys.executable, "-m", "nlsthermo.cli",
               "verify", "--random", "4", "--seed", "42"]
    first = subprocess.run(command, capture_output=True)
    second = subprocess.run(command, capture_output=True)
    assert first.returncode == 0
    assert second.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["overall_pass"] is True
    announce(10, f"two runs, {len(first.stdout)} bytes of JSON, identical")
