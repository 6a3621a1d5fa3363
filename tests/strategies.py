"""The instance families the differential tests share: Hypothesis strategies,
each drawing ``(system, raw transition matrix, beta0)`` to be certified by
the test that uses it, and ``EXACT_CASES``, fixed certified instances of the
same families for the 50-digit references."""

import mpmath
import numpy as np
import pytest
from hypothesis import strategies as st

from nlsthermo.core import GibbsMatrix, LevelSystem, TransitionMatrix
from nlsthermo.genrand import random_gibbs_instance
from nlsthermo.spinboson import (SpinBosonParams, _ladder_oracle, analytic_entries,
                                 spin1_gibbs_matrix, spin1_level_system)


def metropolis_entries(system, beta0):
    """A Metropolis chain (Metropolis et al., J. Chem. Phys. 21, 1953) with a
    uniform proposal: T[m, n] = min(1, p0_m / p0_n) / N off the diagonal,
    which holds the Gibbs state fixed by detailed balance."""
    n = system.size
    log_w = np.log(system.degeneracy_weights()) - beta0 * system.energies
    t = np.exp(np.minimum(0.0, log_w[:, None] - log_w[None, :])) / n
    np.fill_diagonal(t, 0.0)
    t[np.diag_indices(n)] = 1.0 - t.sum(axis=0)
    return t


@st.composite
def metropolis_instances(draw):
    """(system, T, beta0) of a :func:`metropolis_entries` chain."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    beta0 = draw(st.floats(1e-2, 30.0))
    spread = draw(st.floats(1e-2, 1e2))
    system = LevelSystem(spread * rng.uniform(size=n), rng.integers(1, 5, size=n))
    return system, metropolis_entries(system, beta0), beta0


def random_instances():
    return st.builds(random_gibbs_instance, st.integers(2, 8), st.integers(0, 10_000)).map(
        lambda G: (G.system, G.matrix.entries, G.beta0))


def spin1_instances():
    return st.builds(lambda beta0: (spin1_level_system(), analytic_entries(beta0), beta0),
                     st.floats(1e-3, 10.0))


def ladder_system(levels):
    """The levels of a spin s = (levels - 1)/2 in (m = s, ..., -s) order:
    energies m, all nondegenerate."""
    return LevelSystem((levels - 1) / 2 - np.arange(levels), np.ones(levels, dtype=int))


def ladder_instances():
    """The spin-oscillator ladder's oracle matrix for spins 1/2 to 7/2, a
    physical family with N > 3 (a few ms per draw)."""
    return st.builds(
        lambda levels, beta0: (ladder_system(levels),
                               _ladder_oracle(levels, SpinBosonParams(beta0)), beta0),
        st.integers(2, 8), st.floats(0.1, 10.0))


def _shell_kernel(size, rng, haar):
    """|<f|U|i>|^2 on one energy shell: a Haar unitary, the QR of a complex
    Gaussian with the phase fix (F. Mezzadri, Notices AMS 54, 592, 2007), or
    the exact time average of a random real symmetric H, sum_k V[f,k]^2 V[i,k]^2."""
    if haar:
        q, r = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
        return np.abs(q * (np.diag(r) / np.abs(np.diag(r))))**2
    a = rng.normal(size=(size, size))
    w = np.linalg.eigh(a + a.T)[1]**2
    return w @ w.T


def thermal_entries(system, beta0, bath_levels, rng, haar):
    """A thermal operation: the system with integer energies meets a bath
    ladder with energies 0 .. bath_levels - 1 in its Gibbs state g at beta0,
    and each total-energy shell evolves by a :func:`_shell_kernel`.  Then
    T[j, i] = (1/d_i) sum |<j beta a|U|i alpha b>|^2 g_b, and T p0 = p0 by
    unitarity alone; the time average also keeps detailed balance."""
    level = np.repeat(np.arange(system.size), system.degeneracies)
    bath = np.arange(bath_levels)
    g = np.exp(-beta0 * bath) / np.exp(-beta0 * bath).sum()
    total = (system.energies[level][:, None] + bath).ravel()
    kernel = np.zeros((total.size, total.size))
    for shell in np.unique(total):
        at = np.flatnonzero(total == shell)
        kernel[np.ix_(at, at)] = _shell_kernel(at.size, rng, haar)
    onehot = np.repeat(np.eye(system.size)[level], bath_levels, axis=0)
    t = onehot.T @ (kernel * np.tile(g, level.size)) @ onehot
    return t / system.degeneracy_weights()


def thermal_draw(seed, haar, bath_levels=None, unit=False):
    """(system, T, beta0) of :func:`thermal_entries` from one seed: N = 2-6
    levels with energies 0-3 and degeneracies 1-3 (1 if ``unit``), beta0 in
    [0.05, 5], and a bath of 4-12 levels unless ``bath_levels`` is given."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    beta0 = rng.uniform(0.05, 5.0)
    degeneracies = np.ones(n, dtype=int) if unit else rng.integers(1, 4, size=n)
    system = LevelSystem(rng.integers(0, 4, size=n), degeneracies)
    levels = int(rng.integers(4, 13)) if bath_levels is None else bath_levels
    return system, thermal_entries(system, beta0, levels, rng, haar), beta0


def thermal_instances():
    """Both variants of :func:`thermal_draw`, Haar and time average."""
    return st.builds(thermal_draw, st.integers(0, 2**32 - 1), st.booleans())


def lift(system, t):
    """The same instance with each level of degeneracy d split into d unit
    levels: T_lift[(m, a), (n, b)] = T[m, n] / d_m."""
    level = np.repeat(np.arange(system.size), system.degeneracies)
    return (LevelSystem(system.energies[level], np.ones(level.size, dtype=int)),
            t[np.ix_(level, level)] / system.degeneracy_weights()[level][:, None])


def exact_gibbs(system, beta):
    """The Gibbs state at ``beta`` in the working precision of mpmath."""
    w = [int(d) * mpmath.exp(-beta * mpmath.mpf(float(e)))
         for e, d in zip(system.energies, system.degeneracies)]
    z = mpmath.fsum(w)
    return [x / z for x in w]


def metropolis_gibbs_matrix(n, seed):
    rng = np.random.default_rng(seed)
    system = LevelSystem(3.0 * rng.uniform(size=n), rng.integers(1, 5, size=n))
    return GibbsMatrix(TransitionMatrix(metropolis_entries(system, 2.0)), system, 2.0)


def thermal_gibbs_matrix(seed, haar, **options):
    system, raw, beta0 = thermal_draw(seed, haar, **options)
    return GibbsMatrix(TransitionMatrix(raw), system, beta0)


#: builders of certified Gibbs matrices: random N = 2-6 x seeds 0-2, spin1 at
#: five beta0, the ladder oracle for L = 2-6 levels, three Metropolis chains
#: and three thermal operations (time average, Haar, and one bath level)
EXACT_CASES = (
    [pytest.param(lambda n=n, s=s: random_gibbs_instance(n, s), id=f"random-{n}-{s}")
     for n in range(2, 7) for s in range(3)]
    + [pytest.param(lambda b=b: spin1_gibbs_matrix(b), id=f"spin1-{b:g}")
       for b in (1e-3, 0.1, 1.0, 5.0, 10.0)]
    + [pytest.param(lambda L=L: GibbsMatrix(
        TransitionMatrix(_ladder_oracle(L, SpinBosonParams(beta0=1.0))), ladder_system(L), 1.0),
        id=f"ladder-{L}") for L in range(2, 7)]
    + [pytest.param(lambda n=n, s=s: metropolis_gibbs_matrix(n, s), id=f"metropolis-{n}-{s}")
       for n, s in ((3, 0), (5, 1), (6, 2))]
    + [pytest.param(lambda s=s, h=h, o=o: thermal_gibbs_matrix(s, h, **o), id=f"thermal-{name}")
       for s, h, o, name in ((0, False, {}, "average"), (1, True, {}, "haar"),
                             (2, True, {"bath_levels": 1, "unit": True}, "bistochastic"))]
)
