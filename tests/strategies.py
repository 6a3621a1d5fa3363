"""Hypothesis strategies for the instance families the differential tests
share: each draws ``(system, raw transition matrix, beta0)``, to be certified
by the test that uses it."""

import numpy as np
from hypothesis import strategies as st

from nlsthermo.core import LevelSystem
from nlsthermo.genrand import random_gibbs_instance
from nlsthermo.spinboson import (SpinBosonParams, _ladder_oracle, analytic_entries,
                                 spin1_level_system)


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
