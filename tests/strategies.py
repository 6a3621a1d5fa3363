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


#: builders of certified Gibbs matrices: random N = 2-6 x seeds 0-2, spin1 at
#: five beta0, the ladder oracle for L = 2-6 levels and three Metropolis chains
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
)
