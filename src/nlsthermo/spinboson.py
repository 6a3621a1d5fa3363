"""Exactly solvable example: a spin-1 coupled to a harmonic oscillator bath.

The three spin levels (m = 1, 0, -1, mapped to matrix indices 0, 1, 2 in that
order) have energies (1, 0, -1).  Coupling to an oscillator in a Gibbs state
at inverse temperature beta0 through a resonant ladder interaction gives,
after time averaging, a 3x3 transition matrix with closed-form entries built
from inverse hyperbolic functions and Lerch's transcendent.  That matrix is a
Gibbs matrix: it holds p0 = (e^-beta0, 1, e^beta0) / (e^-beta0 + 1 + e^beta0)
fixed.

Two independent constructions of the same matrix live here:

* :func:`analytic_transition_matrix` evaluates the closed forms;
* :func:`numerical_transition_matrix` diagonalizes the coupled Hamiltonian's
  invariant blocks as stacked arrays on a truncated oscillator space and
  time-averages exactly through eigenprojector sandwiches.

The resonant ladder lam (S+ a + S- a^dagger) conserves m + n, so for any spin
every invariant block is a Jacobi matrix with a constant diagonal (Jaynes and
Cummings, Proc. IEEE 51, 89, 1963, for spin 1/2).  Its spectrum is simple for
any nonzero coupling, so the time average is a finite sum of projector terms
that does not depend on the coupling strength, which the tests use as a
consistency knob.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import (
    EvaluationError,
    GibbsMatrix,
    InvalidInputError,
    LevelSystem,
    TransitionMatrix,
)
from .fluctuation import grid_pass

__all__ = [
    "SpinBosonParams",
    "DegenerateBlockError",
    "TAIL_TOL",
    "MIN_BETA0",
    "MAX_BETA0",
    "MAX_CUTOFF",
    "fock_cutoff",
    "lerch_phi",
    "spin1_level_system",
    "analytic_transition_matrix",
    "analytic_entries",
    "numerical_transition_matrix",
    "spin1_gibbs_matrix",
    "delta_s_argmax",
]

#: oscillator truncation must leave at most this much Gibbs weight behind
TAIL_TOL = 1e-12

#: minimal eigenvalue separation tolerated inside one invariant block
BLOCK_GAP_TOL = 1e-10

#: largest oscillator cutoff the oracle accepts: fock_cutoff(1e-6), the
#: smallest admitted beta0; the oracle's cost grows linearly with the cutoff
MAX_CUTOFF = 41_446_533
_ORACLE_MIN_BETA0 = 1e-6

#: full blocks per stacked diagonalization, which keeps every array of the
#: oracle O(chunk levels^2) for any beta0
_CHUNK = 1024

#: betas per bracket round of :func:`delta_s_argmax`; each round shrinks the
#: bracket to 2 of its 32 intervals
_ARGMAX_POINTS = 33

#: smallest beta0 whose closed-form entries all evaluate: from 2^-52 down,
#: e^{beta0/2} rounds to 1 and atanh(e^{-beta0/2}) diverges
MIN_BETA0 = math.nextafter(sys.float_info.epsilon, math.inf)

#: largest beta0 whose closed-form entries are all finite: one ulp below
#: (log(DBL_MAX) - log 32) / 3, where t33's denominator 32 e^{3 beta0} overflows
MAX_BETA0 = math.nextafter((math.log(sys.float_info.max) - math.log(32.0)) / 3.0, 0.0)


class DegenerateBlockError(EvaluationError):
    """Raised when eigenvalues inside one invariant block collide, which
    would make the time average ill-defined.  Cannot happen for a nonzero
    coupling."""


def fock_cutoff(beta0: float) -> int:
    """Smallest oscillator cutoff n with exp(-beta0 n) / (1 - exp(-beta0))
    <= ``TAIL_TOL``; one above ``MAX_CUTOFF`` is an input error."""
    beta0 = float(beta0)
    if not (beta0 > 0.0) or not math.isfinite(beta0):
        raise InvalidInputError("beta0 must be positive and finite")
    cutoff = -(math.log(TAIL_TOL) + math.log(-math.expm1(-beta0))) / beta0
    if cutoff > MAX_CUTOFF:
        raise InvalidInputError(
            f"beta0 = {beta0!r} needs an oscillator cutoff above MAX_CUTOFF = "
            f"{MAX_CUTOFF}; the oracle admits beta0 >= {_ORACLE_MIN_BETA0:g}")
    return max(1, math.ceil(cutoff))


@dataclass(frozen=True)
class SpinBosonParams:
    """Bath inverse temperature and coupling strength; the oscillator cutoff
    ``n_max`` is derived, read-only, as :func:`fock_cutoff` of ``beta0``,
    the smallest one whose truncation tail stays below ``TAIL_TOL``."""

    beta0: float
    lam: float = 1.0
    n_max: int = field(init=False)

    def __post_init__(self):
        beta0, lam = float(self.beta0), float(self.lam)
        if not math.isfinite(lam) or lam == 0.0:
            raise InvalidInputError("coupling must be nonzero and finite")
        object.__setattr__(self, "beta0", beta0)
        object.__setattr__(self, "lam", lam)
        # also rejects a beta0 not positive and finite, or one below the oracle's range
        object.__setattr__(self, "n_max", fock_cutoff(beta0))


#: terms of both series in :func:`lerch_phi` (coefficients 4/(2k+3)^2, 1/(2k+1)^2)
_TERMS = np.arange(40.0)
_DIRECT = 4.0 / (2.0 * _TERMS + 3.0) ** 2
_CHI = 1.0 / (2.0 * _TERMS + 1.0) ** 2
#: largest z at which :func:`lerch_phi` sums its series directly
_DIRECT_MAX_Z = 0.4


def lerch_phi(z: float) -> float:
    """Lerch's transcendent Phi(z, 2, 3/2) = sum_k z^k / (k + 3/2)^2 on
    0 <= z < 1, the one case the closed form needs, from 40 terms.

    Up to z = 0.4 the series is summed directly.  Above, with r = sqrt(z),
    Phi = 4 r^-3 (chi_2(r) - r) for Legendre's chi function
    chi_2(r) = sum_k r^(2k+1) / (2k+1)^2, and the reflection
    chi_2(r) = pi^2/8 - ln x ln r / 2 - chi_2(x), x = (1 - r)/(1 + r) < 0.23
    (L. Lewin, *Polylogarithms and Associated Functions*, 1981, ch. 1),
    leaves a series in x^2 < 0.051.  Both stay within 6e-15 relative.
    """
    z = float(z)
    if not 0.0 <= z < 1.0:
        raise InvalidInputError(f"lerch_phi requires 0 <= z < 1; got {z!r}")
    if z <= _DIRECT_MAX_Z:
        return float(z ** _TERMS @ _DIRECT)
    r = math.sqrt(z)
    x = (1.0 - z) / (1.0 + r) ** 2
    chi_x = x * float((x * x) ** _TERMS @ _CHI)
    excess = math.pi ** 2 / 8.0 - 1.0 + (1.0 - r) - 0.25 * math.log(x) * math.log(z) - chi_x
    return 4.0 * excess / (r * z)  # excess = chi_2(r) - r


def spin1_level_system() -> LevelSystem:
    """The three spin levels in (m = 1, 0, -1) order: energies (1, 0, -1),
    all nondegenerate."""
    return LevelSystem(np.array([1.0, 0.0, -1.0]), np.array([1, 1, 1]))


def analytic_transition_matrix(beta0: float) -> TransitionMatrix:
    """:func:`analytic_entries` as a :class:`TransitionMatrix`; raises
    :class:`CertificationError` where rounding breaks a rule (beta0 >~ 10.2)."""
    return TransitionMatrix(analytic_entries(beta0))


def analytic_entries(beta0: float) -> np.ndarray:
    """Closed-form 3x3 transition matrix entries of the spin-oscillator example.

    Index order (1, 0, -1) for both rows and columns.  The middle entry is
    exactly 1/2 for every bath temperature.  coth^-1(e^{beta0/2}) equals
    atanh(e^{-beta0/2}) on this domain, so one inverse hyperbolic function
    covers all entries.  Defined for :data:`MIN_BETA0` <= beta0 <=
    :data:`MAX_BETA0`: below, atanh diverges; above, the entries overflow.
    """
    beta0 = float(beta0)
    if not MIN_BETA0 <= beta0 <= MAX_BETA0:
        raise InvalidInputError(
            f"beta0 must lie in [MIN_BETA0 = {MIN_BETA0!r}, MAX_BETA0 = {MAX_BETA0!r}], "
            f"where the closed form's entries are finite; got {beta0!r}")
    x = math.exp(beta0)
    h = math.exp(0.5 * beta0)
    u = math.atanh(1.0 / h)
    s = math.sinh(0.5 * beta0)
    phi = lerch_phi(math.exp(-beta0))

    t11 = (x - 1.0) / 32.0 * (12.0 / (x - 1.0) + 8.0 * h * u + 3.0 / x * phi - 8.0)
    t12 = 0.25 * (1.0 - 2.0 * s * u)
    t13 = 3.0 / 32.0 * math.exp(-3.0 * beta0) * (4.0 * x - (x - 1.0) * phi)
    t21 = 0.25 * x * (1.0 - 2.0 * s * u)
    t22 = 0.5
    t23 = 0.25 * math.exp(-1.5 * beta0) * (h + (x - 1.0) * u)
    t31 = 3.0 / 32.0 * math.exp(-beta0) * (4.0 * x - (x - 1.0) * phi)
    t32 = 0.25 * (2.0 * s * u + 1.0)
    t33 = (4.0 * x * x * (11.0 * math.sinh(beta0) + 5.0 * math.cosh(beta0)
                          - 4.0 * s * u - 2.0)
           + 3.0 * (x - 1.0) * phi) / (32.0 * x ** 3)
    return np.array([[t11, t12, t13], [t21, t22, t23], [t31, t32, t33]])


def spin1_gibbs_matrix(beta0: float) -> GibbsMatrix:
    """Certified Gibbs matrix of the example at the given bath temperature."""
    return GibbsMatrix(analytic_transition_matrix(beta0),
                       spin1_level_system(), beta0)


# ---------------------------------------------------------------------------
# time-averaged dynamics oracle
# ---------------------------------------------------------------------------

def _block_mixture(blocks: np.ndarray) -> np.ndarray:
    """Within-block transition kernels of the exact time average for a
    stack of real symmetric blocks, or one, each at least 2 x 2:
    eigenprojector sandwiches M[j,i] = sum_k V[i,k]^2 V[j,k]^2, valid only
    for a simple spectrum, so near-collisions are rejected."""
    evals, vecs = np.linalg.eigh(blocks)
    if np.diff(evals, axis=-1).min() < BLOCK_GAP_TOL:
        raise DegenerateBlockError(
            f"block eigenvalues closer than {BLOCK_GAP_TOL:g}; "
            "time average is ill-defined")
    w = vecs * vecs
    return w @ np.swapaxes(w, -1, -2)


def _ladder_blocks(levels: int, n0: np.ndarray, lam: float) -> np.ndarray:
    """Stack of invariant blocks of a spin with ``levels`` = 2s + 1 levels
    (index i <-> m = s - i) on the resonant ladder lam (S+ a + S- a^dagger).
    The block with top oscillator index n0 spans the states |i, n0 + i> with
    n0 + i >= 0: every n0 of one stack must start at the same i.  Its
    diagonal is the constant energy s + n0 + 1/2, its couplings between
    i - 1 and i are lam sqrt(i (levels - i)) sqrt(n0 + i)."""
    i = np.arange(max(1, 1 - int(n0[0])), levels)  # the lower state of each coupling
    k = np.arange(i.size + 1)
    blocks = np.zeros((n0.size, k.size, k.size))
    blocks[:, k, k] = (0.5 * levels + n0)[:, None]
    # formed as (coupling, block), so each ufunc loop runs along the stack
    blocks[:, k[1:], k[:-1]] = blocks[:, k[:-1], k[1:]] = lam * np.sqrt(
        (i * (levels - i))[:, None] * (n0 + i[:, None])).T
    return blocks


def _ladder_oracle(levels: int, params: SpinBosonParams) -> np.ndarray:
    """Transition matrix of a spin with ``levels`` levels (energies s - i)
    from exactly time-averaged unitary dynamics.

    Initial states are products of a spin level with the truncated,
    renormalized oscillator Gibbs distribution; each lies in one block:
    ``levels - 2`` partial ones (n0 = 2 - levels .. -1; the 1 x 1 block
    n0 = 1 - levels adds only to the diagonal), then n0 = 0 .. n_max in
    stacks of ``_CHUNK``.  The kernels weighted by the occupation give the
    downhill entries T[j, i], j > i.  The kernels are symmetric, so the uphill
    entries are T[i, j] = T[j, i] e^{-beta0 (j - i)} exactly, and unit column
    sums give the diagonal: the fixed point holds relatively, at any beta0.
    """
    n_max, beta0 = params.n_max, params.beta0
    # oscillator occupation e^{-beta0 k} / Z of the Gibbs state truncated at n_max
    norm = math.expm1(-beta0) / math.expm1(-beta0 * (n_max + 1))
    partial = (np.array([n0]) for n0 in range(2 - levels, 0))
    full = (np.arange(lo, min(lo + _CHUNK, n_max + 1)) for lo in range(0, n_max + 1, _CHUNK))
    t = np.zeros((levels, levels))
    for n0 in itertools.chain(partial, full):
        kernels = _block_mixture(_ladder_blocks(levels, n0, params.lam))
        first = levels - kernels.shape[-1]
        osc = n0[:, None] + np.arange(first, levels)
        weights = np.where(osc <= n_max, norm * np.exp(-beta0 * osc), 0.0)
        t[first:, first:] += np.einsum("bji,bi->ji", kernels, weights)
    i = np.arange(levels)
    t = np.tril(t, -1)
    t += t.T * np.exp(-beta0 * np.abs(i[:, None] - i))
    t[i, i] = 1.0 - t.sum(axis=0)
    return t


def numerical_transition_matrix(params: SpinBosonParams) -> TransitionMatrix:
    """The example's matrix from time-averaged dynamics: the three-level
    :func:`_ladder_oracle`, bit for bit the same on every run and independent
    of the coupling ``params.lam``."""
    return TransitionMatrix(_ladder_oracle(3, params))


# ---------------------------------------------------------------------------
# entropy-transfer extremum
# ---------------------------------------------------------------------------

def delta_s_argmax(beta0: float) -> float:
    """Inverse temperature in (0, beta0) maximizing |<dS>|.

    Each round evaluates |<dS>| of a Gibbs initial state at
    ``_ARGMAX_POINTS`` evenly spaced betas of the bracket, starting from
    [0, beta0], in one :func:`~nlsthermo.fluctuation.grid_pass`, and keeps
    the two neighbours of the sampled maximum as the next bracket; once the
    bracket is below 1e-6 its midpoint is returned.  A unimodal |<dS>| keeps
    its maximizer inside every bracket; when no interior extremum exists the
    bracket closes on the better boundary.
    """
    G = spin1_gibbs_matrix(beta0)  # rejects a beta0 outside the closed form's range
    lo, hi = 0.0, G.beta0
    while hi - lo > 1e-6:
        betas = np.linspace(lo, hi, _ARGMAX_POINTS)
        i = int(np.argmax(np.abs(grid_pass(G, betas).ds)))
        lo, hi = float(betas[max(i - 1, 0)]), float(betas[min(i + 1, _ARGMAX_POINTS - 1)])
    return 0.5 * (lo + hi)
