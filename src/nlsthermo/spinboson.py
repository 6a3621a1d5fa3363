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

The invariant blocks are one singlet (the bottom state, annihilated by the
interaction), one doublet, and a ladder of triplets; within each block the
spectrum is simple for any nonzero coupling, which makes the time average a
finite sum of projector terms.  The construction is independent of the
coupling strength, which the tests use as a consistency knob.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    EvaluationError,
    GibbsMatrix,
    InvalidInputError,
    LevelSystem,
    TransitionMatrix,
)
from .fluctuation import heat_and_entropy_change

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
    "triplet_block",
    "triplet_eigenvalues",
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

#: triplet blocks per stacked diagonalization, which keeps every array O(chunk)
_CHUNK = 1024

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
    """Bath inverse temperature, coupling strength, and oscillator cutoff.

    ``n_max=None`` picks the smallest cutoff satisfying the geometric tail
    bound; an explicit cutoff must satisfy it too, so truncation error stays
    below the comparison tolerances used downstream.  Neither may exceed
    ``MAX_CUTOFF``, which bounds the oracle's time.
    """

    beta0: float
    lam: float = 1.0
    n_max: int | None = None

    def __post_init__(self):
        beta0 = float(self.beta0)
        lam = float(self.lam)
        if not math.isfinite(lam) or lam == 0.0:
            raise InvalidInputError("coupling must be nonzero and finite")
        needed = fock_cutoff(beta0)  # also rejects a beta0 not positive and finite
        n_max = needed if self.n_max is None else int(self.n_max)
        if not needed <= n_max <= MAX_CUTOFF:
            raise InvalidInputError(
                f"n_max = {n_max} must lie in [{needed}, MAX_CUTOFF = {MAX_CUTOFF}]: "
                f"a smaller cutoff leaves a truncation tail above {TAIL_TOL:g}")
        object.__setattr__(self, "beta0", beta0)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "n_max", n_max)


def triplet_block(n, lam: float) -> np.ndarray:
    """Hamiltonian of the n-th three-dimensional invariant block, spanned by
    |1, n-1>, |0, n>, |-1, n+1>: diagonal n + 1/2 and couplings
    lam sqrt(2n), lam sqrt(2n + 2).  An array of n gives the stack of blocks,
    shape n.shape + (3, 3)."""
    n = np.asarray(n, dtype=float)
    if (n < 1).any():
        raise InvalidInputError("triplet index starts at 1")
    blocks = np.zeros(n.shape + (3, 3))
    blocks[..., [0, 1, 2], [0, 1, 2]] = (n + 0.5)[..., None]
    blocks[..., 0, 1] = blocks[..., 1, 0] = lam * np.sqrt(2.0 * n)
    blocks[..., 1, 2] = blocks[..., 2, 1] = lam * np.sqrt(2.0 * n + 2.0)
    blocks.setflags(write=False)
    return blocks


def triplet_eigenvalues(n: int, lam: float) -> np.ndarray:
    """Closed-form block spectrum {n + 1/2, n + 1/2 +/- lam sqrt(4n + 2)},
    sorted ascending for lam > 0."""
    center = n + 0.5
    split = float(lam) * math.sqrt(4.0 * n + 2.0)
    return np.sort(np.array([center - split, center, center + split]))


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
    stack of real symmetric blocks (or one): eigenprojector sandwiches
    M[j,i] = sum_k V[i,k]^2 V[j,k]^2, valid only for a simple spectrum, so
    near-collisions are rejected."""
    evals, vecs = np.linalg.eigh(blocks)
    if np.diff(evals, axis=-1).min() < BLOCK_GAP_TOL:
        raise DegenerateBlockError(
            f"block eigenvalues closer than {BLOCK_GAP_TOL:g}; "
            "time average is ill-defined")
    w = vecs * vecs
    return w @ np.swapaxes(w, -1, -2)


def numerical_transition_matrix(params: SpinBosonParams) -> TransitionMatrix:
    """Transition matrix from exactly time-averaged unitary dynamics.

    Initial states are products of a spin level with the truncated,
    renormalized oscillator Gibbs distribution.  Each product basis state
    lives in exactly one invariant block (singlet, doublet, or triplet);
    summing the within-block kernels weighted by the oscillator occupation
    gives the 3x3 spin transition matrix.  The triplets are diagonalized in
    stacks of ``_CHUNK`` blocks, so memory stays O(chunk) for any beta0; the
    stacks add up in a fixed order, so repeated runs agree bit for bit.

    The result does not depend on the coupling strength in
    ``params.lam``; time averaging removes it.
    """
    n_max, beta0 = params.n_max, params.beta0
    # oscillator occupation e^{-beta0 k} / Z of the Gibbs state truncated at n_max
    norm = math.expm1(-beta0) / math.expm1(-beta0 * (n_max + 1))
    t = np.zeros((3, 3))
    # doublet {|0, 0>, |-1, 1>}: equal diagonal, so every kernel entry is 1/2
    t[1:, 1:] = 0.5 * norm * np.exp([0.0, -beta0])
    # singlet |-1, 0>: the interaction annihilates it
    t[2, 2] += norm
    # triplets up to n_max + 1 so every kept initial state has its full block
    for start in range(1, n_max + 2, _CHUNK):
        n = np.arange(start, min(start + _CHUNK, n_max + 2))
        # basis vector i of block n: spin index i, oscillator index n - 1 + i
        osc = n[:, None] + np.arange(-1.0, 2.0)
        weights = np.where(osc <= n_max, norm * np.exp(-beta0 * osc), 0.0)
        t += np.einsum("bji,bi->ji", _block_mixture(triplet_block(n, params.lam)), weights)
    return TransitionMatrix(t)


# ---------------------------------------------------------------------------
# entropy-transfer extremum
# ---------------------------------------------------------------------------

def delta_s_argmax(beta0: float) -> float:
    """Inverse temperature in (0, beta0) maximizing |<dS>|.

    Golden-section search on the magnitude of the entropy change of a Gibbs
    initial state; returns the bracket midpoint once the bracket shrinks
    below 1e-6.  When no interior extremum exists the search simply
    converges to the better boundary.
    """
    G = spin1_gibbs_matrix(beta0)  # rejects a beta0 outside the closed form's range

    def magnitude(beta: float) -> float:
        return abs(heat_and_entropy_change(G, beta)[1])

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, G.beta0
    left = hi - inv_phi * (hi - lo)
    right = lo + inv_phi * (hi - lo)
    f_left = magnitude(left)
    f_right = magnitude(right)
    while hi - lo > 1e-6:
        if f_left > f_right:
            hi, right, f_right = right, left, f_left
            left = hi - inv_phi * (hi - lo)
            f_left = magnitude(left)
        else:
            lo, left, f_left = left, right, f_right
            right = lo + inv_phi * (hi - lo)
            f_right = magnitude(right)
    return 0.5 * (lo + hi)
