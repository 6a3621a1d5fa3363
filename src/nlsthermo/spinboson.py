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
* :func:`numerical_transition_matrix` diagonalizes the coupled Hamiltonian
  block by block on a truncated oscillator space and time-averages exactly
  through eigenprojector sandwiches.

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
    "MAX_BETA0",
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

#: iteration guard of the direct Lerch series
_MAX_SERIES_TERMS = 10_000_000

#: largest beta0 whose closed-form entries are all finite: one ulp below
#: (log(DBL_MAX) - log 32) / 3, where t33's denominator 32 e^{3 beta0} overflows
MAX_BETA0 = math.nextafter((math.log(sys.float_info.max) - math.log(32.0)) / 3.0, 0.0)


class DegenerateBlockError(ArithmeticError):
    """Raised when eigenvalues inside one invariant block collide, which
    would make the time average ill-defined.  Cannot happen for a nonzero
    coupling."""


def fock_cutoff(beta0: float) -> int:
    """Smallest oscillator cutoff n with
    exp(-beta0 n) / (1 - exp(-beta0)) <= ``TAIL_TOL``."""
    beta0 = float(beta0)
    if not (beta0 > 0.0) or not math.isfinite(beta0):
        raise InvalidInputError("beta0 must be positive and finite")
    bound = math.log(TAIL_TOL) + math.log1p(-math.exp(-beta0))
    return max(1, int(math.ceil(-bound / beta0)))


@dataclass(frozen=True)
class SpinBosonParams:
    """Bath inverse temperature, coupling strength, and oscillator cutoff.

    ``n_max=None`` picks the smallest cutoff satisfying the geometric tail
    bound; an explicit cutoff must satisfy it too, so truncation error stays
    below the comparison tolerances used downstream.
    """

    beta0: float
    lam: float = 1.0
    n_max: int | None = None

    def __post_init__(self):
        beta0 = float(self.beta0)
        lam = float(self.lam)
        if not math.isfinite(beta0) or beta0 <= 0.0:
            raise InvalidInputError("beta0 must be positive and finite")
        if not math.isfinite(lam) or lam == 0.0:
            raise InvalidInputError("coupling must be nonzero and finite")
        n_max = fock_cutoff(beta0) if self.n_max is None else int(self.n_max)
        if n_max < 1:
            raise InvalidInputError("n_max must be a positive integer")
        tail = math.exp(-beta0 * n_max) / -math.expm1(-beta0)
        if tail > TAIL_TOL:
            raise InvalidInputError(
                f"truncation tail {tail:.3e} exceeds {TAIL_TOL:g}; "
                f"raise n_max to at least {fock_cutoff(beta0)}")
        object.__setattr__(self, "beta0", beta0)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "n_max", n_max)


def triplet_block(n: int, lam: float) -> np.ndarray:
    """Hamiltonian of the n-th three-dimensional invariant block, spanned by
    |1, n-1>, |0, n>, |-1, n+1>: diagonal n + 1/2 and couplings
    lam sqrt(2n), lam sqrt(2n + 2)."""
    if n < 1:
        raise InvalidInputError("triplet index starts at 1")
    lam = float(lam)
    a = lam * math.sqrt(2.0 * n)
    b = lam * math.sqrt(2.0 * n + 2.0)
    diag = n + 0.5
    matrix = np.array([
        [diag, a, 0.0],
        [a, diag, b],
        [0.0, b, diag],
    ])
    matrix.setflags(write=False)
    return matrix


def triplet_eigenvalues(n: int, lam: float) -> np.ndarray:
    """Closed-form block spectrum {n + 1/2, n + 1/2 +/- lam sqrt(4n + 2)},
    sorted ascending for lam > 0."""
    center = n + 0.5
    split = float(lam) * math.sqrt(4.0 * n + 2.0)
    return np.sort(np.array([center - split, center, center + split]))


def lerch_phi(z: float, s: float, a: float) -> float:
    """Lerch's transcendent Phi(z, s, a) = sum_k z^k / (k + a)^s for |z| < 1,
    a > 0, by direct series summation.

    Stops once the latest term drops below 1e-16 of the running sum (after at
    least 10 terms); raises :class:`EvaluationError` when the sum is not
    finite or the iteration guard is exhausted.
    """
    z = float(z)
    s = float(s)
    a = float(a)
    if not (abs(z) < 1.0):
        raise InvalidInputError("lerch_phi requires |z| < 1")
    if not (a > 0.0):
        raise InvalidInputError("lerch_phi requires a > 0")
    acc = 0.0
    zk = 1.0
    for k in range(_MAX_SERIES_TERMS):
        term = zk / (k + a) ** s
        acc += term
        if k >= 10 and abs(term) <= 1e-16 * abs(acc):
            break
        zk *= z
    else:
        acc = float("nan")
    if not math.isfinite(acc):
        raise EvaluationError("Lerch series did not converge")
    return acc


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
    covers all entries.  Defined for 0 < beta0 <= :data:`MAX_BETA0`, past
    which they overflow.
    """
    beta0 = float(beta0)
    if not 0.0 < beta0 <= MAX_BETA0:
        raise InvalidInputError(
            f"beta0 must lie in (0, MAX_BETA0 = {MAX_BETA0!r}], where the closed "
            f"form's entries are finite; got {beta0!r}")
    x = math.exp(beta0)
    h = math.exp(0.5 * beta0)
    u = math.atanh(1.0 / h)
    s = math.sinh(0.5 * beta0)
    phi = lerch_phi(math.exp(-beta0), 2.0, 1.5)

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

def _block_mixture(block: np.ndarray) -> np.ndarray:
    """Within-block transition kernel of the exact time average.

    Diagonalizes the real symmetric block and sums eigenprojector sandwiches,
    M[j,i] = sum_k V[i,k]^2 V[j,k]^2; valid only for a simple spectrum, so
    near-collisions are rejected.
    """
    evals, vecs = np.linalg.eigh(block)
    if block.shape[0] > 1 and np.min(np.diff(evals)) < BLOCK_GAP_TOL:
        raise DegenerateBlockError(
            f"block eigenvalues closer than {BLOCK_GAP_TOL:g}; "
            "time average is ill-defined")
    w = vecs * vecs
    return w @ w.T


def numerical_transition_matrix(params: SpinBosonParams) -> TransitionMatrix:
    """Transition matrix from exactly time-averaged unitary dynamics.

    Initial states are products of a spin level with the truncated,
    renormalized oscillator Gibbs distribution.  Each product basis state
    lives in exactly one invariant block (singlet, doublet, or triplet);
    summing the within-block kernels weighted by the oscillator occupation
    gives the 3x3 spin transition matrix.  Block accumulation runs in a fixed
    index order, so results are bit-stable.

    The result does not depend on the coupling strength in
    ``params.lam``; time averaging removes it.
    """
    n_max = params.n_max
    weights = np.exp(-params.beta0 * np.arange(n_max + 1, dtype=float))
    occupation = weights / weights.sum()

    t = np.zeros((3, 3))

    def accumulate(block: np.ndarray, positions) -> None:
        # positions: (spin index, oscillator index) per block basis vector
        mixture = _block_mixture(block)
        for i, (spin_i, osc_i) in enumerate(positions):
            if osc_i > n_max:
                continue
            for j, (spin_j, _) in enumerate(positions):
                t[spin_j, spin_i] += occupation[osc_i] * mixture[j, i]

    # singlet |-1, 0>: the interaction annihilates it
    accumulate(np.array([[0.5]]), [(2, 0)])
    # doublet {|0, 0>, |-1, 1>}
    coupling = params.lam * math.sqrt(2.0)
    accumulate(np.array([[0.5, coupling], [coupling, 0.5]]), [(1, 0), (2, 1)])
    # triplets up to n_max + 1 so every kept initial state has its full block
    for n in range(1, n_max + 2):
        accumulate(triplet_block(n, params.lam), [(0, n - 1), (1, n), (2, n + 1)])
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
    beta0 = float(beta0)
    if not math.isfinite(beta0) or beta0 <= 0.0:
        raise InvalidInputError("beta0 must be positive and finite")
    G = spin1_gibbs_matrix(beta0)

    def magnitude(beta: float) -> float:
        return abs(heat_and_entropy_change(G, beta)[1])

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, beta0
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
