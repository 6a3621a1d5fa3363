"""Seeded generation of random Gibbs-matrix instances.

Any left stochastic matrix has a stationary distribution; when its entries
are distinct and positive, setting ``E_n = -log p0_n`` turns the matrix into
a Gibbs matrix at beta0 = 1 with unit degeneracies.  That construction is
what these generators produce, and it is exactly the shape of instance the
sweep and verification commands consume.

All randomness flows through ``numpy.random.default_rng`` with one stream
per instance draw, so identical (n, seed) pairs give byte-identical results.
"""

from __future__ import annotations

import numpy as np

from .core import (
    EvaluationError,
    GibbsMatrix,
    InvalidInputError,
    LevelSystem,
    ProbabilityVector,
    TransitionMatrix,
)

__all__ = [
    "MultiplicityError",
    "GenerationError",
    "random_stochastic",
    "stationary_distribution",
    "random_gibbs_instance",
]

#: stationary entries must be pairwise separated and bounded away from zero
DISTINCTNESS = 1e-6

#: rejection-sampling budget per instance; exhausted for 10 of seeds 0-39 at
#: n = 96 and for all 40 at n = 128
MAX_ATTEMPTS = 100


class MultiplicityError(EvaluationError):
    """Raised when a transition matrix has more than one stationary
    distribution (rank deficiency beyond the single expected null direction)."""


class GenerationError(EvaluationError):
    """Raised when rejection sampling exhausts its attempt budget."""


def _column_stochastic(n: int, rng: np.random.Generator) -> np.ndarray:
    entries = rng.uniform(size=(n, n))
    return entries / entries.sum(axis=0)


def random_stochastic(n: int, seed) -> TransitionMatrix:
    """Left stochastic matrix with i.i.d. uniform(0, 1) entries, columns
    normalized.  Deterministic given the seed."""
    if n < 2:
        raise InvalidInputError("need n >= 2")
    return TransitionMatrix(_column_stochastic(n, np.random.default_rng(seed)))


def stationary_distribution(T: TransitionMatrix) -> ProbabilityVector:
    """The distribution with T p = p, by a direct linear solve.

    The rows of T - 1 always sum to zero, so replacing one row with the
    normalization constraint gives a square system that is nonsingular
    exactly when the fixed point is unique; uniqueness itself is checked
    first through the two smallest singular values.
    """
    n = T.size
    deficit = T.entries - np.eye(n)
    singulars = np.linalg.svd(deficit, compute_uv=False)
    if singulars[-2] <= 1e-10 * max(1.0, float(singulars[0])):
        raise MultiplicityError(
            "stationary distribution is not unique (second null direction)")
    bordered = deficit.copy()
    bordered[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    p = np.linalg.solve(bordered, rhs)
    residual = float(np.abs(T.entries @ p - p).max())
    if residual > 1e-12:
        raise EvaluationError(
            f"stationary solve left residual {residual:.3e}")
    p = np.clip(p, 0.0, 1.0)
    return ProbabilityVector(p / p.sum())


def random_gibbs_instance(n: int, seed) -> GibbsMatrix:
    """Draw matrices until the stationary entries are positive and pairwise
    distinct, then set E_n = -log p0_n so the matrix is a Gibbs matrix at
    beta0 = 1 with unit degeneracies; construction certifies it.

    One generator stream serves all attempts of one draw, so the result is
    deterministic in (n, seed).  The Gibbs state of the returned system at
    beta0 = 1 reproduces the stationary distribution by construction.
    """
    if n < 2:
        raise InvalidInputError("need n >= 2")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_ATTEMPTS):
        matrix = TransitionMatrix(_column_stochastic(n, rng))
        try:
            p0 = stationary_distribution(matrix)
        except MultiplicityError:
            continue
        w = p0.weights
        if float(w.min()) < DISTINCTNESS:
            continue
        if float(np.diff(np.sort(w)).min()) < DISTINCTNESS:
            continue
        system = LevelSystem(-np.log(w), np.ones(n, dtype=np.int64))
        return GibbsMatrix(matrix, system, 1.0)
    raise GenerationError(
        f"no acceptable instance in {MAX_ATTEMPTS} draws for n={n}, seed={seed}")
