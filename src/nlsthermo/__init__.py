"""Stochastic thermodynamics of a finite N-level system coupled to a heat bath.

The package verifies, at double precision and with explicit tolerances, the
exact identities and second-law-like inequalities governing heat and entropy
exchange between a finite system and a bath described only by a transition
matrix with a Gibbs fixed point:

* Gibbs states, left stochastic matrices, two-point measurement statistics,
  entropies and divergences (:mod:`nlsthermo.core`);
* Jarzynski-type J-equations, bounded at every beta by the fixed-point and
  column-sum certification lines, and the Clausius, heat-flow,
  entropy-flow, and KL-contraction inequalities, with
  :func:`~nlsthermo.fluctuation.grid_pass` the one evaluator of a Gibbs
  matrix's per-beta values and the scalar per-beta functions kept as its
  reference (:mod:`nlsthermo.fluctuation`);
* the tangent slope at the bath temperature computed four independent ways
  and compared in one report suite, the cumulant expansion, Newton-cooling
  linearization, and the weak-coupling Clausius equality
  (:mod:`nlsthermo.response`);
* an exactly solvable spin-1 / harmonic-oscillator example with a
  closed-form transition matrix and a time-averaged-dynamics oracle
  (:mod:`nlsthermo.spinboson`);
* seeded random instance generation (:mod:`nlsthermo.genrand`) and a
  command-line interface (:mod:`nlsthermo.cli`).
"""

# each module's ``__all__`` is the one list of its public names
from .core import *  # noqa: F401,F403
from .fluctuation import *  # noqa: F401,F403
from .genrand import *  # noqa: F401,F403
from .response import *  # noqa: F401,F403
from .spinboson import *  # noqa: F401,F403

__version__ = "0.1.0"

#: the only kernel lane; kept as a name because benchmark reports record it
BACKEND = "numpy"
