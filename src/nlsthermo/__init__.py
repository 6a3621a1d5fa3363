"""Stochastic thermodynamics of a finite N-level system coupled to a heat bath.

The package verifies, at double precision and with explicit tolerances, the
exact identities and second-law-like inequalities governing heat and entropy
exchange between a finite system and a bath described only by a transition
matrix with a Gibbs fixed point:

* Gibbs states, left stochastic matrices, two-point measurement statistics,
  entropies and divergences (:mod:`nlsthermo.core`);
* Jarzynski-type J-equations and the Clausius, heat-flow, entropy-flow, and
  KL-contraction inequalities (:mod:`nlsthermo.fluctuation`);
* the tangent slope at the bath temperature computed four independent ways,
  the cumulant expansion, Newton-cooling linearization, and the
  weak-coupling Clausius equality (:mod:`nlsthermo.response`);
* an exactly solvable spin-1 / harmonic-oscillator example with a
  closed-form transition matrix and a time-averaged-dynamics oracle
  (:mod:`nlsthermo.spinboson`);
* seeded random instance generation (:mod:`nlsthermo.genrand`) and a
  command-line interface (:mod:`nlsthermo.cli`).
"""

from .core import (
    CertificationError,
    EvaluationError,
    GibbsCertificate,
    GibbsMatrix,
    GibbsState,
    InvalidInputError,
    LevelSystem,
    ProbabilityVector,
    TransitionMatrix,
    TwoPointDistribution,
    certify_gibbs_matrix,
    delta_q_rv,
    delta_q_table,
    delta_s_rv,
    delta_s_table,
    entropy,
    expectation,
    gibbs_log_weights,
    instance_from_dict,
    instance_to_dict,
    kl_divergence,
    load_instance,
    make_gibbs_state,
    mean_energy,
    propagate,
    save_instance,
    second_moment_energy,
    two_point_distribution,
)
from .fluctuation import (
    ClausiusBounds,
    InequalityReport,
    bistochastic_work_check,
    clausius_bounds,
    entropy_flow_check,
    general_j_expectation,
    heat_and_entropy_change,
    heat_flow_check,
    j_heat_expectation,
    kl_monotonicity_check,
)
from .genrand import (
    GenerationError,
    MultiplicityError,
    RandomInstance,
    random_gibbs_instance,
    random_stochastic,
    stationary_distribution,
)
from .response import (
    PerturbationGenerator,
    SlopeBundle,
    WeakCouplingFit,
    clausius_equality_residual,
    cumulant_check,
    cumulant_deviation,
    entropy_slope_numeric,
    newton_cooling_coefficient,
    perturbed_matrix,
    random_perturbation,
    slope_bundle,
    slope_direct,
    slope_fluctuation,
    slope_numeric,
    slope_symmetrized,
    weak_coupling_residual,
)
from .spinboson import (
    DegenerateBlockError,
    SpinBosonParams,
    TripletBlock,
    analytic_transition_matrix,
    delta_s_argmax,
    fock_cutoff,
    lerch_phi,
    numerical_transition_matrix,
    spin1_gibbs_matrix,
    spin1_level_system,
    triplet_block,
    triplet_eigenvalues,
)

__version__ = "0.1.0"

#: the only kernel lane; kept as a name because benchmark reports record it
BACKEND = "numpy"
