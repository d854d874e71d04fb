"""Rate certification and ensemble simulation for mean-field kinetic Langevin systems.

The package computes explicit, particle-count-independent exponential
convergence rates for the underdamped Langevin dynamics of N interacting
particles, simulates the dynamics with reproducible counter-based noise
streams, and cross-checks every certified constant against independent
numerical oracles at desk scale.
"""

from .potentials import (
    PotentialSpec,
    ConstantsBundle,
    extract_constants,
    lipschitz_constant,
    lipschitz_from_model,
    convexity_at_infinity_fit,
)
from .meanfield import ModelConfig, total_potential, force, hessian_blocks, hw_opnorm
from .funcineq import (
    GridMeasure,
    kappa_bakry_emery,
    kappa_dissipativity,
    upi_criterion,
    lsi_transfer,
    ulsi_criterion,
    spectral_gap,
)
from .certifier import (
    Certificate,
    certify,
    assemble_constants,
    constants_bounded_grad,
    constants_lsi,
    default_coefficients,
    improved_coefficients,
    build_Tprime,
    verify_coercivity,
    coercivity_holds,
    rate_lambda,
    norm_equivalence,
)
from .simulator import (
    IntegratorConfig,
    InitSpec,
    EnsembleState,
    DecayFit,
    initial_state,
    run,
    fit_decay,
    n_sweep,
)
from .oracle import (
    TestFunctionSpec,
    oracle_suite,
    verify_lyapunov_lemma,
    verify_moment_bound,
    verify_boundedness_condition,
    fd_derivative_suite,
)

__version__ = "0.1.0"
