"""Rate certification and ensemble simulation for mean-field kinetic Langevin systems.

The package computes explicit, particle-count-independent exponential
convergence rates for the underdamped Langevin dynamics of N interacting
particles, simulates the dynamics with reproducible counter-based noise
streams, and cross-checks every certified constant against independent
numerical oracles at desk scale.

Each public name below, and each layer module, is imported on first access
(PEP 562), so that an entry point loads only the layers it runs.
"""

# each layer, by name, then the public names it defines
_LAYERS = {
    "potentials": "PotentialSpec ConstantsBundle extract_constants lipschitz_constant lipschitz_from_model "
                  "convexity_at_infinity_fit",
    "meanfield": "ModelConfig total_potential hessian_blocks",
    "funcineq": "GridMeasure kappa_bakry_emery kappa_dissipativity upi_criterion lsi_transfer ulsi_criterion "
                "spectral_gap",
    "certifier": "Certificate certify assemble_constants constants_bounded_grad constants_lsi default_coefficients "
                 "improved_coefficients build_Tprime verify_coercivity coercivity_holds rate_lambda "
                 "norm_equivalence",
    "simulator": "IntegratorConfig InitSpec EnsembleState DecayFit run fit_decay n_sweep",
    "oracle": "TestFunctionSpec oracle_suite verify_lyapunov_lemma verify_moment_bound "
              "verify_boundedness_condition fd_derivative_suite",
    "errors": "",
}
# name -> the module that defines it; a layer maps to itself
_MODULE = {name: layer for layer, names in _LAYERS.items() for name in (layer, *names.split())}

__all__ = list(_MODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_MODULE[name]}", __name__)
    value = globals()[name] = module if name == _MODULE[name] else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
