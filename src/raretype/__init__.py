"""Likelihood ratios for the rare type match problem.

Reduces categorical reference databases to partitions, models them with a
two-parameter Poisson-Dirichlet prior, fits the hyperparameters by
maximum likelihood, and evaluates the plug-in likelihood ratio alongside
the known-population and frequentist references.

The package namespace imports each submodule on first use (PEP 562): a
fit alone never loads the LR engines or the experiment's process pool.
"""

import importlib

__version__ = "0.1.0"

# each exported name and the submodule that defines it
_EXPORTS = {
    "InfeasibleAssignmentError": "lr",
    "LrReport": "lr",
    "MhConfig": "lr",
    "SaddleLrEstimate": "lr",
    "TrueLrEstimate": "lr",
    "diff_metrics": "lr",
    "exact_true_lr": "lr",
    "lr_empirical_bayes": "lr",
    "lr_frequentist": "lr",
    "lr_true_mh": "lr",
    "saddle_true_lr": "lr",
    "LoglikSurface": "mle",
    "MleFit": "mle",
    "SurfaceGrid": "mle",
    "SymmetryReport": "mle",
    "fit_mle": "mle",
    "loglik_surface": "mle",
    "phi_of": "mle",
    "symmetry_diagnostic": "mle",
    "theta_alpha_of": "mle",
    "IntegerPartition": "partitions",
    "SetPartition": "partitions",
    "reduce_sample": "partitions",
    "to_integer_partition": "partitions",
    "PdParams": "pitman",
    "PopulationVector": "pitman",
    "SeatingPlan": "pitman",
    "crp_sample": "pitman",
    "eppf_log": "pitman",
    "gem_stick_breaking": "pitman",
    "powerlaw_reference": "pitman",
    "ranked_frequencies": "pitman",
    "CaseOptions": "workbench",
    "DUTCH_FIXTURE_METADATA": "workbench",
    "ExperimentResult": "workbench",
    "ExperimentSpec": "workbench",
    "ProfileDatabase": "workbench",
    "dutch_fixture": "workbench",
    "load_profiles": "workbench",
    "population_from_partition": "workbench",
    "run_case": "workbench",
    "run_experiment": "workbench",
}
_SUBMODULES = ("lr", "mle", "partitions", "pitman", "rng", "workbench")

# `import *` binds the exports and the submodules, as the namespace always has
__all__ = [*_EXPORTS, *_SUBMODULES]


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    # later lookups, and a later rebinding, bypass this hook
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
