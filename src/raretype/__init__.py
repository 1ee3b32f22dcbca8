"""Likelihood ratios for the rare type match problem.

Reduces categorical reference databases to partitions, models them with a
two-parameter Poisson-Dirichlet prior, fits the hyperparameters by
maximum likelihood, and evaluates the plug-in likelihood ratio alongside
the known-population and frequentist references.
"""

from .lr import (
    AssignmentVector,
    InfeasibleAssignmentError,
    LrReport,
    MhConfig,
    SaddleLrEstimate,
    TrueLrEstimate,
    chi_init,
    diff_metrics,
    exact_true_lr,
    lr_empirical_bayes,
    lr_frequentist,
    lr_true_mh,
    saddle_true_lr,
)
from .mle import (
    LoglikSurface,
    MleFit,
    SurfaceGrid,
    SymmetryReport,
    fit_mle,
    loglik_surface,
    phi_of,
    symmetry_diagnostic,
    theta_alpha_of,
)
from .partitions import (
    IntegerPartition,
    SetPartition,
    as_integer_partition,
    augment,
    bell_number,
    enumerate_partitions,
    reduce_sample,
    to_integer_partition,
)
from .pitman import (
    PdParams,
    PopulationVector,
    SeatingPlan,
    crp_sample,
    eppf_log,
    gem_stick_breaking,
    powerlaw_reference,
    ranked_frequencies,
)
from .workbench import (
    CaseOptions,
    DUTCH_FIXTURE_METADATA,
    ExperimentResult,
    ExperimentSpec,
    ProfileDatabase,
    dutch_fixture,
    load_profiles,
    population_from_partition,
    run_case,
    run_experiment,
)

__version__ = "0.1.0"
