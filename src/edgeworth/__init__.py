"""Edgeworth expansions for sums driven by finite-state Markov chains.

The pipeline: a model (Markov chain, i.i.d. law or discretized interval
map) yields a family of twisted transfer operators; jets of the leading
eigenvalue yield the asymptotic parameters; those yield the polynomial
families of the expansion, which the evaluation layer turns into CDF,
pmf and weak-form approximations checked against exact oracles.
"""

from .errors import (
    EdgeworthError,
    OracleInfeasible,
    OracleUnavailable,
    TableTooLarge,
    TooManyValues,
    ValidationError,
)
from .expansion import (
    AsymptoticParams,
    ExpansionSet,
    asymptotic_params,
    build_expansion,
    expansion_for_model,
)
from .jets import Polynomial
from .models import (
    BUNDLED_MODELS,
    IidMomentModel,
    MarkovModel,
    UlamModel,
    bundled_model,
    diophantine_scan,
    iid_model,
    markov_model,
    pmf_moments,
    ulam_model,
)
from .oracle import (
    ExactDistribution,
    dp_ladder,
    dp_pmf,
    erfc,
    exact_moments,
    kolmogorov_distance,
    mc_sample,
    normal_cdf,
)
from .spectral import (
    PerronBase,
    SpectralJets,
    build_operator_family,
    eigen_perturbation,
    norm_decay_scan,
    perron_base,
)
from .evaluate import (
    ConvergenceReport,
    ModDevResult,
    TestFunction,
    averaged,
    convergence_study,
    edgeworth_cdf,
    exact_distribution,
    exact_distributions,
    lattice_pmf,
    moddev_ratios,
    weak_global,
    weak_local,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticParams",
    "BUNDLED_MODELS",
    "ConvergenceReport",
    "EdgeworthError",
    "ExactDistribution",
    "ExpansionSet",
    "IidMomentModel",
    "MarkovModel",
    "ModDevResult",
    "OracleInfeasible",
    "OracleUnavailable",
    "PerronBase",
    "Polynomial",
    "SpectralJets",
    "TableTooLarge",
    "TestFunction",
    "TooManyValues",
    "UlamModel",
    "ValidationError",
    "asymptotic_params",
    "averaged",
    "build_expansion",
    "build_operator_family",
    "bundled_model",
    "convergence_study",
    "diophantine_scan",
    "dp_ladder",
    "dp_pmf",
    "edgeworth_cdf",
    "eigen_perturbation",
    "erfc",
    "exact_distribution",
    "exact_distributions",
    "exact_moments",
    "expansion_for_model",
    "iid_model",
    "kolmogorov_distance",
    "lattice_pmf",
    "markov_model",
    "mc_sample",
    "moddev_ratios",
    "norm_decay_scan",
    "normal_cdf",
    "perron_base",
    "pmf_moments",
    "ulam_model",
    "weak_global",
    "weak_local",
]
