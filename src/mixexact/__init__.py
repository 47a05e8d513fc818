"""Exact posterior inference for finite mixtures of exponential families.

The allocation space of a k-component mixture collapses onto a much smaller
set of distinct sufficient statistics. This package enumerates that set with
exact integer multiplicities, attaches closed-form conjugate weights, and
exposes posterior summaries, marginal densities, and model evidence. A
brute-force oracle over raw allocations checks every path.
"""

from __future__ import annotations

from .errors import (
    IngestError,
    LatticeFormatError,
    MixtureError,
    NumericalError,
    OracleCapError,
    ResourceLimitError,
    UnsupportedFamilyError,
)
from .families import (
    DirichletMultinomial,
    GroupStat,
    NormalInverseGamma,
    PoissonGamma,
)
from .lattice import StatLattice, build, dump, extend, init, load
from .oracle import (
    OracleResult,
    compare_report,
    enumerate_allocations,
    log_unnormalized_weight,
    oracle_distinct_statistics,
    oracle_posterior,
    quadrature_evidence,
    weight_table_csv,
)
from .posterior import (
    DensityGrid,
    MixturePrior,
    PosteriorSummary,
    WeightedPosterior,
    bayes_factor,
    expected_component_means,
    expected_weights,
    log_evidence,
    marginal_component_density,
    marginal_weight_density,
    mass_concentration,
    mass_grid,
    normalize,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "DensityGrid",
    "DirichletMultinomial",
    "GroupStat",
    "IngestError",
    "LatticeFormatError",
    "MixtureError",
    "MixturePrior",
    "NormalInverseGamma",
    "NumericalError",
    "OracleCapError",
    "OracleResult",
    "PoissonGamma",
    "PosteriorSummary",
    "ResourceLimitError",
    "StatLattice",
    "UnsupportedFamilyError",
    "WeightedPosterior",
    "bayes_factor",
    "build",
    "compare_report",
    "dump",
    "enumerate_allocations",
    "expected_component_means",
    "expected_weights",
    "extend",
    "init",
    "load",
    "log_evidence",
    "log_unnormalized_weight",
    "marginal_component_density",
    "marginal_weight_density",
    "mass_concentration",
    "mass_grid",
    "normalize",
    "oracle_distinct_statistics",
    "oracle_posterior",
    "quadrature_evidence",
    "summarize",
    "weight_table_csv",
]
