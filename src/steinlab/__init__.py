"""Sample quality via exact and subsampled kernel Stein discrepancies, and
particle improvement via (stochastic) Stein variational gradient descent."""

from .discrepancy import (
    DiscrepancyResult,
    SampleBatch,
    coord_stein_sums,
    draw_subsets,
    ksd,
    scaled_scores,
    sksd,
)
from .errors import (
    ConfigError,
    DegenerateBandwidthWarning,
    DivergenceError,
    NonFiniteScoreError,
    NumericalConsistencyError,
    SteinlabError,
)
from .kernels import KernelSpec, median_heuristic_bandwidth
from .models import (
    DecomposableTarget,
    gen_gmm_data,
    gen_logreg_data,
    make_gaussian,
    make_gmm_posterior,
    make_logreg,
)
from .rng import derive_seed, make_generator
from .samplers import SgldConfig, SgldSweep, iid_gaussian, sgld_chain
from .svgd import SsvgdResult, SvgdConfig, run_ssvgd, ssvgd_direction

__all__ = [
    "ConfigError",
    "DecomposableTarget",
    "DegenerateBandwidthWarning",
    "DiscrepancyResult",
    "DivergenceError",
    "KernelSpec",
    "NonFiniteScoreError",
    "NumericalConsistencyError",
    "SampleBatch",
    "SgldConfig",
    "SgldSweep",
    "SsvgdResult",
    "SteinlabError",
    "SvgdConfig",
    "coord_stein_sums",
    "derive_seed",
    "draw_subsets",
    "gen_gmm_data",
    "gen_logreg_data",
    "iid_gaussian",
    "ksd",
    "make_gaussian",
    "make_generator",
    "make_gmm_posterior",
    "make_logreg",
    "median_heuristic_bandwidth",
    "run_ssvgd",
    "scaled_scores",
    "sgld_chain",
    "sksd",
    "ssvgd_direction",
]

__version__ = "0.1.0"
