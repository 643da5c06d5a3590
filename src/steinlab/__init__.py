"""Sample quality via exact and subsampled kernel Stein discrepancies, and
particle improvement via (stochastic) Stein variational gradient descent."""

from .discrepancy import DiscrepancyResult, SampleBatch, ksd, sksd
from .errors import (
    ConfigError,
    DegenerateBandwidthWarning,
    DivergenceError,
    NonFiniteScoreError,
    NumericalConsistencyError,
    SteinlabError,
)
from .kernels import KernelSpec
from .models import (
    DecomposableTarget,
    gen_gmm_data,
    gen_logreg_data,
    make_gaussian,
    make_gmm_posterior,
    make_logreg,
)
from .samplers import SgldConfig, SgldSweep, iid_gaussian, sgld_chain
from .svgd import SsvgdResult, SvgdConfig, run_ssvgd

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
    "gen_gmm_data",
    "gen_logreg_data",
    "iid_gaussian",
    "ksd",
    "make_gaussian",
    "make_gmm_posterior",
    "make_logreg",
    "run_ssvgd",
    "sgld_chain",
    "sksd",
]

__version__ = "0.1.0"
