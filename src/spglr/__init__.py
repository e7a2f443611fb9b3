"""Rank-penalized matrix recovery with a smoothed nonsmooth loss.

A smoothing proximal gradient solver for completion and low-rank plus
sparse decomposition under a capped singular-value penalty, plus a
nuclear-norm baseline, a synthetic experiment harness, and file codecs.
Helpers outside `__all__` are imported from their modules, for example
`from spglr.experiments import gen_low_rank`.
"""

from .linalg import DecompositionError, SvdFactors, rank_estimate, svd
from .penalty import PenaltyCapAdvisory, d_vector, prox_matrix, prox_vector
from .losses import CompletionLoss, MaskedData, RpcaLoss
from .solver import (
    IterationRecord,
    SolveResult,
    SolverConfig,
    energy,
    solve,
    stationarity_residual,
)
from .svt import SvtConfig, svt_solve
from .experiments import (
    GmmNoiseParams,
    McSummary,
    TrialResult,
    TrialSpec,
    build_trial_data,
    gmm_noise,
    monte_carlo,
    rmse,
)

__version__ = "0.1.0"

__all__ = [
    "CompletionLoss",
    "DecompositionError",
    "GmmNoiseParams",
    "IterationRecord",
    "MaskedData",
    "McSummary",
    "PenaltyCapAdvisory",
    "RpcaLoss",
    "SolveResult",
    "SolverConfig",
    "SvdFactors",
    "SvtConfig",
    "TrialResult",
    "TrialSpec",
    "build_trial_data",
    "d_vector",
    "energy",
    "gmm_noise",
    "monte_carlo",
    "prox_matrix",
    "prox_vector",
    "rank_estimate",
    "rmse",
    "solve",
    "stationarity_residual",
    "svd",
    "svt_solve",
]
