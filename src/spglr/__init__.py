"""Rank-penalized matrix recovery with a smoothed nonsmooth loss.

A smoothing proximal gradient solver for completion and low-rank plus
sparse decomposition under a capped singular-value penalty, plus a
nuclear-norm baseline, a synthetic experiment harness, and file codecs.
"""

from .linalg import (
    DecompositionError,
    SvdFactors,
    as_matrix,
    frobenius_norm,
    rank_estimate,
    svd,
)
from .penalty import (
    PenaltyCapAdvisory,
    capped_surrogate,
    d_vector,
    phi_d,
    prox_matrix,
    prox_vector,
)
from .losses import CompletionLoss, MaskedData, RpcaLoss
from .solver import (
    IterationRecord,
    SolveResult,
    SolverConfig,
    energy,
    solve,
    stationarity_residual,
    update_mu,
)
from .svt import SvtConfig, svt_solve
from .experiments import (
    GmmNoiseParams,
    McSummary,
    TrialResult,
    TrialSpec,
    build_trial_data,
    gen_low_rank,
    gmm_noise,
    monte_carlo,
    psnr,
    rmse,
    run_trial,
    sample_mask,
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
    "as_matrix",
    "build_trial_data",
    "capped_surrogate",
    "d_vector",
    "energy",
    "frobenius_norm",
    "gen_low_rank",
    "gmm_noise",
    "monte_carlo",
    "phi_d",
    "prox_matrix",
    "prox_vector",
    "psnr",
    "rank_estimate",
    "rmse",
    "run_trial",
    "sample_mask",
    "solve",
    "stationarity_residual",
    "svd",
    "svt_solve",
    "update_mu",
]
