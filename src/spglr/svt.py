"""Nuclear-norm proximal-gradient baseline for completion comparisons.

Minimizes 0.5 * ||P_omega(X - M)||_F^2 + tau * ||X||_* by gradient steps
on the squared masked residual followed by singular-value soft
thresholding. The squared loss is deliberate: the baseline exists to
show how an l2 data fit degrades under heavy-tailed noise.

The soft threshold is the capped penalty's prox with every branch
selector on branch 1 and nu = 1, whose majorizer is ||X||_*. It runs
with a warm start of its own, as in `solve`, so where the shape allows a
truncated route, it computes only the triplets above tau * step,
certified, and falls back to the full SVD otherwise (see
linalg._leading_svd). A high-rank iterate falls back once from its cold
first block. From 100 x 100 up, where the Gram route's floor of 10^4
entries lies, its wide blocks then take the Gram route, where the
certified top eigenpairs of the Gram matrix serve as its triplets with
no sweep; over a slowly falling tail they predict too slow
a shrink for the warm Gram call's Rayleigh-Ritz steps, so each call
takes the full eigh. Below that size they take the full SVD.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import ProxWarmStart, _frobenius, rank_estimate
from .losses import MaskedData
from .penalty import prox_matrix_with_spectrum
from .solver import IterationRecord, SolveResult, check_field_types


@dataclass(frozen=True)
class SvtConfig:
    """Settings of `svt_solve`, checked when built, as SolverConfig is."""

    tau: float = 0.05
    step: float = 1.0
    max_iter: int = 500
    tol: float = 1e-6

    def __post_init__(self):
        check_field_types(self)
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not self.step > 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


def svt_solve(data, config):
    """Iterate gradient step + spectral soft threshold until the step is
    at most tol times the norm of the iterate it leaves, or max_iter is
    reached. The test has no absolute floor, so a scaled problem stops
    where it did.

    The trace reuses the shared record schema: the three objective
    columns all carry the nuclear-norm objective, mu_k is 0 and gamma_k
    is the gradient step size. The stationarity_residual field holds the
    final fixed-point gap, the norm of one more update (counted in
    prox_calls); objective_gap is not meaningful here and is 0.
    prox_fallbacks, prox_certificates and prox_sweeps count the truncated
    route's work, as in `solve`. The warm start is seeded with 0 for
    every call, so repeated calls on the same data agree.
    """
    if not isinstance(data, MaskedData):
        raise TypeError("svt_solve expects MaskedData")
    flat, vals = data.flat_idx, data.values
    branch_one = np.ones(min(data.rows, data.cols), dtype=np.int64)
    warm = ProxWarmStart(0)

    def update(X, resid):
        """(next iterate, its spectrum) from X and its masked residual."""
        # copy() is row-major, so ravel() is a view and the scatter lands in W.
        W = X.copy()
        W.ravel()[flat] -= config.step * resid
        return prox_matrix_with_spectrum(W, branch_one, config.tau * config.step, 1.0, warm)

    X = data.observed_matrix()
    resid = np.take(X, flat) - vals
    trace = []
    status = "max_iter"
    for k in range(config.max_iter):
        X_next, shrunk = update(X, resid)
        step_norm = _frobenius(X_next - X)
        resid = np.take(X_next, flat) - vals
        objective = 0.5 * float(np.sum(resid * resid)) + config.tau * float(
            np.sum(shrunk)
        )
        trace.append(
            IterationRecord(
                k=k,
                mu_k=0.0,
                gamma_k=config.step,
                smoothed_objective=objective,
                energy=objective,
                exact_objective=objective,
                step_norm=step_norm,
                rank_estimate=rank_estimate(shrunk),
                mu_reset=False,
            )
        )
        small = step_norm <= config.tol * _frobenius(X)
        X = X_next
        if small:
            status = "converged"
            break

    return SolveResult(
        X_final=X,
        status=status,
        trace=trace,
        stationarity_residual=_frobenius(update(X, resid)[0] - X),
        objective_gap=0.0,
        prox_calls=warm.calls,
        prox_fallbacks=warm.fallbacks,
        prox_certificates=warm.certificates,
        prox_sweeps=warm.sweeps,
    )
