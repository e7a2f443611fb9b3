"""Nuclear-norm proximal-gradient baseline for completion comparisons.

Minimizes 0.5 * ||P_omega(X - M)||_F^2 + tau * ||X||_* by gradient steps
on the squared masked residual followed by singular-value soft
thresholding. The squared loss is deliberate: the baseline exists to
show how an l2 data fit degrades under heavy-tailed noise.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import frobenius_norm, rank_estimate, svd
from .losses import MaskedData
from .solver import IterationRecord, SolveResult


@dataclass
class SvtConfig:
    tau: float = 0.05
    step: float = 1.0
    max_iter: int = 500
    tol: float = 1e-6

    def validate(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not self.step > 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


def soft_threshold_sigma(sigma, tau):
    """Shift a descending nonnegative spectrum down by tau, clipped at 0."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma < 0):
        raise ValueError("sigma entries must be nonnegative")
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    return np.maximum(sigma - tau, 0.0)


def svt_solve(data, config):
    """Iterate gradient step + spectral soft threshold until the relative
    step falls below tol or max_iter is reached.

    The trace reuses the shared record schema: the three objective
    columns all carry the nuclear-norm objective, mu_k is 0 and gamma_k
    is the gradient step size. The stationarity_residual field holds the
    final fixed-point gap (the norm of one more update), and
    objective_gap is not meaningful for this model and is reported as 0.
    """
    if not isinstance(data, MaskedData):
        raise TypeError("svt_solve expects MaskedData")
    config.validate()
    flat, vals = data.flat_idx, data.values
    threshold = config.tau * config.step

    X = data.observed_matrix()
    trace = []
    status = "max_iter"
    for k in range(config.max_iter):
        # copy() is row-major, so ravel() is a view and the scatter lands in W.
        W = X.copy()
        W.ravel()[flat] -= config.step * (np.take(X, flat) - vals)
        factors = svd(W)
        shrunk = soft_threshold_sigma(factors.sigma, threshold)
        X_next = (factors.U * shrunk) @ factors.V.T

        step_norm = frobenius_norm(X_next - X)
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
        rel_step = step_norm / max(1.0, frobenius_norm(X))
        X = X_next
        if rel_step <= config.tol:
            status = "converged"
            break

    W = X.copy()
    W.ravel()[flat] -= config.step * (np.take(X, flat) - vals)
    factors = svd(W)
    fixed_point_gap = frobenius_norm(
        (factors.U * soft_threshold_sigma(factors.sigma, threshold)) @ factors.V.T - X
    )
    return SolveResult(
        X_final=X,
        status=status,
        trace=trace,
        stationarity_residual=fixed_point_gap,
        objective_gap=0.0,
    )
