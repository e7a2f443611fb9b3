"""Smoothing proximal gradient solver for rank-penalized recovery.

Minimizes loss(X) + lam * capped_surrogate(sigma(X)) by proximal
gradient steps on the smoothed loss. Each iteration fixes the penalty
branch selector from the current spectrum, takes a prox step on the
quadratic model with curvature gamma / mu, backtracks gamma until the
model majorizes the smoothed loss at the candidate, and then either
keeps the smoothing parameter mu (when the energy value dropped by at
least alpha * mu) or resets it onto the decaying envelope
mu0 / (k + 1)^sigma_exp.

Every iteration's backtracking starts at gamma = 1, clamped to
[gamma_lo, gamma_hi]. The smoothed l1 loss has a (1/mu)-Lipschitz
gradient, so gamma = 1 passes the majorization test in exact arithmetic
and a typical iteration pays for one prox; no gamma is carried from one
iteration to the next.

Where a cost model prices it below the full SVD, the prox decomposes W
only as far as its output needs, warm-started from the right factor of
the previous prox output or started from the short-side Gram matrix; see
linalg._leading_svd. Its random starting columns come from a generator
seeded with SolverConfig.seed per solve, so a solve is deterministic.

The energy value loss~(X, mu) + lam * penalty + kappa * mu is
nonincreasing along the iterates, which is what drives the schedule.
"""

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .linalg import ProxWarmStart, rank_estimate, svd
from .penalty import (
    PenaltyCapAdvisory,
    capped_surrogate,
    d_vector,
    prox_matrix_with_spectrum,
)


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for `solve`, checked when built.

    alpha may be math.inf, which forces the mu reset branch every
    iteration. lam and nu are the penalty weight and cap threshold.
    gamma_lo and gamma_hi bound only the start of each backtracking
    search; the accepted gamma_k, and so the trace, can exceed gamma_hi.
    Construction and dataclasses.replace raise ValueError on a setting
    outside the solver's assumptions, with a message that starts with
    the field name; every real but alpha must be finite.
    """

    mu0: float = 10.0
    alpha: float = 0.8
    rho: float = 2.0
    sigma_exp: float = 1.5
    gamma_lo: float = 1e-4
    gamma_hi: float = 1e4
    lam: float = 0.1
    nu: float = 0.05
    max_iter: int = 500
    step_tol: float = 1e-6
    mu_stop: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and f.name != "alpha" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
        for name in ("mu0", "alpha", "gamma_lo", "gamma_hi", "lam", "nu", "step_tol", "mu_stop"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("rho", "sigma_exp"):
            if not getattr(self, name) > 1:
                raise ValueError(f"{name} must be greater than 1")
        if self.gamma_lo > self.gamma_hi:
            raise ValueError("gamma_lo must not exceed gamma_hi")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class IterationRecord:
    """Per-iteration diagnostics; the energy column is nonincreasing."""

    k: int
    mu_k: float
    gamma_k: float
    smoothed_objective: float
    energy: float
    exact_objective: float
    step_norm: float
    rank_estimate: int
    mu_reset: bool


@dataclass
class SolveResult:
    X_final: np.ndarray
    status: str  # "converged" or "max_iter"
    trace: list
    stationarity_residual: float
    objective_gap: float
    grad_norms: list = field(default_factory=list)
    # Spectral prox calls, those of them on the truncated path that fell
    # back to the full SVD, and the Cholesky certificates and Rayleigh-Ritz
    # sweeps that path ran (see linalg.ProxWarmStart); a call certified
    # from the Gram eigenpairs runs one certificate and no sweep.
    prox_calls: int = 0
    prox_fallbacks: int = 0
    prox_certificates: int = 0
    prox_sweeps: int = 0

    @property
    def iterations(self):
        return len(self.trace)

    @property
    def rank(self):
        """Numerical rank of X_final as the last trace record gives it; 0 without one."""
        return self.trace[-1].rank_estimate if self.trace else 0


def _prox_step(X_k, G, mu_k, gamma, d_k, config, warm=None):
    """Prox of the gradient step: (X_hat, spectrum of X_hat)."""
    W = X_k - (mu_k / gamma) * G
    tau = config.lam * mu_k / gamma
    return prox_matrix_with_spectrum(W, d_k, tau, config.nu, warm)


def _line_search_inner(X_k, f_k, G, norm_scale, mu_k, gamma_init, d_k, binding, config, warm=None):
    """Backtracking loop reusing the loss value and gradient at X_k.

    Tries gamma_init, rho * gamma_init, ... with rho = config.rho until
    the quadratic model with curvature gamma / mu_k majorizes the
    smoothed loss at the candidate. `solve` passes the same gamma_init
    on every iteration, 1 clamped to [gamma_lo, gamma_hi], which that
    test accepts in exact arithmetic. norm_scale is max(1, ||X_k||);
    `warm` is passed on to the prox.

    Returns (gamma, X_next, sigma_next, r_next, loss_next, l1_next, step):
    sigma_next is the descending spectrum of X_next taken from the prox,
    saving one SVD per iteration; r_next is the residual vector at X_next,
    the one residual pass each candidate pays for; loss_next is the
    smoothed loss at X_next under mu_k that the acceptance test computed
    from it, and l1_next its l1 part, the exact loss at X_next; step is
    ||X_next - X_k||.
    """
    gamma = gamma_init
    while True:
        X_hat, sigma_hat = _prox_step(X_k, G, mu_k, gamma, d_k, config, warm)
        diff = X_hat - X_k
        step = float(np.linalg.norm(diff))
        r = binding.residuals(X_hat)
        lhs, l1 = binding.value_and_l1_at(r, mu_k)
        diff *= G
        rhs = f_k + float(np.sum(diff)) + 0.5 * (gamma / mu_k) * step * step
        # A numerically zero step satisfies the test in exact arithmetic;
        # accept it to avoid chasing rounding noise at fixed points.
        if lhs <= rhs or step <= 1e-14 * norm_scale:
            return gamma, X_hat, sigma_hat, r, lhs, l1, step
        gamma *= config.rho


def update_mu(k, mu_k, energy_new, energy_old, alpha, mu0, sigma_exp):
    """Keep mu when the energy dropped by at least alpha * mu_k, else
    reset it to mu0 / (k + 1)^sigma_exp. alpha = inf always resets."""
    if energy_new - energy_old <= -alpha * mu_k:
        return mu_k
    return mu0 / (k + 1) ** sigma_exp


def energy(binding, X, mu, config):
    """Smoothed objective plus the kappa * mu slack term, with lam and nu
    from the SolverConfig `config`.

    At mu = 0 this is the exact objective loss(X) + lam * penalty.
    """
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    sigma = svd(X).sigma
    return _energy_from_parts(binding.value(X, mu), sigma, mu, binding, config)


def _energy_from_parts(loss_value, sigma, mu, binding, config):
    return loss_value + config.lam * capped_surrogate(sigma, config.nu) + binding.kappa * mu


def stationarity_residual(X, mu_probe, binding, config):
    """Approximate first-order residual at X using a smoothed gradient.

    Rotates the gradient into the singular basis, G = U.T @ grad @ V,
    and measures how far the diagonal is from the balance the optimality
    condition requires for each branch, minimizing over the valid
    subgradient scalars of |.| at each singular value. Adds the largest
    off-diagonal magnitude of G within the leading support block. lam
    and nu come from the SolverConfig `config`.
    """
    if not mu_probe > 0:
        raise ValueError(f"mu_probe must be positive, got {mu_probe}")
    factors = svd(X)
    sigma = factors.sigma
    G = factors.U.T @ binding.gradient(X, mu_probe) @ factors.V
    ratio = config.lam / config.nu
    r_supp = rank_estimate(sigma)

    g = np.diagonal(G)
    # On the support s_i = 1 and the branch-2 slope lam/nu cancels the
    # ratio term; off it s_i ranges over [-1, 1], so take the closest
    # admissible point.
    target = np.where(sigma >= config.nu, ratio, 0.0)
    resid = np.where(
        np.arange(sigma.size) < r_supp,
        np.abs(g + ratio - target),
        np.maximum(0.0, np.abs(g) - ratio),
    )
    worst = float(resid.max(initial=0.0))

    off_diag = 0.0
    if r_supp > 1:
        block = np.abs(G[:r_supp, :r_supp]).copy()
        np.fill_diagonal(block, 0.0)
        off_diag = float(block.max())
    return worst + off_diag


def solve(binding, config):
    """Run the full solver loop and return the iterate with diagnostics.

    Starts from the zero matrix, which makes the solve rank-incremental:
    a direction enters the iterate only once the data pulls on it harder
    than the prox threshold, which avoids locking in the spurious
    spectrum of the raw observed matrix. Stops at max_iter or once
    mu <= mu_stop and the relative step stays below step_tol for three
    consecutive iterations. The trace holds one record per iteration;
    grad_norms holds the smoothed gradient norm at the start of each
    iteration.
    """
    if config.nu >= config.lam / binding.loss_lipschitz_Lf:
        warnings.warn(
            f"nu={config.nu} is at or above lam / L_f = "
            f"{config.lam / binding.loss_lipschitz_Lf:.3g}; the clean-rank "
            "lower bound on nonzero singular values is not guaranteed",
            PenaltyCapAdvisory,
            stacklevel=2,
        )

    X = np.zeros(binding.shape)
    sigma = np.zeros(min(binding.shape))
    mu = config.mu0
    r = binding.residuals(X)
    f_k = binding.value_at(r, mu)
    energy_prev = _energy_from_parts(f_k, sigma, mu, binding, config)
    gamma0 = min(max(1.0, config.gamma_lo), config.gamma_hi)
    warm = ProxWarmStart(config.seed)
    trace = []
    grad_norms = []
    status = "max_iter"
    small_steps = 0

    for k in range(config.max_iter):
        d_k = d_vector(sigma, config.nu)
        G = binding.gradient_at(r, mu)
        grad_norms.append(float(np.linalg.norm(G)))
        norm_scale = max(1.0, float(np.linalg.norm(X)))

        gamma, X_next, sigma_next, r, loss_next, l1_next, step = _line_search_inner(
            X, f_k, G, norm_scale, mu, gamma0, d_k, binding, config, warm
        )

        penalty_next = config.lam * capped_surrogate(sigma_next, config.nu)
        smoothed_obj = loss_next + penalty_next
        energy_now = smoothed_obj + binding.kappa * mu
        exact_obj = l1_next + penalty_next

        mu_next = update_mu(
            k, mu, energy_now, energy_prev, config.alpha, config.mu0, config.sigma_exp
        )
        mu_reset = mu_next != mu
        trace.append(
            IterationRecord(
                k=k,
                mu_k=mu,
                gamma_k=gamma,
                smoothed_objective=smoothed_obj,
                energy=energy_now,
                exact_objective=exact_obj,
                step_norm=step,
                rank_estimate=rank_estimate(sigma_next),
                mu_reset=mu_reset,
            )
        )

        rel_step = step / norm_scale
        if mu <= config.mu_stop and rel_step <= config.step_tol:
            small_steps += 1
        else:
            small_steps = 0

        X = X_next
        sigma = sigma_next
        energy_prev = energy_now
        # r is now the residual at X; the accepted loss is the next f_k
        # unless mu moves.
        f_k = binding.value_at(r, mu_next) if mu_reset else loss_next
        mu = mu_next

        if small_steps >= 3:
            status = "converged"
            break

    residual = stationarity_residual(X, 10.0 * config.mu_stop, binding, config)
    # The loss terms cancel in the gap; only the penalty vs the counted
    # numerical rank remains.
    gap = config.lam * abs(rank_estimate(sigma) - capped_surrogate(sigma, config.nu))
    return SolveResult(
        X_final=X,
        status=status,
        trace=trace,
        stationarity_residual=residual,
        objective_gap=gap,
        grad_norms=grad_norms,
        prox_calls=warm.calls,
        prox_fallbacks=warm.fallbacks,
        prox_certificates=warm.certificates,
        prox_sweeps=warm.sweeps,
    )
