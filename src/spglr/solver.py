"""Smoothing proximal gradient solver for rank-penalized recovery.

Minimizes loss(X) + lam * capped_surrogate(sigma(X)) by proximal
gradient steps on the smoothed loss. Each iteration fixes the penalty
branch selector from the current spectrum, takes one prox step on the
quadratic model with curvature 1 / mu, which majorizes the smoothed loss
because its gradient is (1/mu)-Lipschitz, and then either keeps the
smoothing parameter mu (when the energy value dropped by at least
alpha * mu) or resets it onto the decaying envelope mu0 / (k + 1)^sigma_exp.
A step whose smoothed loss exceeds the model by more than the rounding
bound of _spg_step can only come from a bug: the solve raises
MajorizationError, naming the iteration, and does not retry.

Where the input's shape and the block allow a truncated route (see
linalg._routes), the prox decomposes W only as far as its output needs,
warm-started from the right factor of the previous prox output, or taken
from the short-side Gram matrix and warm-started from the eigenvectors
the last such prox kept; see linalg._leading_svd. Its random starting
columns come from a generator seeded with SolverConfig.seed per solve,
so a solve is deterministic.

The energy value loss~(X, mu) + lam * penalty + kappa * mu is
nonincreasing along the iterates, which is what drives the schedule.
"""

import math
import numbers
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .linalg import _UNIT_ROUNDOFF, ProxWarmStart, _frobenius, rank_estimate, svd
from .penalty import (
    PenaltyCapAdvisory,
    _capped_surrogate,
    _d_vector,
    prox_matrix_with_spectrum,
)


# Each checked field type: the values it takes and the error it raises.
_FIELD_TYPES = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number")}


def check_type(name, value, kind):
    """Raise ValueError "<name> must be an integer" for kind int (or "a
    number" for float) unless `value` is one: a bool is not, numpy
    integers and floats are, and an integer passes as a float."""
    accepted, noun = _FIELD_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{name} must be {noun}")


def check_field_types(config, infinite=()):
    """check_type on each int or float dataclass field of `config`, in
    order: the first that fails raises. A float field must also be a
    finite float, "<name> must be finite", or +inf if `infinite` names it."""
    for f in fields(config):
        if f.type in _FIELD_TYPES:
            value = getattr(config, f.name)
            check_type(f.name, value, f.type)
            if f.type is float and (f.name not in infinite or value != math.inf):
                try:
                    finite = math.isfinite(value)
                except OverflowError:  # an integer beyond float range
                    finite = False
                if not finite:
                    raise ValueError(f"{f.name} must be finite")


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for `solve`, checked when built.

    alpha may be math.inf, which forces the mu reset branch every
    iteration. lam and nu are the penalty weight and cap threshold; the
    step's curvature is fixed at 1 / mu, so it has no knob. Construction
    and dataclasses.replace raise ValueError on a setting outside the
    solver's assumptions, with a message that starts with the field name;
    every real must be a number, finite but for alpha, and max_iter and
    seed must be integers.
    """

    mu0: float = 10.0
    alpha: float = 0.8
    sigma_exp: float = 1.5
    lam: float = 0.1
    nu: float = 0.05
    max_iter: int = 500
    step_tol: float = 1e-6
    mu_stop: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        check_field_types(self, infinite=("alpha",))
        for name in ("mu0", "alpha", "lam", "nu", "step_tol", "mu_stop"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.sigma_exp > 1:
            raise ValueError("sigma_exp must be greater than 1")
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
    # Spectral prox calls, those of them on the truncated path that fell
    # back to the full SVD, and the Cholesky certificates and Rayleigh-Ritz
    # steps that path ran (see linalg.ProxWarmStart): the subspace route's
    # sweeps, not its filter steps, and a warm Gram call's steps on C; a
    # Gram call runs one certificate, and a cold one no step.
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


def _prox_step(X_k, G, mu_k, d_k, config, warm=None):
    """Prox of the gradient step at curvature 1 / mu_k: (X_hat, spectrum of X_hat)."""
    W = X_k - mu_k * G
    tau = config.lam * mu_k
    return prox_matrix_with_spectrum(W, d_k, tau, config.nu, warm)


class MajorizationError(RuntimeError):
    """A prox step broke the majorization check beyond its rounding bound."""


def _spg_step(X_k, f_k, G, mu_k, d_k, binding, config, warm=None):
    """One prox step at curvature 1 / mu_k from X_k, whose smoothed loss
    under mu_k is f_k and gradient G; `warm` is passed on to the prox.

    Returns (X_next, its spectrum from the prox, its residual vector, its
    smoothed loss lhs and l1 loss, step = ||X_next - X_k||, lhs - rhs, tol)
    with rhs the quadratic model at X_next. lhs <= rhs in exact arithmetic,
    the gradient being (1/mu)-Lipschitz, so tol bounds only the rounding.
    Let u be the unit roundoff, n the loss terms and N = m n. Each loss
    term is within a few u of itself, and a sum of n nonnegative terms
    adds (n - 1) u of its total (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, sections 3.1 and 4.2), so lhs and f_k are
    within (n + 5) u of themselves. <diff, G> sums N products of factors
    within 2 u, so it is within (N + 4) u step ||G||_F, and ||G||_F <=
    sqrt(n) = L_f as every gradient entry lies in [-1, 1]. q = step^2 /
    (2 mu) is within (N + 8) u q, and forming rhs adds 2 u (f_k + step L_f
    + q). All this is below tol = 4 u ((n + 2)(lhs + f_k) + (N + 2)(step
    L_f + q)), with room for second-order terms. tol costs O(1) and scales
    with the data, so a scaling by 2^e moves no decision.
    """
    X_hat, sigma_hat = _prox_step(X_k, G, mu_k, d_k, config, warm)
    diff = X_hat - X_k
    step = _frobenius(diff)
    r = binding.residuals(X_hat)
    lhs, l1 = binding.value_and_l1_at(r, mu_k)
    q = step * step / (2.0 * mu_k)
    rhs = f_k + float(np.vdot(diff, G)) + q
    tol = 4 * _UNIT_ROUNDOFF * ((binding.n_terms + 2) * (lhs + f_k)
                                + (diff.size + 2) * (step * binding.loss_lipschitz_Lf + q))
    return X_hat, sigma_hat, r, lhs, l1, step, lhs - rhs, tol


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
    return loss_value + config.lam * _capped_surrogate(sigma, config.nu) + binding.kappa * mu


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
    mu <= mu_stop and the step, relative to the iterate it leaves, is at
    most step_tol for three consecutive iterations; with no absolute
    floor in that test, a scaled problem stops where it did. The trace
    holds one record per iteration.
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
    warm = ProxWarmStart(config.seed)
    trace = []
    status = "max_iter"
    small_steps = 0

    for k in range(config.max_iter):
        d_k = _d_vector(sigma, config.nu)
        G = binding.gradient_at(r, mu)
        norm_X = _frobenius(X)
        X, sigma, r, loss_next, l1_next, step, excess, tol = _spg_step(
            X, f_k, G, mu, d_k, binding, config, warm
        )
        if excess > tol:
            raise MajorizationError(f"iteration {k}: the smoothed loss exceeds its quadratic "
                                    f"model by {excess:.3g}, beyond its rounding bound {tol:.3g}")

        penalty_next = config.lam * _capped_surrogate(sigma, config.nu)
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
                gamma_k=1.0,
                smoothed_objective=smoothed_obj,
                energy=energy_now,
                exact_objective=exact_obj,
                step_norm=step,
                rank_estimate=rank_estimate(sigma),
                mu_reset=mu_reset,
            )
        )

        if mu <= config.mu_stop and step <= config.step_tol * norm_X:
            small_steps += 1
        else:
            small_steps = 0

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
    gap = config.lam * abs(rank_estimate(sigma) - _capped_surrogate(sigma, config.nu))
    return SolveResult(
        X_final=X,
        status=status,
        trace=trace,
        stationarity_residual=residual,
        objective_gap=gap,
        prox_calls=warm.calls,
        prox_fallbacks=warm.fallbacks,
        prox_certificates=warm.certificates,
        prox_sweeps=warm.sweeps,
    )
