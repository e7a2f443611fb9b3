"""Independent oracles used by the test suite.

These deliberately avoid the closed-form code paths they check: the
vector prox is verified against per-coordinate grid minimization, the
matrix prox against random-perturbation sampling of its objective,
gradients against central finite differences, and the branch-free loss
kernel against the two-branch Huber form. The quadratic model of the
paper's SPG step is written here from its definition, and so are the
majorizing penalty phi_d of a branch selector and the SVT baseline's
loop, with its own SVD and soft threshold. One prox step at curvature
gamma / mu (`spg_step`) is a thin wrapper around the solver's private
`_prox_step`, called at mu / gamma; the tests check it against
`q_model`. The solver itself takes that step at gamma = 1 only.
"""

import numpy as np

from spglr.linalg import as_matrix, svd
from spglr.solver import _prox_step


def phi_d(sigma, d, nu):
    """Majorizing penalty for a fixed branch selector d.

    Equals sum(sigma_i / nu) minus the theta_2 term sigma_i / nu - 1 of
    each d_i = 2; agrees with capped_surrogate exactly when d =
    d_vector(sigma, nu) and dominates it for every other selector.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    d = np.asarray(d)
    if d.shape != sigma.shape:
        raise ValueError(f"d has shape {d.shape}, expected {sigma.shape}")
    theta = np.where(d == 2, sigma / nu - 1.0, 0.0)
    return float(np.sum(sigma) / nu - np.sum(theta))


def huber_reference(s, mu):
    """Smoothed absolute value in its two-branch form: |s| outside the
    tube, s^2 / (2 mu) + mu / 2 inside."""
    s = np.asarray(s, dtype=np.float64)
    return np.where(np.abs(s) > mu, np.abs(s), s * s / (2.0 * mu) + mu / 2.0)


def huber_grad_reference(s, mu):
    """Derivative of huber_reference: sign(s) outside the tube, s / mu inside."""
    s = np.asarray(s, dtype=np.float64)
    return np.where(np.abs(s) > mu, np.sign(s), s / mu)


def q_model(X, Z, mu, gamma, d, binding, config):
    """Quadratic model of the smoothed objective around Z.

    Smoothed loss at Z plus its linearization toward X, a proximal
    quadratic with curvature gamma / mu, and the branch-d penalty at X.
    """
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    X = as_matrix(X)
    Z = as_matrix(Z)
    diff = X - Z
    value = binding.value(Z, mu)
    value += float(np.sum(diff * binding.gradient(Z, mu)))
    value += 0.5 * (gamma / mu) * float(np.sum(diff * diff))
    value += config.lam * phi_d(svd(X).sigma, d, config.nu)
    return value


def spg_step(X_k, mu_k, gamma_k, d_k, binding, config):
    """Global minimizer of the quadratic model: one prox step.

    Gradient step W = X_k - (mu_k / gamma_k) * grad, then the spectral
    prox with threshold parameter lam * mu_k / gamma_k.
    """
    if not mu_k > 0 or not gamma_k > 0:
        raise ValueError("mu_k and gamma_k must be positive")
    G = binding.gradient(X_k, mu_k)
    X_hat, _ = _prox_step(X_k, G, mu_k / gamma_k, d_k, config)
    return X_hat


def prox_objective_terms(x, w, d, tau, nu):
    """Per-coordinate objective of the vector prox problem.

    Branch 1 contributes tau * x / nu, branch 2 contributes the constant
    tau; both add the half squared distance to w.
    """
    x = np.asarray(x, dtype=np.float64)
    penalty = np.where(d == 1, tau * x / nu, tau)
    return 0.5 * (x - w) ** 2 + penalty


def prox_objective(x, w, d, tau, nu):
    return float(np.sum(prox_objective_terms(x, w, d, tau, nu)))


def grid_prox_objective(w, d, tau, nu):
    """Minimum of the vector-prox objective by refined grid search.

    Three refinement stages end at a step below 1e-5 per coordinate.
    Returns the summed minimal objective.
    """
    total = 0.0
    for wi, di in zip(w, d):
        hi = wi + 2.0 * tau / nu + 1.0
        lo, width = 0.0, hi
        best_x = 0.0
        for points in (401, 201, 201):
            xs = np.linspace(max(lo, 0.0), max(lo, 0.0) + width, points)
            vals = 0.5 * (xs - wi) ** 2 + (tau * xs / nu if di == 1 else tau)
            j = int(np.argmin(vals))
            best_x = xs[j]
            step = width / (points - 1)
            lo, width = best_x - step, 2.0 * step
        vals = 0.5 * (best_x - wi) ** 2 + (tau * best_x / nu if di == 1 else tau)
        total += float(vals)
    return total


def batch_matrix_prox_objectives(stack, W, d, tau, nu):
    """Objective values for a stack of candidate matrices.

    Uses one batched SVD call; spectra come out descending, matching the
    ordering of d.
    """
    sigmas = np.linalg.svd(stack, compute_uv=False)
    penalty = np.where(d == 1, sigmas / nu, 1.0).sum(axis=-1) * tau
    dist = 0.5 * np.sum((stack - W) ** 2, axis=(-2, -1))
    return penalty + dist


def central_difference_gradient(fun, X, h=1e-6):
    """Entrywise central finite differences of a scalar matrix function."""
    G = np.zeros_like(X)
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            Xp = X.copy()
            Xm = X.copy()
            Xp[i, j] += h
            Xm[i, j] -= h
            G[i, j] = (fun(Xp) - fun(Xm)) / (2.0 * h)
    return G


def random_orthogonal(n, rng):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def svt_reference(data, tau, step, iterations):
    """`iterations` SVT updates X <- S_{tau step}(X - step * P_omega(X - M))
    from the zero-filled observations, where S shrinks every singular
    value by tau * step and clips at 0. Returns the final X, the
    objective 0.5 ||P_omega(X - M)||^2 + tau ||X||_* after each update,
    and ||S(X - step * P_omega(X - M)) - X|| at the final X."""
    rows, cols = np.unravel_index(data.flat_idx, (data.rows, data.cols))

    def update(X):
        G = np.zeros_like(X)
        G[rows, cols] = X[rows, cols] - data.values
        U, s, Vh = np.linalg.svd(X - step * G, full_matrices=False)
        shrunk = np.maximum(s - tau * step, 0.0)
        return U @ np.diag(shrunk) @ Vh, shrunk

    X = np.zeros((data.rows, data.cols))
    X[rows, cols] = data.values
    objectives = []
    for _ in range(iterations):
        X, shrunk = update(X)
        resid = X[rows, cols] - data.values
        objectives.append(0.5 * float(resid @ resid) + tau * float(shrunk.sum()))
    return X, objectives, float(np.linalg.norm(update(X)[0] - X))
