"""Capped singular-value penalty and its closed-form proximal maps.

The penalty on a spectrum sigma is sum_i min(1, sigma_i / nu): each
singular value contributes at most 1, so the sum is a continuous
surrogate for the rank. The penalty splits into a difference of convex
pieces t/nu - max(theta_1, theta_2) with theta_1 = 0 and
theta_2(t) = t/nu - 1; a branch selector d in {1, 2}^n picks the active
piece per singular value and makes the majorizing penalty smooth, which
is what gives the prox its closed form.
"""

import numpy as np

from .linalg import _leading_svd, as_matrix, svd


class PenaltyCapAdvisory(UserWarning):
    """The cap threshold nu is too large relative to lam and the loss
    Lipschitz constant for the clean-rank guarantees to apply."""


def capped_surrogate(sigma, nu):
    """Sum of min(1, sigma_i / nu) over a spectrum; the rank surrogate value."""
    sigma = _check_spectrum(sigma)
    _check_nu(nu)
    return _capped_surrogate(sigma, nu)


def _capped_surrogate(sigma, nu):
    """capped_surrogate of a float64 spectrum and an nu > 0, unchecked."""
    return float(np.minimum(1.0, sigma / nu).sum())


def d_vector(sigma, nu):
    """Branch selector per singular value: 2 where sigma_i >= nu, else 1.

    For a descending spectrum the result is nonincreasing (all 2s first).
    """
    sigma = _check_spectrum(sigma)
    _check_nu(nu)
    return _d_vector(sigma, nu)


def _d_vector(sigma, nu):
    """d_vector of a float64 spectrum and an nu > 0, unchecked."""
    return np.where(sigma >= nu, 2, 1)


def prox_vector(w, d, tau, nu):
    """Closed-form minimizer of tau * phi_d(x) + 0.5 * ||x - w||^2 over x >= 0,
    phi_d the majorizing penalty of the branch selector d.

    Coordinates with d_i = 2 pass through unchanged; coordinates with
    d_i = 1 are shrunk by tau / nu and clipped at zero.
    """
    w = _check_spectrum(w, "w")
    d = _check_d(d, w.size)
    _check_tau_nu(tau, nu)
    return _shrink(w, d, tau, nu)


def prox_matrix(W, d, tau, nu):
    """Spectral prox: apply prox_vector to the singular values of W.

    Requires d nonincreasing (as produced by d_vector on a descending
    spectrum); other selectors are rejected because the ordering of the
    output spectrum is only guaranteed in that case.
    """
    _check_tau_nu(tau, nu)
    W = as_matrix(W)
    d = _check_d(d, min(W.shape))
    if np.any(np.diff(d) > 0):
        raise ValueError("d must be nonincreasing for the matrix prox")
    X, _ = prox_matrix_with_spectrum(W, d, tau, nu)
    return X


def prox_matrix_with_spectrum(W, d, tau, nu, warm=None):
    """prox_matrix plus the output spectrum, which equals
    prox_vector(sigma(W), d, tau, nu) and is descending.

    It trusts d, tau and nu, which prox_matrix checks: d nonincreasing,
    of 1s and 2s, one per singular value of W; tau, nu > 0. A non-finite
    W still raises ValueError from svd, which the truncated route falls
    back to because it cannot certify such a W.

    X is rebuilt from the leading triplets whose shrunk value is nonzero;
    the descending order puts every zero after them.

    With a linalg.ProxWarmStart `warm`, linalg._leading_svd may supply
    just the triplets the prox needs: every d = 2 triplet and every
    singular value above tau / nu, since the rest shrink to exactly
    zero. When it returns None, the full SVD runs. warm.V keeps the
    right factor of the output.
    """
    factors = None
    if warm is not None:
        factors = _leading_svd(W, int(np.count_nonzero(d == 2)), tau / nu, warm)
    U, s, V = factors or svd(W)
    # Values past the truncation are below tau / nu and have d = 1.
    sigma = np.zeros(d.size)
    sigma[: s.size] = s
    x_hat = _shrink(sigma, d, tau, nu)
    r = int(np.count_nonzero(x_hat))
    if warm is not None:
        warm.V = V[:, :r]
    return (U[:, :r] * x_hat[:r]) @ V[:, :r].T, x_hat


def _shrink(w, d, tau, nu):
    """Keep the d = 2 entries of w; shrink the rest by tau / nu, clipped at 0."""
    return np.where(d == 2, w, np.maximum(w - tau / nu, 0.0))


def _check_tau_nu(tau, nu):
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    _check_nu(nu)


def _check_nu(nu):
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")


def _check_spectrum(sigma, name="sigma"):
    """sigma as a float64 vector, or ValueError for another shape or an
    entry that is negative, infinite or NaN."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector")
    if not ((sigma >= 0) & (sigma < np.inf)).all():
        raise ValueError(f"{name} entries must be nonnegative finite numbers")
    return sigma


def _check_d(d, n):
    d = np.asarray(d)
    if d.shape != (n,):
        raise ValueError(f"d has length {d.size}, expected {n}")
    if d.dtype == bool or not ((d == 1) | (d == 2)).all():
        raise ValueError("d entries must be 1 or 2")
    return d.astype(np.int64)
