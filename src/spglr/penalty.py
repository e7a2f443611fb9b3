"""Capped singular-value penalty and its closed-form proximal maps.

The penalty on a spectrum sigma is sum_i min(1, sigma_i / nu): each
singular value contributes at most 1, so the sum is a continuous
surrogate for the rank. The penalty splits into a difference of convex
pieces t/nu - max(theta_1, theta_2) with theta_1 = 0 and
theta_2(t) = t/nu - 1; a branch selector d in {1, 2}^n picks the active
piece per singular value and makes the majorizing penalty smooth, which
is what gives the prox its closed form.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import _BLOCK_PAD, _leading_svd, svd

# Inputs with at least this many entries take the truncated prox when a
# warm start is given. Measured as solve time per prox call on square
# completion solves with one BLAS thread, truncated against full SVD:
# 60x60 1.62 vs 1.43 ms, 70x70 1.71 vs 1.78 ms, 100x100 2.04 vs 3.36 ms.
# The cutoff keeps a margin above that break-even point.
_TRUNCATE_MIN_SIZE = 10_000


class PenaltyCapAdvisory(UserWarning):
    """The cap threshold nu is too large relative to lam and the loss
    Lipschitz constant for the clean-rank guarantees to apply."""


@dataclass(frozen=True)
class CappedPenaltyParams:
    """Penalty weight `lam` and cap threshold `nu`, both positive."""

    lam: float
    nu: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not self.nu > 0:
            raise ValueError(f"nu must be positive, got {self.nu}")

    def cap_advisory(self, loss_lipschitz):
        """True when nu >= lam / loss_lipschitz (advisory only)."""
        return self.nu >= self.lam / loss_lipschitz


def capped_surrogate(sigma, nu):
    """Sum of min(1, sigma_i / nu) over a spectrum; the rank surrogate value."""
    sigma = _check_spectrum(sigma)
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    return float(np.sum(np.minimum(1.0, sigma / nu)))


def d_vector(sigma, nu):
    """Branch selector per singular value: 2 where sigma_i >= nu, else 1.

    For a descending spectrum the result is nonincreasing (all 2s first).
    """
    sigma = _check_spectrum(sigma)
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    return np.where(sigma >= nu, 2, 1)


def phi_d(sigma, d, nu):
    """Majorizing penalty for a fixed branch selector d.

    Equals sum(sigma_i / nu) minus the selected theta terms; agrees with
    capped_surrogate exactly when d = d_vector(sigma, nu) and dominates
    it for every other selector.
    """
    sigma = _check_spectrum(sigma)
    d = _check_d(d, sigma.size)
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    theta = np.where(d == 2, sigma / nu - 1.0, 0.0)
    return float(np.sum(sigma) / nu - np.sum(theta))


def prox_vector(w, d, tau, nu):
    """Closed-form minimizer of tau * phi_d(x) + 0.5 * ||x - w||^2 over x >= 0.

    Coordinates with d_i = 2 pass through unchanged; coordinates with
    d_i = 1 are shrunk by tau / nu and clipped at zero.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError("w must be a 1-D vector")
    if np.any(w < 0):
        raise ValueError("w entries must be nonnegative")
    d = _check_d(d, w.size)
    _check_tau_nu(tau, nu)
    return _shrink(w, d, tau, nu)


def prox_matrix(W, d, tau, nu):
    """Spectral prox: apply prox_vector to the singular values of W.

    Requires d nonincreasing (as produced by d_vector on a descending
    spectrum); other selectors are rejected because the ordering of the
    output spectrum is only guaranteed in that case.
    """
    X, _ = prox_matrix_with_spectrum(W, d, tau, nu)
    return X


class ProxWarmStart:
    """State one solve carries from prox to prox on the truncated path.

    V is the right factor of the last prox output (None before the
    first), rng draws the random starting columns, and `tail` is the
    proof that the next call may carry forward instead of forming a
    Gram matrix: (W_ref, B, k_ref), a private copy of the W of the last
    call that ran a certificate, a proven bound B on its singular value
    k_ref + 1, and k_ref, or None. Weyl's inequality moves the bound to
    a new W at the cost of ||W - W_ref||_F; see linalg._leading_svd. A
    call that runs the full SVD, by fallback or directly, clears it.
    `calls` counts prox calls, `fallbacks` the truncated-path calls
    whose certificate failed, so that they ran the full SVD, and
    `certificates` the Cholesky factorisations the truncated path ran,
    retries included.
    """

    def __init__(self, seed):
        self.V = None
        self.rng = np.random.default_rng(seed)
        self.tail = None
        self.calls = 0
        self.fallbacks = 0
        self.certificates = 0


def prox_matrix_with_spectrum(W, d, tau, nu, warm=None):
    """prox_matrix plus the output spectrum, which equals
    prox_vector(sigma(W), d, tau, nu) and is descending.

    X is rebuilt from the leading triplets whose shrunk value is nonzero;
    the descending order puts every zero after them.

    With a ProxWarmStart `warm`, a W of at least _TRUNCATE_MIN_SIZE
    entries is decomposed only as far as the prox needs: every d = 2
    triplet and every singular value above tau / nu, since the rest
    shrink to exactly zero. The truncated SVD starts from warm.V and
    proves that the next singular value is below tau / nu, by carrying
    warm.tail forward when the drift of W since that proof leaves room,
    else by a Cholesky certificate; when neither works, the full SVD
    runs instead and warm.fallbacks counts it. A W whose first block,
    the d = 2 count plus _BLOCK_PAD, already exceeds half its smaller
    side goes to the full SVD directly, uncounted.
    """
    _check_tau_nu(tau, nu)
    factors = None
    if warm is not None:
        warm.calls += 1
        tail, warm.tail = warm.tail, None
        if np.size(W) >= _TRUNCATE_MIN_SIZE:
            k_min = int(np.count_nonzero(np.asarray(d) == 2))
            if k_min + _BLOCK_PAD <= min(np.shape(W)) // 2:
                factors, warm.tail, certificates = _leading_svd(
                    W, k_min, tau / nu, warm.V, warm.rng, tail
                )
                warm.certificates += certificates
                if factors is None:
                    warm.fallbacks += 1
    U, s, V = factors or svd(W)
    d = _check_d(d, min(U.shape[0], V.shape[0]))
    if np.any(np.diff(d) > 0):
        raise ValueError("d must be nonincreasing for the matrix prox")
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
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")


def _check_spectrum(sigma):
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim != 1:
        raise ValueError("sigma must be a 1-D vector")
    if np.any(sigma < 0):
        raise ValueError("sigma entries must be nonnegative")
    return sigma


def _check_d(d, n):
    d = np.asarray(d)
    if d.shape != (n,):
        raise ValueError(f"d has length {d.size}, expected {n}")
    if not ((d == 1) | (d == 2)).all():
        raise ValueError("d entries must be 1 or 2")
    return d.astype(np.int64)
