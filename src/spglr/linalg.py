"""Dense matrix utilities and the thin-SVD contract used everywhere else.

Matrices are plain 2-D float64 numpy arrays with finite entries; the
helpers here validate that contract and wrap the numerical backend so
downstream modules never call LAPACK directly.
"""

import math
from typing import NamedTuple

import numpy as np


class DecompositionError(RuntimeError):
    """The SVD backend failed to converge on the given matrix."""


class SvdFactors(NamedTuple):
    """Thin SVD of a matrix W: W = U @ diag(sigma) @ V.T.

    U is (m, k), sigma is (k,) sorted descending, V is (n, k) with
    k = min(m, n) (fewer for a truncated SVD, which keeps the leading
    triplets). Both factor matrices have orthonormal columns.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray


def as_matrix(a):
    """Validate `a` as a dense matrix and return it as a float64 array.

    Raises ValueError for non-2-D input, empty dimensions, or
    non-finite entries.
    """
    X = np.asarray(a, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={X.ndim}")
    if X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    return X


def frobenius_norm(X):
    """sqrt of the sum of squared entries."""
    return float(np.linalg.norm(as_matrix(X)))


def svd(W):
    """Thin SVD with the tall orientation handled internally.

    When W has fewer rows than columns the decomposition runs on the
    transpose and the factors are swapped back, so callers always get
    min(m, n) singular values in descending order.
    """
    W = as_matrix(W)
    if W.shape[0] < W.shape[1]:
        flipped = svd(W.T)
        return SvdFactors(flipped.V, flipped.sigma, flipped.U)
    try:
        U, s, Vh = np.linalg.svd(W, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD failed on {W.shape} matrix: {exc}") from exc
    return SvdFactors(U, s, Vh.T)


# Extra columns carried beyond the triplets a truncated SVD must return;
# the gap to singular value b + 1 sets how fast the kept ones converge.
_BLOCK_PAD = 5
# Sweeps at one block size before the block is doubled.
_MAX_SWEEPS = 30
# A kept triplet has converged once ||W v_i - s_i u_i|| <= _RESIDUAL_TOL * s_1.
_RESIDUAL_TOL = 1e-13


def _leading_svd(W, k_min, threshold, V0, rng, tail):
    """Leading singular triplets of W, certified to cover every singular
    value at or above `threshold`.

    Block subspace iteration (Halko, Martinsson & Tropp, SIAM Review
    2011) from the columns of V0 (or none) plus Gaussian columns drawn
    from `rng`. Each sweep orthonormalises W @ V by QR and takes the
    Rayleigh-Ritz triplets from the SVD of the small matrix W.T @ Q. It
    keeps k = max(k_min, #{s_i > threshold}) triplets once each has
    ||W v_i - s_i u_i|| <= 1e-13 * s_1, and returns them only with a
    proof that sigma_{k+1}(W) < threshold.

    The proof is carried from an earlier call when it can be. `tail` is
    None or (W_ref, B, k_ref) from the last call that ran a certificate,
    with sigma_{k_ref+1}(W_ref) <= B proven. By Weyl's inequality,
    sigma_{k+1}(W) <= sigma_{k_ref+1}(W) <= B + ||W - W_ref||_2, and the
    Frobenius norm bounds the 2-norm. So when W has W_ref's shape,
    k >= k_ref, every kept Ritz value is above `threshold`, and
    B + ||W - W_ref||_F (1 + 1e-12) < threshold, nothing else runs and
    `tail` is handed on unchanged: by the triangle inequality, keeping
    W_ref as the anchor is never looser than chaining from call to call.
    The kept triplets are then the top k: Ritz values interlace,
    s_i <= sigma_i(W), so sigma_k(W) >= s_k > threshold > sigma_{k+1}(W).
    A kept value at or below the threshold, as a d = 2 triplet the prox
    must keep, breaks that chain: the block may then hold a smaller
    direction in place of a missed one above the threshold, which
    sigma_{k+1}(W) < threshold does not rule out.

    Otherwise the residual R = W - (W V_k) V_k.T proves it: a Cholesky
    factorisation of beta^2 * I - G succeeds, G the smaller Gram matrix
    of R, so sigma_{k+1}(W) <= ||R||_2 < beta. beta is first the margin
    (threshold + s_{k+1}) / 2, s_{k+1} the block's next Ritz value, so
    that the bound has room to carry, then the threshold itself. The
    proven beta becomes the new B, with a copy of W and k. Each
    factorisation counts as one certificate.

    Neither proof, or no convergence within _MAX_SWEEPS, doubles the
    block. Returns (factors, tail, certificates): factors is SvdFactors
    with k columns, or None once the block would exceed min(m, n) / 2,
    where the full SVD is the cheaper way to the same triplets; tail is
    the state for the next call, None when factors is.
    """
    W = as_matrix(W)
    m, n = W.shape
    limit = min(m, n) // 2
    start = np.empty((n, 0)) if V0 is None else V0
    b = max(k_min, start.shape[1]) + _BLOCK_PAD
    if b > limit:
        return None, None, 0
    certificates = 0
    carried, k_ref = math.inf, 0
    if tail is not None and tail[0].shape == W.shape:
        W_ref, B, k_ref = tail
        carried = B + float(np.linalg.norm(W - W_ref)) * (1 + 1e-12)
    V = np.hstack([start, rng.standard_normal((n, b - start.shape[1]))])
    Y = W @ V
    sweeps = 0
    while True:
        Q = np.linalg.qr(Y)[0]
        try:
            P, s, Ht = np.linalg.svd(W.T @ Q, full_matrices=False)
        except np.linalg.LinAlgError:
            return None, None, certificates
        U = Q @ Ht.T
        Y = W @ P
        sweeps += 1
        k = max(k_min, int(np.count_nonzero(s > threshold)))
        grow = k == b or sweeps == _MAX_SWEEPS
        if k < b:
            resid = np.linalg.norm(Y[:, :k] - U[:, :k] * s[:k], axis=0)
            if resid.max(initial=0.0) <= _RESIDUAL_TOL * s[0]:
                factors = SvdFactors(U[:, :k], s[:k], P[:, :k])
                if carried < threshold and k >= k_ref and (k == 0 or s[k - 1] > threshold):
                    return factors, tail, certificates
                R = W - Y[:, :k] @ P[:, :k].T
                G = R.T @ R if m >= n else R @ R.T
                margin = 0.5 * (threshold + s[k])
                for bound in (margin, threshold) if margin < threshold else (threshold,):
                    certificates += 1
                    if _norm_below(G, bound):
                        return factors, (W.copy(), bound, k), certificates
                grow = True
        if grow:
            if 2 * b > limit:
                return None, None, certificates
            V = np.hstack([P, rng.standard_normal((n, b))])
            b *= 2
            Y = W @ V
            sweeps = 0


def _norm_below(G, bound):
    """True when the Cholesky factorisation of bound^2 * I - G succeeds;
    for G the Gram matrix of R, that proves ||R||_2 < bound."""
    C = -G
    C.flat[:: C.shape[0] + 1] += bound * bound
    try:
        np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        return False
    return True


def rank_estimate(sigma):
    """Numerical rank: count of singular values above max(1e-8, 1e-8 * sigma[0])."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.size == 0:
        return 0
    tol = max(1e-8, 1e-8 * float(sigma[0]))
    return int(np.count_nonzero(sigma > tol))
