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
# Cost model of the Gram start, in flops of the Gram product, for a
# q x p input (p <= q) and a block of b columns: the p x p Gram matrix and
# its eigendecomposition cost 2 q p^2 + _EIGH_COST * p^3, against
# _SAVED_SWEEP_COST * 4 q p b for the subspace sweeps it saves. Fitted on
# medians of 200 timings with one BLAS thread on a 2-vCPU Xeon: eigh took
# 0.53 ms at p = 60, 1.56 ms at 100, 5.79 ms at 200 and 49 ms at 500,
# i.e. 83, 62, 43 and 20 Gram flops per p^3. One sweep at b = 8 to 16
# took 7 to 16 times the Gram's time per flop (thin products and a tall
# QR: 1600x60 0.65 ms, 7x; 120x100 0.16 ms, 17x; 200x200 0.24 ms, 11x),
# say 8, and warm-started sweeps ran 4.0 per call on the 1600x60
# perfbench video, of which the Gram start saves 3: 3 * 8 = 24.
_EIGH_COST = 60
_SAVED_SWEEP_COST = 24


def _gram_start_pays(m, n, b):
    """True when starting from the short-side Gram matrix of an m x n
    input is cheaper by the model above than warm-started sweeps with a
    block of b columns. 1600x60 and 400x30 take it at b = 8, 120x100
    does not below b = 55, and a square input would need b >= 0.65 p,
    past the block limit p / 2."""
    p, q = min(m, n), max(m, n)
    return 2 * q * p * p + _EIGH_COST * p**3 <= _SAVED_SWEEP_COST * 4 * q * p * b


def _gram_basis(W, b):
    """Orthonormal (m, b) basis of the leading left singular subspace of a
    W with m <= n: the top b eigenvectors of the m x m Gram matrix W W^T."""
    vectors = np.linalg.eigh(W @ W.T)[1]
    return vectors[:, ::-1][:, :b]


def _leading_svd(W, k_min, threshold, V0, rng, tail):
    """Leading singular triplets of W, certified to cover every singular
    value at or above `threshold`.

    Block subspace iteration (Halko, Martinsson & Tropp, SIAM Review
    2011). Each sweep takes an orthonormal left basis Q, the Rayleigh-Ritz
    triplets from the SVD of the small matrix W.T @ Q, and the next Q from
    the QR of W @ V, V their right vectors. It keeps
    k = max(k_min, #{s_i > threshold}) triplets once each has
    ||W v_i - s_i u_i|| <= 1e-13 * s_1, and returns them only with a
    proof that sigma_{k+1}(W) < threshold.

    The first Q comes from one of two starts. When _gram_start_pays says
    so for W's shape and the block, W is handled in its wide orientation
    (transposed when tall, with the factors swapped back) and Q is the top
    eigenvectors of the short-side Gram matrix, which hold the leading
    subspace to rounding, so one sweep is usually the Rayleigh-Ritz step
    that finishes the call (Golub & Van Loan, Matrix Computations, 8.6).
    The Gram squares the singular values, so small kept values can lose
    their digits there; the residual test then fails and the sweeps go on
    as below. Otherwise Q is the QR of W @ V for V the columns of V0 (or
    none) plus Gaussian columns drawn from `rng`.

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
    block. Returns (factors, tail, certificates, sweeps): factors is
    SvdFactors with k columns, or None once the block would exceed
    min(m, n) / 2, where the full SVD is the cheaper way to the same
    triplets; tail is the state for the next call, None when factors is;
    sweeps counts the Rayleigh-Ritz steps over every block size.
    """
    W = as_matrix(W)
    m, n = W.shape
    limit = min(m, n) // 2
    start = np.empty((n, 0)) if V0 is None else V0
    b = max(k_min, start.shape[1]) + _BLOCK_PAD
    if b > limit:
        return None, None, 0, 0
    certificates = 0
    carried, k_ref = math.inf, 0
    if tail is not None and tail[0].shape == W.shape:
        W_ref, B, k_ref = tail
        carried = B + float(np.linalg.norm(W - W_ref)) * (1 + 1e-12)
    given = W
    gram = _gram_start_pays(m, n, b)
    flip = gram and m > n
    if flip:
        W = W.T
        m, n = n, m
    if gram:
        try:
            Q = _gram_basis(W, b)
        except np.linalg.LinAlgError:
            return None, None, 0, 0
    else:
        V = np.hstack([start, rng.standard_normal((n, b - start.shape[1]))])
        Q = np.linalg.qr(W @ V)[0]
    sweeps = total = 0
    while True:
        try:
            P, s, Ht = np.linalg.svd(W.T @ Q, full_matrices=False)
        except np.linalg.LinAlgError:
            return None, None, certificates, total
        U = Q @ Ht.T
        Y = W @ P
        sweeps += 1
        total += 1
        k = max(k_min, int(np.count_nonzero(s > threshold)))
        grow = k == b or sweeps == _MAX_SWEEPS
        if k < b:
            resid = np.linalg.norm(Y[:, :k] - U[:, :k] * s[:k], axis=0)
            if resid.max(initial=0.0) <= _RESIDUAL_TOL * s[0]:
                if flip:
                    factors = SvdFactors(P[:, :k], s[:k], U[:, :k])
                else:
                    factors = SvdFactors(U[:, :k], s[:k], P[:, :k])
                if carried < threshold and k >= k_ref and (k == 0 or s[k - 1] > threshold):
                    return factors, tail, certificates, total
                R = W - Y[:, :k] @ P[:, :k].T
                G = R.T @ R if m >= n else R @ R.T
                margin = 0.5 * (threshold + s[k])
                for bound in (margin, threshold) if margin < threshold else (threshold,):
                    certificates += 1
                    if _norm_below(G, bound):
                        return factors, (given.copy(), bound, k), certificates, total
                grow = True
        if grow:
            if 2 * b > limit:
                return None, None, certificates, total
            V = np.hstack([P, rng.standard_normal((n, b))])
            b *= 2
            Y = W @ V
            sweeps = 0
        Q = np.linalg.qr(Y)[0]


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
