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


# Inputs with at least this many entries may take the truncated route.
# Measured as solve time per prox call on square completion solves with
# one BLAS thread (r = 5, sr 0.8, 500 iterations, median of 5), truncated
# against full SVD: 60x60 1.48 vs 1.34 ms, 70x70 1.44 vs 1.59 ms,
# 100x100 1.73 vs 3.49 ms. The cutoff keeps a margin above that
# break-even point.
_TRUNCATE_MIN_SIZE = 10_000
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
# u, the unit roundoff of float64.
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _gram_start_pays(m, n, b):
    """True when starting from the short-side Gram matrix of an m x n
    input is cheaper by the model above than warm-started sweeps with a
    block of b columns. 1600x60 and 400x30 take it at b = 8, 120x100
    does not below b = 55, and a square input would need b >= 0.65 p,
    past the block limit p / 2."""
    p, q = min(m, n), max(m, n)
    return 2 * q * p * p + _EIGH_COST * p**3 <= _SAVED_SWEEP_COST * 4 * q * p * b


def _gram_basis(W):
    """The m x m Gram matrix C = W W^T of a W with m <= n, with its
    eigenvalues in descending order and the matching orthonormal
    eigenvectors, whose leading columns span the leading left singular
    subspace of W."""
    C = W @ W.T
    values, vectors = np.linalg.eigh(C)
    return C, values[::-1], vectors[:, ::-1]


def _gram_residual(C, Y, n):
    """(G, delta): G = C - Y Y^T, the Gram matrix R R^T of the residual
    R = W - Y P^T of a W with C = W W^T, Y = W P and P n x k with
    orthonormal columns, and a bound delta on how far the computed G can
    sit below R R^T in the 2-norm.

    The identity holds because P^T P = I. For the rounding, let u be the
    unit roundoff, gamma_j = j u / (1 - j u) and t = trace(C) = ||W||_F^2,
    which bounds ||W||_2^2 and ||Y||_F^2. Every entry of a computed
    product of A and B is an inner product, within gamma_j (|A| |B|) of
    the exact one for an inner length j (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, section 3.5). So the computed C is
    within gamma_n t of C; each row of the computed W P has k entries,
    each a length-n product with a unit column, so Y is within gamma_n
    sqrt(k t) in the Frobenius norm and Y Y^T moves by at most
    2 gamma_n sqrt(k) t and the second-order term; the product Y Y^T adds
    gamma_k t. These sum to about ((1 + 2 sqrt(k)) n + k) u t, and
    delta = c (n + k) u t with c = 2 (1 + sqrt(k)) leaves room for the
    subtraction, the second-order terms and P's orthonormality, which
    holds to rounding. The Gram squares the spectrum, so delta is set by
    sigma_1(W)^2, not by the tail: no bound at or below sqrt(delta), which
    is at least sigma_1 sqrt(c (n + k) u), can be proven from it.
    """
    k = Y.shape[1]
    G = C - Y @ Y.T
    delta = 2 * (1 + math.sqrt(k)) * (n + k) * _UNIT_ROUNDOFF * float(np.trace(C))
    return G, delta


class ProxWarmStart:
    """State one solve carries from prox to prox for _leading_svd.

    V is the right factor of the last prox output (None before the
    first) and rng draws the random starting columns. `tail` is the
    proof that the next call on the subspace route may carry forward
    instead of running a certificate: (W_ref, B, k_ref), a private copy
    of the W of the last call that ran one, a proven bound B on its
    singular value k_ref + 1, and k_ref, or None. A call that does not
    return factors from that route clears it. `hold` is the rank at
    which the route is declined after a fallback (math.inf when none).
    `calls` counts the calls, `fallbacks` those that tried the truncated
    route and returned no factors, `certificates` the Cholesky
    factorisations, retries included, and `sweeps` the Rayleigh-Ritz
    steps.
    """

    def __init__(self, seed):
        self.V = None
        self.rng = np.random.default_rng(seed)
        self.tail = None
        self.hold = math.inf
        self.calls = 0
        self.fallbacks = 0
        self.certificates = 0
        self.sweeps = 0


def _leading_svd(W, k_min, threshold, warm):
    """Leading singular triplets of W, certified to cover every singular
    value at or above `threshold`, or None where the full SVD should run.
    W, a float64 matrix, is not checked; a non-finite one gets None.

    Each call counts in warm.calls and takes warm.tail. With rank =
    max(k_min, columns of warm.V), it declines, with nothing else
    counted, when W has fewer than _TRUNCATE_MIN_SIZE entries, while
    rank >= warm.hold, or when its first block, rank + _BLOCK_PAD,
    exceeds min(m, n) / 2. A call below the hold clears it.

    A call that tries the route and returns no factors counts in
    warm.fallbacks and sets warm.hold = max(1, rank). Within a solve the
    iterate's rank seldom falls far, so a retry at that rank or above
    would most likely fail again and pay for the failed block on top of
    the full SVD; one released at every small drop in rank would retry
    the same large block call after call. The hold keeps such a solve on
    the full SVD after one attempt.

    Otherwise the triplets come from block subspace iteration (Halko,
    Martinsson & Tropp, SIAM Review 2011); see _certified_triplets.
    Returns SvdFactors with k columns, or None.
    """
    warm.calls += 1
    tail, warm.tail = warm.tail, None
    if W.size < _TRUNCATE_MIN_SIZE:
        return None
    start = np.empty((W.shape[1], 0)) if warm.V is None else warm.V
    rank = max(k_min, start.shape[1])
    if rank >= warm.hold:
        return None
    warm.hold = math.inf
    b = rank + _BLOCK_PAD
    if b > min(W.shape) // 2:
        return None
    factors = _certified_triplets(W, k_min, threshold, warm, start, b, tail)
    if factors is None:
        warm.fallbacks += 1
        warm.hold = max(1, rank)
    return factors


def _certified_triplets(W, k_min, threshold, warm, start, b, tail):
    """The route behind _leading_svd, from a first block of b <= min(m, n)
    / 2 columns, b at least the columns of `start` + _BLOCK_PAD.

    Each sweep takes an orthonormal left basis Q, the Rayleigh-Ritz
    triplets from the SVD of the small matrix W.T @ Q, and the next Q from
    the QR of W @ V, V their right vectors. It keeps
    k = max(k_min, #{s_i > threshold}) triplets once each has
    ||W v_i - s_i u_i|| <= 1e-13 * s_1, and returns them only with a
    proof that sigma_{k+1}(W) < threshold. Each sweep, over every block
    size, adds to warm.sweeps.

    The first Q comes from one of two routes. On the Gram route, taken
    when _gram_start_pays says so for W's shape and b, W is handled in
    its wide orientation (transposed when tall, with the factors swapped
    back) and _gram_basis gives the short-side Gram matrix C = W W^T
    with its eigenvalues and eigenvectors. When at least b eigenvalues
    exceed threshold^2, b becomes their count + _BLOCK_PAD, so that the
    block holds every value above the threshold and a gap past it, and
    the call fails if that b exceeds min(m, n) / 2; otherwise b stays.
    Q is the top b eigenvectors, which hold the leading subspace to
    rounding, so one sweep is usually the Rayleigh-Ritz step that
    finishes the call (Golub & Van Loan, Matrix Computations, 8.6). The
    Gram squares the singular values, so small kept values can lose
    their digits there; the residual test then fails and the sweeps go
    on. On the subspace route, Q is the QR of W @ V for V the columns of
    `start` plus Gaussian columns drawn from warm.rng.

    The proof is a Cholesky factorisation of beta^2 * I - G that
    succeeds, for G the Gram matrix of the residual R = W - (W V_k) V_k.T
    on its short side, so sigma_{k+1}(W) <= ||R||_2 < beta (W V_k V_k.T
    has rank k). Each factorisation adds to warm.certificates. On the
    Gram route, G is C - Y_k Y_k^T, with Y = W V, and one factorisation
    runs at beta = threshold, less the rounding bound of _gram_residual:
    an m x m proof with no pass over R. It neither takes nor leaves a
    tail, because the ||W - W_ref|| pass below would cost more than it.
    On the subspace route beta is first the margin (threshold + s_{k+1})
    / 2, s_{k+1} the block's next Ritz value, so that the bound has room
    to carry, then the threshold itself.

    On the subspace route the proof is carried from an earlier call when
    it can be. With (W_ref, B, k_ref) the taken tail,
    sigma_{k_ref+1}(W_ref) <= B, Weyl's inequality gives
    sigma_{k+1}(W) <= sigma_{k_ref+1}(W) <= B + ||W - W_ref||_2, and the
    Frobenius norm bounds the 2-norm. So when W has W_ref's shape,
    k >= k_ref, every kept Ritz value is above `threshold`, and
    B + ||W - W_ref||_F (1 + 1e-12) < threshold, nothing else runs and
    the tail is handed on unchanged: by the triangle inequality, keeping
    W_ref as the anchor is never looser than chaining from call to call.
    The kept triplets are then the top k: Ritz values interlace,
    s_i <= sigma_i(W), so sigma_k(W) >= s_k > threshold > sigma_{k+1}(W).
    A kept value at or below the threshold, as a d = 2 triplet the prox
    must keep, breaks that chain: the block may then hold a smaller
    direction in place of a missed one above the threshold, which
    sigma_{k+1}(W) < threshold does not rule out. Otherwise G = R.T @ R
    or R @ R.T proves it, and the proven beta becomes the new warm.tail,
    with a copy of W and k.

    Neither proof, or no convergence within _MAX_SWEEPS, doubles the
    block. Returns SvdFactors with k columns, or None once the block
    would exceed min(m, n) / 2, where the full SVD is the cheaper way to
    the same triplets, or when a decomposition fails.
    """
    m, n = W.shape
    limit = min(m, n) // 2
    gram = _gram_start_pays(m, n, b)
    flip = gram and m > n
    if flip:
        W = W.T
        m, n = n, m
    carried, k_ref = math.inf, 0
    if gram:
        try:
            C, values, vectors = _gram_basis(W)
        except np.linalg.LinAlgError:
            return None
        above = int(np.count_nonzero(values > threshold * threshold))
        if above >= b:
            b = above + _BLOCK_PAD
            if b > limit:
                return None
        Q = vectors[:, :b]
    else:
        if tail is not None and tail[0].shape == W.shape:
            W_ref, B, k_ref = tail
            carried = B + float(np.linalg.norm(W - W_ref)) * (1 + 1e-12)
        V = np.hstack([start, warm.rng.standard_normal((n, b - start.shape[1]))])
        Q = np.linalg.qr(W @ V)[0]
    sweeps = 0
    while True:
        try:
            P, s, Ht = np.linalg.svd(W.T @ Q, full_matrices=False)
        except np.linalg.LinAlgError:
            return None
        U = Q @ Ht.T
        Y = W @ P
        sweeps += 1
        warm.sweeps += 1
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
                    warm.tail = tail
                    return factors
                if gram:
                    G, slack = _gram_residual(C, Y[:, :k], n)
                else:
                    R = W - Y[:, :k] @ P[:, :k].T
                    G, slack = R.T @ R if m >= n else R @ R.T, 0.0
                margin = 0.5 * (threshold + s[k])
                for bound in (threshold,) if gram or margin >= threshold else (margin, threshold):
                    warm.certificates += 1
                    if _norm_below(G, bound, slack):
                        if not gram:
                            warm.tail = (W.copy(), bound, k)
                        return factors
                grow = True
        if grow:
            if 2 * b > limit:
                return None
            V = np.hstack([P, warm.rng.standard_normal((n, b))])
            b *= 2
            Y = W @ V
            sweeps = 0
        Q = np.linalg.qr(Y)[0]


def _norm_below(G, bound, slack=0.0):
    """True when the Cholesky factorisation of (bound^2 - slack) * I - G
    succeeds; for G within slack of the Gram matrix of R, that proves
    ||R||_2 < bound."""
    A = -G
    A.flat[:: A.shape[0] + 1] += bound * bound - slack
    try:
        np.linalg.cholesky(A)
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
