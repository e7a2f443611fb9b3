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
# u, the unit roundoff of float64.
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
# Each truncated route's running (sweeps, certificates, calls) before a
# solve's first call on it: a Gram call takes one sweep and one proof, and a
# warm-started rank-5 call on the subspace route about 6 sweeps.
_PRIOR_PACE = {"gram": (1.0, 1.0, 1), "subspace": (6.0, 1.0, 1)}
# Near ties go to the exact path: a truncated route runs only when priced
# below this share of the full SVD. Whole solves on the subspace route tie
# with it at 60 x 60 and take 0.63 of its time at 80 x 80.
_TIE = 0.8

# Prices are microseconds with one BLAS thread for an m x n input with short
# side p and long side q, after the operation counts of Halko, Martinsson &
# Tropp (SIAM Review 2011, section 6). They fit these `python -m timeit`
# best-of-5 times in ms, on Gaussian inputs with OPENBLAS_NUM_THREADS=1 on a
# 2-vCPU Xeon (numpy 2.4, OpenBLAS 0.3.31):
#   full SVD     60^2 0.52, 80^2 1.39, 120^2 3.11, 200^2 10.1, 500^2 81.5,
#                1600x60 4.92, 400x30 0.54
#   one sweep    b = 8: 60^2 0.06, 80^2 0.09, 200^2 0.29, 1600x60 0.46;
#                b = 48: 120^2 1.20, 200^2 1.57
#   certificate  k = 5: 60^2 0.05, 200^2 0.82, 1600x60 0.60
#   Gram + eigh  60^2 0.33, 1600x60 0.90, 200^2 5.49
# A tall SVD costs more per flop than a square one, hence the full SVD's two
# terms; the eigh costs about half a square SVD. The kernels alone price the
# subspace route at 0.40 ms against 0.52 at 60 x 60, where whole solves tie,
# so each call adds 100 us; the Gram route's p x p proof costs 10 us.


def _prices(m, n, b, pace):
    """(full, gram, subspace, sweep): the prices of the full SVD, of the two
    truncated routes from a first block of b columns, each at the rates of
    its running counts in pace, and of one sweep. A block that leaves under
    _BLOCK_PAD columns of the short side does the full SVD's work."""
    p, q = min(m, n), max(m, n)
    square = 0.03 * p**2.4
    full = square + 0.016 * (q - p) * p**1.25
    sweep = 45 + 4.7e-4 * m * n * b + 1e-3 * (m + n) * b * b
    if b > p - _BLOCK_PAD:
        return full, math.inf, math.inf, sweep
    (gs, gc, gn), (ss, sc, sn) = pace["gram"], pace["subspace"]
    gram = 100 + 1e-4 * q * p * p + square / 2 + (gs * sweep + gc * 10) / gn
    subspace = 100 + (ss * sweep + sc * (30 + 1e-4 * q * p * p)) / sn
    return full, gram, subspace, sweep


def _route(m, n, b, pace):
    """The route predictor: "gram" or "subspace", whichever _prices makes
    cheaper, or None where the full SVD should run."""
    full, gram, subspace, _ = _prices(m, n, b, pace)
    if min(gram, subspace) >= _TIE * full:
        return None
    return "gram" if gram < subspace else "subspace"


def _gram_basis(W):
    """C = W W^T for a W with m <= n, its eigenvalues in descending order and
    their orthonormal eigenvectors, whose leading columns span the leading
    left singular subspace of W."""
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

    V is the right factor of the last prox output (None before the first)
    and rng draws the random starting columns. `tail` is the proof the next
    subspace-route call may carry instead of running a certificate:
    (W_ref, B, k_ref), a copy of the W of the last call that ran one, a
    proven bound B on its singular value k_ref + 1, and k_ref, or None; a
    call that returns no factors from that route clears it. `pace` maps
    each truncated route to its running (sweeps, certificates, calls).
    `calls` counts the calls, `fallbacks` those that tried a truncated
    route and returned no factors, `certificates` the Cholesky
    factorisations, retries included, and `sweeps` the Rayleigh-Ritz steps.
    """

    def __init__(self, seed):
        self.V = None
        self.rng = np.random.default_rng(seed)
        self.tail = None
        self.pace = dict(_PRIOR_PACE)
        self.calls = 0
        self.fallbacks = 0
        self.certificates = 0
        self.sweeps = 0


def _leading_svd(W, k_min, threshold, warm):
    """Leading singular triplets of W, certified to cover every singular
    value at or above `threshold`, or None where the full SVD should run.
    W, a float64 matrix, is not checked; a non-finite one gets None.

    Each call counts in warm.calls and takes warm.tail. _route picks the
    route for a first block of max(k_min, columns of warm.V) + _BLOCK_PAD
    columns; a declined call counts nothing else, and one that returns no
    factors counts in warm.fallbacks. A Gram call, or a subspace call warm
    started from warm.V, adds its sweeps and certificates to its route's
    warm.pace; a failed one restarts them from its own cost, the full SVD
    it forced counted in sweeps of its first block, which prices the route
    above the full SVD at that block and wider ones until the rank falls
    well below it.
    See _certified_triplets (Halko, Martinsson & Tropp, SIAM Review 2011).
    """
    warm.calls += 1
    tail, warm.tail = warm.tail, None
    m, n = W.shape
    start = np.empty((n, 0)) if warm.V is None else warm.V
    b = max(k_min, start.shape[1]) + _BLOCK_PAD
    route = _route(m, n, b, warm.pace)
    if route is None:
        return None
    sweeps, certificates = warm.sweeps, warm.certificates
    factors = _certified_triplets(W, k_min, threshold, warm, start, b, tail, route == "gram")
    spent = (warm.sweeps - sweeps, warm.certificates - certificates, 1)
    if factors is None:
        warm.fallbacks += 1
        full, _, _, sweep = _prices(m, n, b, warm.pace)
        warm.pace[route] = (spent[0] + full / sweep, spent[1], 1)
    elif route == "gram" or start.shape[1]:
        warm.pace[route] = tuple(map(sum, zip(warm.pace[route], spent)))
    return factors


def _certified_triplets(W, k_min, threshold, warm, start, b, tail, gram):
    """The Gram route when `gram`, else the subspace route, for _leading_svd
    from a first block of b >= _BLOCK_PAD + the columns of `start`.

    Each sweep, counted in warm.sweeps, takes an orthonormal left basis Q,
    the Rayleigh-Ritz triplets from the SVD of W.T @ Q and the next Q from
    the QR of W @ V, V their right vectors. It keeps k = max(k_min,
    #{s_i > threshold}) triplets once each has ||W v_i - s_i u_i|| <=
    1e-13 * s_1, and returns them only with a proof that sigma_{k+1}(W) <
    threshold. Neither proof, or no convergence within _MAX_SWEEPS, doubles
    the block, unless _prices puts the subspace route with the doubled
    block at or above the full SVD: then, or when a decomposition fails,
    it returns None. Otherwise it returns SvdFactors with k columns.

    On the Gram route W is handled in its wide orientation (the factors
    swapped back) and _gram_basis gives C = W W^T with its eigenpairs. When
    b or more eigenvalues exceed threshold^2, b becomes their count +
    _BLOCK_PAD, so that the block holds every value above the threshold
    and a gap past it, and the call fails unless _prices puts the Gram
    route at that b below the full SVD. Q is the top b eigenvectors, which
    hold the leading subspace to rounding, so one sweep usually finishes
    (Golub & Van Loan, Matrix Computations, 8.6). The Gram squares the
    singular values, so small kept values can lose their digits; the
    residual test then fails and the sweeps go on. On the subspace route Q
    is the QR of W @ V for V the columns of `start` and Gaussian columns
    from warm.rng.

    The proof is a Cholesky factorisation of beta^2 * I - G that succeeds,
    counted in warm.certificates, for G the Gram matrix of R = W - (W V_k)
    V_k.T on its short side: W V_k V_k.T has rank k, so sigma_{k+1}(W) <=
    ||R||_2 < beta. On the Gram route G is C - Y_k Y_k^T, Y = W V, proven
    once at beta = threshold less the rounding bound of _gram_residual,
    with no pass over R and no tail taken or left, as the ||W - W_ref||
    pass would cost more. On the subspace route beta is first the margin
    (threshold + s_{k+1}) / 2, s_{k+1} the next Ritz value, so that the
    bound has room to carry, then the threshold; a proven beta becomes
    warm.tail with a copy of W and k.

    There a taken tail (W_ref, B, k_ref), sigma_{k_ref+1}(W_ref) <= B,
    replaces the proof when it can: by Weyl's inequality sigma_{k+1}(W) <=
    sigma_{k_ref+1}(W) <= B + ||W - W_ref||_2 <= B + ||W - W_ref||_F. So
    when W has W_ref's shape, k >= k_ref, every kept Ritz value is above
    `threshold` and B + ||W - W_ref||_F (1 + 1e-12) < threshold, nothing
    else runs and the tail is handed on; keeping W_ref as the anchor is
    never looser than chaining from call to call. The kept triplets are
    then the top k: Ritz values interlace, s_i <= sigma_i(W), so sigma_k(W)
    >= s_k > threshold > sigma_{k+1}(W). A kept value at or below the
    threshold, as a d = 2 triplet the prox must keep, breaks that chain:
    the block may hold a smaller direction in place of a missed one above
    the threshold, which sigma_{k+1}(W) < threshold does not rule out.
    """
    m, n = W.shape
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
            full, gram_price, _, _ = _prices(m, n, b, warm.pace)
            if gram_price >= full:
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
                left, right = (P, U) if flip else (U, P)
                factors = SvdFactors(left[:, :k], s[:k], right[:, :k])
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
            full, _, subspace, _ = _prices(m, n, 2 * b, warm.pace)
            if subspace >= full:
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
