"""Dense matrix utilities and the thin-SVD contract used everywhere else.

Matrices are plain 2-D float64 numpy arrays with finite entries; the
helpers here validate that contract and wrap the numerical backend so
downstream modules never call LAPACK directly. Every factorisation, the
full SVD and the Gram route's full eigh included, goes through the four
kernels _q_factor, _thin_svd, _eigh and _cholesky.
"""

import math
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg


class DecompositionError(RuntimeError):
    """The SVD backend failed to converge on the given matrix."""


class SvdFactors(NamedTuple):
    """Thin SVD of a matrix W: W = U @ diag(sigma) @ V.T.

    U is (m, k), sigma is (k,) sorted descending, V is (n, k) with
    k = min(m, n) (fewer for a truncated SVD, which keeps the leading
    triplets). Both factor matrices have orthonormal columns, one taken
    from Gram eigenpairs to about 1e-10.
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
    return _frobenius(as_matrix(X))


def _frobenius(A):
    """np.linalg.norm(A) of a float64 array A, bit for bit, without its
    wrapper: the square root of the dot product of A's entries in memory
    order."""
    a = A.ravel("K")
    return math.sqrt(a @ a)


def _largest_column_norm(R):
    """np.linalg.norm(R, axis=0).max(initial=0.0) of a float64 matrix R,
    bit for bit: the square root is monotone, so it is taken once."""
    return math.sqrt((R * R).sum(0).max(initial=0.0))


def svd(W):
    """Thin SVD with the tall orientation handled internally.

    When W has fewer rows than columns _thin_svd runs on the transpose
    and the factors are swapped back, so callers always get min(m, n)
    singular values in descending order.
    """
    W = as_matrix(W)
    wide = W.shape[0] < W.shape[1]
    try:
        U, s, Vh = _thin_svd(W.T if wide else W)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD failed on {W.shape} matrix: {exc}") from exc
    return SvdFactors(Vh.T, s, U) if wide else SvdFactors(U, s, Vh.T)


def _lapack_failed(err, flag):
    raise np.linalg.LinAlgError("LAPACK reported a failure")


def _lapack_errstate():
    """The error state numpy.linalg runs its LAPACK gufuncs under: they
    flag a failure (no convergence, a matrix that is not positive definite)
    as an invalid value, which raises np.linalg.LinAlgError, and no other
    floating-point flag warns."""
    return np.errstate(call=_lapack_failed, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


# The kernels call the LAPACK gufuncs behind numpy.linalg themselves: the
# same calls in the same order, so the same bits, without the per-call
# checks and the R that np.linalg.qr forms and these callers discard. At
# 60 x 10 that wrapper costs about as much as the factorisation.
def _q_factor(Y):
    """np.linalg.qr(Y)[0] of a float64 matrix Y, bit for bit: the
    Householder Q alone."""
    a = Y.copy()  # qr_r_raw overwrites its input with R and the reflectors
    with _lapack_errstate():
        return _umath_linalg.qr_reduced(a, _umath_linalg.qr_r_raw(a))


def _thin_svd(A):
    """np.linalg.svd(A, full_matrices=False) of a float64 matrix A, bit
    for bit: (U, s, Vh)."""
    with _lapack_errstate():
        return _umath_linalg.svd_s(A)


def _eigh(A):
    """np.linalg.eigh(A) of a symmetric float64 matrix A, from the lower
    triangle, reversed: eigenvalues descending and their eigenvectors, bit
    for bit."""
    with _lapack_errstate():
        values, vectors = _umath_linalg.eigh_lo(A)
    return values[::-1], vectors[:, ::-1]


def _cholesky(A):
    """np.linalg.cholesky(A) of a symmetric float64 matrix A, bit for bit:
    the lower factor, or np.linalg.LinAlgError where A is not positive definite."""
    with _lapack_errstate():
        return _umath_linalg.cholesky_lo(A)


# Extra columns carried beyond the triplets a truncated SVD must return;
# the gap to singular value b + 1 sets how fast the kept ones converge.
_BLOCK_PAD = 5
# The most power steps a warm subspace call applies to its block before
# each QR (see _subspace_triplets); each costs two products with W, less
# than the QR and small SVD that a step pays anyway.
_POWER_STEPS = 2
# The largest power of the spread of a block's Ritz values that the block
# may reach before any QR (see _powers).
_POWER_SPREAD = 1e10
# The most power steps Y <- C Y a warm Gram call's step applies to its block
# C Q before the QR. Over 1600 x 60 video solves (seeds 1-10, 4990 warm
# calls, at most three steps a call), one power step took 1.98 steps per
# call and 172 full eighs, two 1.36 steps and three 1.30, with no full eigh;
# four uncapped took 1.85, as the small kept directions sank below the
# rounding of the top one.
_GRAM_POWERS = 3
# The most shrink per step a warm Gram call's start block may predict (see
# _gram_triplets). The video's warm calls predict 1e-5 or less; SVT's wide
# blocks at 120 x 120 and 200 x 200 predict 0.1-1 and missed on every call
# before the full eigh ran anyway.
_GRAM_SHRINK = 1e-4
# Rayleigh-Ritz steps a call runs before it gives up (see _ritz).
_MAX_SWEEPS = 30
# A kept triplet has converged once ||W v_i - s_i u_i|| <= _RESIDUAL_TOL * s_1.
_RESIDUAL_TOL = 1e-13
# Power products run on W as it is while ||W||_F^2 = f 2^e, 1/2 <= f < 1,
# has |e| <= _UNSCALED_EXPONENT. The largest of them, (W W^T)^4 Q on the
# Gram route, then stays below 2^512, so neither it nor the kept directions
# far below it overflow or underflow. Past that each product first scales
# its operand by 2^-e (see _ritz).
_UNSCALED_EXPONENT = 128
# u, the unit roundoff of float64.
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _routes(m, n, b):
    """The truncated routes allowed for a block of b columns of an m x n
    input with short side p and long side q, in order of preference: the
    Gram route first on a thin input, q >= 4 p, where its p x p eigh
    replaces work on the long side, and the subspace route first on the
    rest. The Gram route needs m n >= 10^4 and a thin input or p >= 80,
    below which its per-call costs eat its gain; the subspace route needs
    p >= 50 and 6 b <= p, as a wider block pays more sweeps than the full
    SVD they replace. A block that leaves under _BLOCK_PAD columns of the
    short side does the full SVD's work and takes neither.

    So rank-5 completions take the subspace route from 60 x 60 up, SVT's
    blocks of about 95-110 at 200 x 200 and the 1600 x 60 video take the
    Gram route, and SVT's blocks of 15-20 at 60 x 60 take the full SVD.
    None of these is near a tie: priced by operation counts after Halko,
    Martinsson & Tropp (SIAM Review 2011, section 6), the subspace blocks
    cost 0.06-0.6 of the full SVD, the Gram blocks 0.2-0.63, and SVT's
    60 x 60 blocks at least 0.96 of it on either route.
    """
    p, q = min(m, n), max(m, n)
    if b > p - _BLOCK_PAD:
        return ()
    thin = q >= 4 * p
    allowed = {
        "gram": m * n >= 10_000 and (thin or p >= 80),
        "subspace": p >= 50 and 6 * b <= p,
    }
    order = ("gram", "subspace") if thin else ("subspace", "gram")
    return tuple(route for route in order if allowed[route])


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
    A proof from G needs no orthonormal P: Y Y^T has rank k, so
    lambda_{k+1}(C) <= lambda_1(C - Y Y^T) for any Y by Weyl's inequality.
    """
    k = Y.shape[1]
    G = C - Y @ Y.T
    delta = 2 * (1 + math.sqrt(k)) * (n + k) * _UNIT_ROUNDOFF * float(np.trace(C))
    return G, delta


class ProxWarmStart:
    """State one solve carries from prox to prox for _leading_svd.

    V is the right factor of the last prox output (None before the first),
    rng draws the random starting columns and `tail` is the (W_ref, B,
    k_ref) proof the next subspace call may carry, or None. `hold` maps a
    truncated route to the block of its last failed call while that failure
    keeps the route out (see _leading_svd). `calls`
    counts the calls, `fallbacks` those that tried a route and returned no
    factors, `certificates` the Cholesky factorisations and `sweeps` the
    Rayleigh-Ritz steps of both routes, not the subspace route's filter
    steps. `spread` is s_1 / s_b of the last subspace step's Ritz values,
    inf before the first, which caps the power steps of the next warm
    subspace call. `gram` is the (eigenvectors, eigenvalues) block of the
    top k + _BLOCK_PAD pairs of C = W W^T, W wide, that the last Gram call
    which returned factors kept, or None; the next Gram call starts from it.
    """

    def __init__(self, seed):
        self.V = None
        self.rng = np.random.default_rng(seed)
        self.tail = None
        self.hold = {}
        self.calls = 0
        self.fallbacks = 0
        self.certificates = 0
        self.sweeps = 0
        self.spread = math.inf
        self.gram = None


def _leading_svd(W, k_min, threshold, warm):
    """Leading singular triplets of W, certified to cover every singular
    value at or above `threshold`, or None where the full SVD should run.

    The block has max(k_min, columns of warm.V) + _BLOCK_PAD columns, and
    the call takes the first of _routes for it that is not held. A failed
    Gram call, or a failed subspace call warm started from columns of
    warm.V, holds its route while the block stays above half of its own:
    a failure at one rank predicts failures at ranks near it, each paying
    for the route and then the full SVD. A held call falls through to the
    next allowed route, or to the full SVD; the first call that takes the
    route again ends its hold. A failed cold subspace call sets no hold, as
    its random block says nothing of the warm calls after it.

    W, a float64 matrix, is not checked on entry. A W whose ||W||_F^2 is
    not finite, as a non-finite entry or an overflow makes it, fails its
    route before any product, with no warning: the full SVD rejects a
    non-finite W, and scales one that overflows only in its square. A W
    with a finite ||W||_F^2 far from 1 (see _UNSCALED_EXPONENT) has its
    power products scaled by a power of two, so c W and c threshold, c a
    power of two, take the route and the counts of W and threshold, and
    the same factors with s times c, while no entry of c W is subnormal
    and, on the Gram route, ||c W||_F^2 stays below about 2^480, past
    which LAPACK's eigh scales C by a factor that is not a power of two.
    """
    warm.calls += 1
    tail, warm.tail = warm.tail, None
    m, n = W.shape
    start = np.empty((n, 0)) if warm.V is None else warm.V
    b = max(k_min, start.shape[1]) + _BLOCK_PAD
    routes = [r for r in _routes(m, n, b) if 2 * b <= warm.hold.get(r, math.inf)]
    if not routes:
        return None
    route = routes[0]
    warm.hold.pop(route, None)
    a = W.ravel("K")
    # vdot, unlike matmul, leaves an overflow to its result with no warning
    norm2 = np.vdot(a, a)
    e = math.frexp(norm2)[1]
    scale = 1.0 if abs(e) <= _UNSCALED_EXPONENT else math.ldexp(1.0, -e)
    if not math.isfinite(norm2):
        factors = None
    elif route == "gram":
        factors = _gram_triplets(W, k_min, threshold, warm, scale)
    else:
        factors = _subspace_triplets(W, k_min, threshold, warm, start, b, tail, scale)
    if factors is None:
        warm.fallbacks += 1
        if route == "gram" or start.shape[1]:
            warm.hold[route] = b
    return factors


def _powers(spread, most, reach):
    """q, the most power steps up to `most` that keep spread^(2 q + reach)
    within _POWER_SPREAD, or None where not even q = 0 does.

    `spread` is s_1 / s_j of Ritz values of W. A block W P, P orthonormal,
    has reach 1 and a block W W^T Q, Q orthonormal, reach 2; q power steps
    Y <- W W^T Y raise the spread of either to the power 2 q + reach.
    Past the cap the smaller columns sink below the rounding of the top
    one in the QR, and the block loses them.
    """
    for q in range(most, -1, -1):
        if spread <= _POWER_SPREAD ** (1 / (2 * q + reach)):
            return q
    return None


def _ritz(apply, solve, Y, k_min, threshold, q, warm, scale, lead=None, powers=None):
    """(k, s, kept) from Rayleigh-Ritz steps on the block Y for the top
    singular triplets of a matrix W, or None (Halko, Martinsson & Tropp,
    SIAM Review 2011, Alg. 4.4; Saad, Numerical Methods for Large
    Eigenvalue Problems, 2011, ch. 5).

    apply(Y) is the route's product of W W^T with Y, and solve(Q) its
    small Ritz solve on an orthonormal Q, which returns (s, R, Y, kept):
    the Ritz values s of W, descending, the residuals R whose column i is
    W v_i - s_i u_i for the i-th Ritz triplet (u_i, s_i, v_i), the next
    block and what the route keeps of the step. A step applies q power
    steps Y <- apply(Y), takes Q from the QR of Y and solves, counts one
    warm.sweeps, and keeps k = max(k_min, #{s_i > threshold}) triplets;
    with `powers`, the next step takes powers(s, k) power steps. Where
    `scale`, a power of two, is not 1, every product is taken as
    apply(scale * Y), which changes no bit of the Q that its QR returns.
    The first step in which every kept triplet has ||W v_i - s_i u_i|| <=
    _RESIDUAL_TOL * s_1 returns. A step shrinks a kept residual by about
    (s_{b+1} / s_i)^(2 q + 1), s_{b+1} the first value past the block.

    With `lead`, a filter step runs first: `lead` power steps, the QR and
    the next block apply(Q), with no solve and no test. A warm call's
    first step seldom meets the test, and its Ritz rotation leaves the
    span that the next step starts from unchanged, so the filter does that
    work for less.

    A step that leaves no gap (k equal to the block), a kept value of
    zero, a failed decomposition or _MAX_SWEEPS steps without convergence
    get None.
    """
    product = apply if scale == 1.0 else lambda Y: apply(scale * Y)
    try:
        if lead is not None:
            for _ in range(lead):
                Y = product(Y)
            Y = product(_q_factor(Y))
        for _ in range(_MAX_SWEEPS):
            for _ in range(q):
                Y = product(Y)
            s, R, Y, kept = solve(_q_factor(Y))
            warm.sweeps += 1
            k = max(k_min, int(np.count_nonzero(s > threshold)))
            if k >= s.size or k and not s[k - 1] > 0:
                return None
            if _largest_column_norm(R[:, :k]) <= _RESIDUAL_TOL * s[0]:
                return k, s, kept
            if powers is not None:
                q = powers(s, k)
    except np.linalg.LinAlgError:
        pass
    return None


def _gram_triplets(W, k_min, threshold, warm, scale):
    """The Gram route for _leading_svd: SvdFactors of the top k = max(k_min,
    #{lambda_i > threshold^2}) eigenpairs (lambda_i, u_i) of C = W W^T, W
    taken wide (Golub & Van Loan, Matrix Computations, 8.6), or None.

    s_i = sqrt(lambda_i) and v_i = W^T u_i / s_i are returned only when each
    ||W v_i - s_i u_i|| <= _RESIDUAL_TOL * s_1, which small values can miss
    as the Gram squares the spectrum, and _norm_below proves sigma_{k+1}(W)
    < threshold from _gram_residual, which costs less than carrying a tail.

    A warm call, one whose warm.gram holds a block Q of eigenvectors of a C
    of this size at most half as wide as C, first takes its pairs from
    _ritz on the block C Q, with operator C and the eigh (theta, S) of
    Q^T C Q as its small solve: Ritz vectors Q S and s_i = sqrt(theta_i).
    As W v_i - s_i u_i = (C u_i - theta_i u_i) / s_i for v_i = W^T u_i /
    s_i, the residuals come from the p x b block, with no product with W,
    so only a converged block pays for the W-side test and the proof. Its
    first step takes q = _powers(s_1 / s_k, _GRAM_POWERS, 2) power steps,
    or none where that is None, for the values s_i = sqrt(theta_i) of the
    block Q, k of them kept, and each later step counts q again from the
    Ritz values before it. No step runs when the values of Q leave no gap,
    keep a zero or predict a shrink per step (theta_b / theta_k)^(q + 2)
    above _GRAM_SHRINK. When the steps or the
    pairs miss, and on every other call, the pairs come from the full eigh
    of C. Every call with pairs that pass leaves the top k + _BLOCK_PAD of
    them in warm.gram.
    """
    flip = W.shape[0] > W.shape[1]
    if flip:
        W = W.T
    C = W @ W.T
    p = C.shape[0]
    start, warm.gram = warm.gram, None

    def solve(Q):
        CQ = C @ Q
        theta, S = _eigh(Q.T @ CQ)
        Q, CQ = Q @ S, CQ @ S
        s = np.sqrt(theta.clip(0.0))
        return s, (CQ - Q * theta) / np.where(s > 0, s, 1.0), CQ, (theta, Q)

    def powers(s, k):
        return (_powers(s[0] / s[k - 1], _GRAM_POWERS, 2) or 0) if k else _GRAM_POWERS

    factors = None
    if start is not None and start[0].shape[0] == p and 2 * start[0].shape[1] <= p:
        Q, theta = start
        k = max(k_min, int(np.count_nonzero(theta > threshold * threshold)))
        theta_k = theta[k - 1] if k else math.inf
        q = powers(np.sqrt(theta[:k]), k) if k < theta.size and theta_k > 0 else None
        if q is not None and (theta[-1] / theta_k) ** (q + 2) <= _GRAM_SHRINK:
            found = _ritz(lambda Y: C @ Y, solve, C @ Q, k_min, threshold, q, warm, scale,
                          powers=powers)
            if found:
                k, _, (theta, Q) = found
                factors = _gram_pairs(W, C, theta, Q, k, threshold, warm)
    if factors is None:
        try:
            values, vectors = _eigh(C)
        except np.linalg.LinAlgError:
            return None
        k = max(k_min, int(np.count_nonzero(values > threshold * threshold)))
        factors = _gram_pairs(W, C, values, vectors, k, threshold, warm)
    if factors is None:
        return None
    U, s, P = factors
    return SvdFactors(P, s, U) if flip else SvdFactors(U, s, P)


def _gram_pairs(W, C, values, vectors, k, threshold, warm):
    """(U, s, P), the triplets of the wide W from eigenpairs of C =
    W W^T, values descending, after the W-side residual test and the
    proof, or None; pairs that pass leave their top k + _BLOCK_PAD in
    warm.gram."""
    s = np.sqrt(values.clip(0.0))
    if not np.all(s[:k] > 0):
        return None
    U = vectors[:, :k]
    P = W.T @ U / s[:k]
    Y = W @ P
    if not _largest_column_norm(Y - U * s[:k]) <= _RESIDUAL_TOL * s[0]:
        return None
    warm.certificates += 1
    G, slack = _gram_residual(C, Y, W.shape[1])
    if not _norm_below(G, threshold, slack):
        return None
    kept = k + _BLOCK_PAD
    warm.gram = (vectors[:, :kept], values[:kept])
    return U, s[:k], P


def _subspace_triplets(W, k_min, threshold, warm, start, b, tail, scale):
    """The subspace route for _leading_svd: SvdFactors from _ritz on a
    block of b columns, those of `start` and Gaussian ones from warm.rng,
    or None. The block is W V, V the starting columns, the operator is
    Y <- W (W^T Y) and the small solve is the SVD P s H^T of W^T Q: Ritz
    triplets (Q H, s, P), whose next block W P the residual test also
    reads. Each step records s_1 / s_b in warm.spread.

    A warm call, one with columns from `start`, first runs a filter step
    on the block W V with _powers(warm.spread, _POWER_STEPS, 1) power
    steps. Its steps take q = _powers(warm.spread, _POWER_STEPS, 2), as
    the filtered block W (W^T Q) is one product pair past an orthonormal
    Q; a spread that allows no q takes no filter and no power step. A warm
    call then takes about 1.7 steps at 60 x 60 and 1.15 at 200 x 200. A
    cold call takes no filter and no power step. The filter and the power
    steps change only the block, so the test, the proof and the carried
    bound below read the same.

    The proof, counted in warm.certificates, is _norm_below on the Gram of
    R = W - (W V_k) V_k.T on its short side: W V_k V_k.T has rank k, so
    sigma_{k+1}(W) <= ||R||_2 < beta, first at the margin beta = (threshold
    + s_{k+1}) / 2, s_{k+1} the next Ritz value, which leaves the bound
    room to carry, then at the threshold. A proven beta becomes warm.tail
    with a copy of W and k.

    A taken tail (W_ref, B, k_ref), sigma_{k_ref+1}(W_ref) <= B, replaces
    the proof when it can: by Weyl's inequality sigma_{k+1}(W) <=
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
    carried, k_ref = math.inf, 0
    if tail is not None and tail[0].shape == W.shape:
        W_ref, B, k_ref = tail
        carried = B + _frobenius(W - W_ref) * (1 + 1e-12)
    q = _powers(warm.spread, _POWER_STEPS, 2) if start.shape[1] else None
    lead = None if q is None else _powers(warm.spread, _POWER_STEPS, 1)

    def solve(Q):
        P, s, Ht = _thin_svd(W.T @ Q)
        warm.spread = s[0] / s[-1] if s[-1] > 0 else math.inf
        U, Y = Q @ Ht.T, W @ P
        return s, Y - U * s, Y, (U, P, Y)

    Y = W @ np.concatenate([start, warm.rng.standard_normal((n, b - start.shape[1]))], axis=1)
    found = _ritz(lambda Y: W @ (W.T @ Y), solve, Y, k_min, threshold, q or 0, warm, scale,
                  lead=lead)
    if found is None:
        return None
    k, s, (U, P, Y) = found
    factors = SvdFactors(U[:, :k], s[:k], P[:, :k])
    if carried < threshold and k >= k_ref and (k == 0 or s[k - 1] > threshold):
        warm.tail = tail
        return factors
    R = W - Y[:, :k] @ P[:, :k].T
    G = R.T @ R if m >= n else R @ R.T
    margin = 0.5 * (threshold + s[k])
    for bound in (threshold,) if margin >= threshold else (margin, threshold):
        warm.certificates += 1
        if _norm_below(G, bound):
            warm.tail = (W.copy(), bound, k)
            return factors
    return None


def _norm_below(G, bound, slack=0.0):
    """True when the Cholesky factorisation of (bound^2 - slack) * I - G
    succeeds; for G within slack of the Gram matrix of R, that proves
    ||R||_2 < bound."""
    A = -G
    A.ravel()[:: A.shape[0] + 1] += bound * bound - slack
    try:
        _cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True


def rank_estimate(sigma):
    """Numerical rank: count of singular values above 1e-8 * sigma[0], a
    tolerance relative to the largest, so the count is unchanged when the
    matrix is scaled."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.size == 0:
        return 0
    tol = 1e-8 * float(sigma[0])
    return int(np.count_nonzero(sigma > tol))
