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
# Products with W W^T applied to the block before each QR of a warm call.
# q of them raise the factor a sweep shrinks the Ritz residuals by to the
# power 2 q + 1, and each costs two products with W, less than the QR and
# small SVD that a sweep pays anyway.
_POWER_STEPS = 2
# The largest power of the spread s_1 / s_b of the last Ritz values that the
# block before any QR may reach: q power steps raise a block W V to the
# power 2 q + 1, and the block W (W^T Q) the filter step hands on to 2 q + 2.
# Past it, the pad columns fall below the rounding of the top ones in the QR
# and the block loses them.
_POWER_SPREAD = 1e10
# The most products with C = W W^T a warm Gram call's Rayleigh-Ritz step
# applies to its block before the QR, capped by the spread of the kept values
# (_gram_powers). Over 1600 x 60 video solves (seeds 1-10, 4990 warm calls),
# two products per step took 1.98 steps per call and 172 full eighs, three
# 1.36 steps and four 1.30, with no full eigh; five uncapped took 1.85, as
# the small kept directions sank below the rounding of the top one.
_GRAM_POWERS = 4
# Rayleigh-Ritz steps a warm Gram call runs before it takes the full eigh.
_GRAM_STEPS = 3
# A warm Gram call runs only when its last block predicts a shrink per step,
# (theta_b / theta_k)^(j + 1) for the block's last value theta_b, the last
# kept one theta_k and j products, of at most this. The video's warm calls
# predict 1e-5 or less; SVT's wide blocks at 120 x 120 and 200 x 200 predict
# 0.1-1 and missed on every call before the full eigh ran anyway.
_GRAM_SHRINK = 1e-4
# Sweeps a subspace call runs before it leaves the prox to the full SVD.
_MAX_SWEEPS = 30
# A kept triplet has converged once ||W v_i - s_i u_i|| <= _RESIDUAL_TOL * s_1.
_RESIDUAL_TOL = 1e-13
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


def _gram_basis(C):
    """The full eigh of C = W W^T: its eigenvalues in descending order and
    their orthonormal eigenvectors, whose leading columns span the leading
    left singular subspace of W."""
    values, vectors = np.linalg.eigh(C)
    return values[::-1], vectors[:, ::-1]


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
    steps. `spread` is s_1 / s_b of the last sweep's Ritz values, inf
    before the first, which caps the power steps of the next warm subspace
    call. `gram` is the (eigenvectors, eigenvalues) block of the top k +
    _BLOCK_PAD pairs of C = W W^T, W wide, that the last Gram call which
    returned factors kept, or None; the next Gram call starts from it.
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


def _power_steps(spread, reach):
    """q, the most power steps up to _POWER_STEPS with spread^(2 q + reach)
    <= _POWER_SPREAD for the spread s_1 / s_b of the last Ritz values, or
    None where not even q = 0 fits. A block W V has reach 1; the block
    W (W^T Q) that the filter step hands on, Q orthonormal, has reach 2."""
    for q in range(_POWER_STEPS, -1, -1):
        if spread <= _POWER_SPREAD ** (1 / (2 * q + reach)):
            return q
    return None


def _leading_svd(W, k_min, threshold, warm):
    """Leading singular triplets of W, certified to cover every singular
    value at or above `threshold`, or None where the full SVD should run.
    W, a float64 matrix, is not checked; a non-finite one gets None.

    The block has max(k_min, columns of warm.V) + _BLOCK_PAD columns, and
    the call takes the first of _routes for it that is not held. A failed
    Gram call, or a failed subspace call warm started from columns of
    warm.V, holds its route while the block stays above half of its own:
    a failure at one rank predicts failures at ranks near it, each paying
    for the route and then the full SVD. A held call falls through to the
    next allowed route, or to the full SVD; the first call that takes the
    route again ends its hold. A failed cold subspace call sets no hold, as
    its random block says nothing of the warm calls after it.
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
    if route == "gram":
        factors = _gram_triplets(W, k_min, threshold, warm)
    else:
        factors = _subspace_triplets(W, k_min, threshold, warm, start, b, tail)
    if factors is None:
        warm.fallbacks += 1
        if route == "gram" or start.shape[1]:
            warm.hold[route] = b
    return factors


def _gram_triplets(W, k_min, threshold, warm):
    """The Gram route for _leading_svd: SvdFactors of the top k = max(k_min,
    #{lambda_i > threshold^2}) eigenpairs (lambda_i, u_i) of C = W W^T, W
    taken wide (Golub & Van Loan, Matrix Computations, 8.6), or None.

    s_i = sqrt(lambda_i) and v_i = W^T u_i / s_i are returned only when each
    ||W v_i - s_i u_i|| <= _RESIDUAL_TOL * s_1, which small values can miss
    as the Gram squares the spectrum, and _norm_below proves sigma_{k+1}(W)
    < threshold from _gram_residual, which costs less than carrying a tail.

    A warm call, one whose warm.gram holds a block of eigenvectors of a C of
    this size at most half as wide as C, first takes the pairs from
    _gram_ritz. When those miss, and on every other call, the pairs come
    from the full eigh of C. Every call with pairs that pass leaves the
    top k + _BLOCK_PAD of them in warm.gram. A C whose trace is not finite,
    as a non-finite entry of W or an overflow puts one on its diagonal,
    gets None before any step.
    """
    flip = W.shape[0] > W.shape[1]
    if flip:
        W = W.T
    C = W @ W.T
    p = C.shape[0]
    start, warm.gram = warm.gram, None
    if not math.isfinite(np.trace(C)):
        return None
    factors = None
    if start is not None and start[0].shape[0] == p and 2 * start[0].shape[1] <= p:
        try:
            factors = _gram_ritz(W, C, start, k_min, threshold, warm)
        except np.linalg.LinAlgError:
            pass
    if factors is None:
        try:
            values, vectors = _gram_basis(C)
        except np.linalg.LinAlgError:
            return None
        k = max(k_min, int(np.count_nonzero(values > threshold * threshold)))
        factors = _gram_pairs(W, C, values, vectors, k, threshold, warm)
    if factors is None:
        return None
    U, s, P = factors
    return SvdFactors(P, s, U) if flip else SvdFactors(U, s, P)


def _gram_ritz(W, C, start, k_min, threshold, warm):
    """The warm Gram call's pairs: up to _GRAM_STEPS Rayleigh-Ritz steps on
    C from the block `start` = (Q, theta), the eigenvectors and values the
    last Gram call kept, then _gram_pairs on the first step whose kept
    pairs pass the C-side residual test; or None (Saad, Numerical Methods
    for Large Eigenvalue Problems, 2011, ch. 5).

    Each step takes Y = C^j Q, j = _gram_powers(theta, k), the QR Q of Y
    and the eigh (theta, S) of Q^T C Q, and keeps k = max(k_min, #{theta_i
    > threshold^2}) Ritz pairs (theta_i, Q S_i). The next step starts from
    the Ritz vectors and their product with C, so it pays one product less.
    Each step counts one warm.sweeps. No step runs when the block's own
    values leave no gap (k equal to the block) or predict a shrink per
    step (theta_b / theta_k)^(j + 1) above _GRAM_SHRINK; a step that leaves
    no gap ends the call. As W v_i - s_i u_i = (C u_i - lambda_i u_i) / s_i
    for v_i = W^T u_i / s_i, the C-side test ||C u_i - theta_i u_i|| <=
    _RESIDUAL_TOL * s_1 s_i is the W-side residual test worked on the p x b
    block, with no product with W, so only a converged block pays for the
    W-side test and the proof.
    """
    Q, values = start
    w = Q.shape[1]
    k = max(k_min, int(np.count_nonzero(values > threshold * threshold)))
    if k and (k >= w or not values[k - 1] > 0
              or (values[-1] / values[k - 1]) ** (_gram_powers(values, k) + 1) > _GRAM_SHRINK):
        return None
    CQ = C @ Q
    for _ in range(_GRAM_STEPS):
        Y = CQ
        for _ in range(_gram_powers(values, k) - 1):
            Y = C @ Y
        Q = np.linalg.qr(Y)[0]
        CQ = C @ Q
        values, S = np.linalg.eigh(Q.T @ CQ)
        values, S = values[::-1], S[:, ::-1]
        Q, CQ = Q @ S, CQ @ S
        warm.sweeps += 1
        k = max(k_min, int(np.count_nonzero(values > threshold * threshold)))
        if k >= w or k and not values[k - 1] > 0:
            return None
        goal = _RESIDUAL_TOL * math.sqrt(max(values[0], 0.0))
        resid = (CQ[:, :k] - Q[:, :k] * values[:k]) / np.sqrt(values[:k])
        if _largest_column_norm(resid) <= goal:
            return _gram_pairs(W, C, values, Q, k, threshold, warm)
    return None


def _gram_powers(values, k):
    """j, the most products with C up to _GRAM_POWERS, and at least one, a
    Gram Rayleigh-Ritz step applies before its QR to a block whose values
    were `values`, k of them kept: spread^j <= _POWER_SPREAD for the
    spread values[0] / values[k - 1] of the kept ones."""
    if k == 0:
        return _GRAM_POWERS
    for j in range(_GRAM_POWERS, 1, -1):
        if values[0] <= values[k - 1] * _POWER_SPREAD ** (1 / j):
            return j
    return 1


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


def _subspace_triplets(W, k_min, threshold, warm, start, b, tail):
    """The subspace route for _leading_svd: SvdFactors from Rayleigh-Ritz
    sweeps on a block of b columns, those of `start` and Gaussian ones from
    warm.rng (Halko, Martinsson & Tropp, SIAM Review 2011), or None. Each
    sweep (_rayleigh_ritz) applies q power steps Y <- W (W^T Y) to the
    block Y = W V, V its right vectors, takes the SVD of W.T @ Q, Q the QR
    of Y, and keeps k = max(k_min, #{s_i > threshold}) triplets once each
    has ||W v_i - s_i u_i|| <= _RESIDUAL_TOL * s_1. No gap (k == b), no
    convergence within _MAX_SWEEPS, a failed decomposition or a failed
    proof gets None.

    A sweep shrinks a kept residual by about (sigma_{b+1} / s_i)^(2 q + 1).
    A warm call, one with columns from `start`, first runs one filter step
    (_filter_step): the same power steps and QR, then the block W (W^T Q),
    with no small SVD and no test. A warm call's first sweep seldom meets
    the test, and its Ritz rotation leaves the span that the next sweep
    starts from unchanged, so the filter does that work for less; a warm
    call then takes about 1.7 sweeps at 60 x 60 and 1.15 at 200 x 200. Its
    sweeps take q = _power_steps(warm.spread, 2), the most that keep the
    spread of the last Ritz values, raised to 2 q + 2, within _POWER_SPREAD,
    as the filtered block is one product pair past an orthonormal Q; the
    filter's own QR sees 2 q + 1 of _power_steps(warm.spread, 1). Past the
    cap the pad columns sink below the rounding of the top ones in the QR
    and the block stops converging, and a spread past its square root takes
    no filter. A cold call takes no filter and no power step. From the
    second sweep of a warm call at an unchanged k, the call stops with None
    once the measured shrink of the largest kept residual, kept up for the
    sweeps left, cannot meet the test: a slow gap falls back in a few
    sweeps, not _MAX_SWEEPS. A cold call runs on, as the random columns of
    its first sweeps shrink unevenly. The filter and the power steps change
    only the block, so the test, the proof and the carried bound below read
    the same.

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
    q = _power_steps(warm.spread, 2) if start.shape[1] else None
    Y = W @ np.concatenate([start, warm.rng.standard_normal((n, b - start.shape[1]))], axis=1)
    if q is None:
        q = 0
    else:
        try:
            Y = _filter_step(W, Y, _power_steps(warm.spread, 1))
        except np.linalg.LinAlgError:
            return None
    last = None
    for sweep in range(1, _MAX_SWEEPS + 1):
        try:
            U, s, P, Y = _rayleigh_ritz(W, Y, q)
        except np.linalg.LinAlgError:
            return None
        warm.sweeps += 1
        warm.spread = s[0] / s[-1] if s[-1] > 0 else math.inf
        k = max(k_min, int(np.count_nonzero(s > threshold)))
        if k == b:
            return None
        resid = _largest_column_norm(Y[:, :k] - U[:, :k] * s[:k])
        goal = _RESIDUAL_TOL * s[0]
        if resid <= goal:
            break
        if start.shape[1] and last is not None and last[0] == k:
            if resid >= last[1] or resid * (resid / last[1]) ** (_MAX_SWEEPS - sweep) > goal:
                return None
        last = (k, resid)
    else:
        return None
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


def _powered_basis(W, Y, q):
    """Q, the QR factor of the block Y = W V after q power steps Y <- W (W^T Y)."""
    for _ in range(q):
        Y = W @ (W.T @ Y)
    return np.linalg.qr(Y)[0]


def _filter_step(W, Y, q):
    """The QR-only filter step of a warm call from the block Y = W V: Q from
    q power steps and a QR, then the next block W (W^T Q)."""
    Q = _powered_basis(W, Y, q)
    return W @ (W.T @ Q)


def _rayleigh_ritz(W, Y, q):
    """One sweep of the subspace route from the block Y = W V: q power
    steps Y <- W (W^T Y), Q the QR of Y and the SVD P s H^T of W^T Q.
    Returns the Ritz triplets (U, s, P) with U = Q H and the next block
    W P, whose columns the residual test also reads."""
    Q = _powered_basis(W, Y, q)
    P, s, Ht = np.linalg.svd(W.T @ Q, full_matrices=False)
    Y = W @ P
    return Q @ Ht.T, s, P, Y


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
    """Numerical rank: count of singular values above 1e-8 * sigma[0], a
    tolerance relative to the largest, so the count is unchanged when the
    matrix is scaled."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.size == 0:
        return 0
    tol = 1e-8 * float(sigma[0])
    return int(np.count_nonzero(sigma > tol))
