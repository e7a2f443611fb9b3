import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spglr import linalg as linalg_module
from spglr import penalty as penalty_module
from spglr.linalg import ProxWarmStart, svd
from spglr.penalty import (
    capped_surrogate,
    d_vector,
    phi_d,
    prox_matrix,
    prox_matrix_with_spectrum,
    prox_vector,
)

from oracles import batch_matrix_prox_objectives, grid_prox_objective, prox_objective


def test_phi_examples():
    # one-element spectra: the surrogate is the pointwise cap min(1, t / nu)
    assert capped_surrogate(np.array([0.3]), 0.5) == pytest.approx(0.6)
    assert capped_surrogate(np.array([1.2]), 0.5) == 1.0
    assert capped_surrogate(np.array([0.0]), 0.7) == 0.0


def test_phi_rejects_negative():
    with pytest.raises(ValueError, match="nonnegative"):
        capped_surrogate(np.array([-0.1]), 0.5)


def test_capped_surrogate_examples():
    assert capped_surrogate(np.array([1.2, 0.3, 0.0]), 0.5) == pytest.approx(1.6)
    assert capped_surrogate(np.zeros(3), 0.5) == 0.0


def test_capped_surrogate_bounded_by_support_size():
    rng = np.random.default_rng(0)
    for _ in range(50):
        sigma = np.sort(np.abs(rng.standard_normal(6)))[::-1]
        sigma[rng.integers(0, 6) :] = 0.0
        nu = float(rng.uniform(0.05, 1.0))
        val = capped_surrogate(sigma, nu)
        nnz = int(np.count_nonzero(sigma))
        assert val <= nnz + 1e-12
        if np.all(sigma[sigma > 0] >= nu):
            assert val == pytest.approx(nnz)


def test_d_vector_examples():
    # boundary sigma == nu selects branch 2
    assert d_vector(np.array([0.7, 0.5, 0.2]), 0.5).tolist() == [2, 2, 1]
    assert d_vector(np.zeros(2), 0.5).tolist() == [1, 1]
    assert d_vector(np.array([9.0, 8.0, 7.0]), 0.5).tolist() == [2, 2, 2]


def test_phi_d_examples():
    assert phi_d(np.array([0.7, 0.2]), np.array([2, 1]), 0.5) == pytest.approx(1.4)
    assert phi_d(np.array([0.2]), np.array([2]), 0.5) == pytest.approx(1.0)
    assert phi_d(np.zeros(3), np.array([2, 2, 1]), 0.5) == pytest.approx(2.0)


def test_phi_d_length_mismatch():
    with pytest.raises(ValueError):
        phi_d(np.array([0.2, 0.1]), np.array([1]), 0.5)


@given(
    sigma=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=6),
    branch_bits=st.lists(st.integers(1, 2), min_size=6, max_size=6),
    nu=st.floats(0.01, 2.0),
)
@settings(max_examples=150, deadline=None)
def test_phi_d_majorizes_capped_surrogate(sigma, branch_bits, nu):
    sigma = np.sort(np.asarray(sigma))[::-1]
    d = np.asarray(branch_bits[: sigma.size])
    base = capped_surrogate(sigma, nu)
    assert phi_d(sigma, d, nu) >= base - 1e-10
    assert phi_d(sigma, d_vector(sigma, nu), nu) == pytest.approx(base, abs=1e-12)


def test_prox_vector_frozen_example():
    out = prox_vector(np.array([1.0, 0.3]), np.array([2, 1]), 0.2, 0.5)
    assert out.tolist() == [1.0, 0.0]
    # cross-check the closed form against the grid oracle
    closed = prox_objective(out, np.array([1.0, 0.3]), np.array([2, 1]), 0.2, 0.5)
    grid = grid_prox_objective(np.array([1.0, 0.3]), np.array([2, 1]), 0.2, 0.5)
    assert abs(closed - grid) <= 1e-5
    assert closed <= grid + 1e-12


def test_prox_vector_zero_and_passthrough():
    assert prox_vector(np.zeros(3), np.array([1, 1, 1]), 0.5, 0.5).tolist() == [0, 0, 0]
    w = np.array([2.0, 1.0, 0.25])
    out = prox_vector(w, np.array([2, 2, 2]), 0.7, 0.3)
    assert np.array_equal(out, w)  # branch-2 coordinates pass through exactly


def test_prox_vector_grid_oracle_sample():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        w = rng.uniform(0.0, 3.0, n)
        d = rng.integers(1, 3, n)
        nu = float(rng.uniform(0.05, 1.0))
        ratio = float(rng.uniform(0.01, 2.0))
        tau = ratio * nu
        x_hat = prox_vector(w, d, tau, nu)
        closed = prox_objective(x_hat, w, d, tau, nu)
        grid = grid_prox_objective(w, d, tau, nu)
        assert closed <= grid + 1e-5
        assert abs(closed - grid) <= 1e-5


@given(
    values=st.lists(st.floats(0.0, 4.0), min_size=2, max_size=8),
    twos=st.integers(0, 8),
    ratio=st.floats(0.01, 2.0),
    nu=st.floats(0.05, 1.0),
)
@settings(max_examples=150, deadline=None)
def test_prox_vector_preserves_descending_order(values, twos, ratio, nu):
    w = np.sort(np.asarray(values))[::-1]
    d = np.where(np.arange(w.size) < min(twos, w.size), 2, 1)
    out = prox_vector(w, d, ratio * nu, nu)
    assert np.all(np.diff(out) <= 1e-12)
    assert np.all(out >= 0)


def test_prox_vector_validation():
    with pytest.raises(ValueError):
        prox_vector(np.array([-0.1]), np.array([1]), 0.1, 0.5)
    with pytest.raises(ValueError):
        prox_vector(np.array([0.1]), np.array([1]), -0.1, 0.5)
    with pytest.raises(ValueError):
        prox_vector(np.array([0.1]), np.array([3]), 0.1, 0.5)


def test_prox_matrix_diagonal_case():
    out = prox_matrix(np.diag([1.0, 0.3]), np.array([2, 1]), 0.2, 0.5)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_prox_matrix_zero():
    out = prox_matrix(np.zeros((3, 2)), np.array([1, 1]), 0.2, 0.5)
    assert np.array_equal(out, np.zeros((3, 2)))


def test_prox_matrix_rejects_increasing_d():
    with pytest.raises(ValueError, match="nonincreasing"):
        prox_matrix(np.eye(2), np.array([1, 2]), 0.2, 0.5)


def test_prox_matrix_checks_what_the_spectral_prox_trusts():
    W, d = np.eye(2), np.array([2, 1])
    with pytest.raises(ValueError, match="^tau must be positive, got 0.0$"):
        prox_matrix(W, d, 0.0, 0.5)
    with pytest.raises(ValueError, match="^nu must be positive, got nan$"):
        prox_matrix(W, d, 0.2, np.nan)
    with pytest.raises(ValueError, match="^d has length 3, expected 2$"):
        prox_matrix(W, np.array([2, 1, 1]), 0.2, 0.5)
    with pytest.raises(ValueError, match="^d entries must be 1 or 2$"):
        prox_matrix(W, np.array([2, 0]), 0.2, 0.5)
    with pytest.raises(ValueError, match="finite"):
        prox_matrix(np.array([[1.0, np.inf], [0.0, 1.0]]), d, 0.2, 0.5)


def test_prox_matrix_spectrum_matches_vector_prox():
    rng = np.random.default_rng(7)
    for _ in range(25):
        W = rng.standard_normal((5, 4))
        sigma = svd(W).sigma
        nu = float(rng.uniform(0.1, 1.0))
        d = d_vector(sigma, nu)
        tau = float(rng.uniform(0.01, 1.0))
        X_hat = prox_matrix(W, d, tau, nu)
        expected = prox_vector(sigma, d, tau, nu)
        assert np.max(np.abs(svd(X_hat).sigma - expected)) <= 1e-9


@pytest.mark.parametrize("shape", [(7, 4), (4, 7)])
@pytest.mark.parametrize("kept", ["none", "some", "all"])
def test_prox_matrix_thin_rebuild_matches_full_factors(shape, kept):
    rng = np.random.default_rng(31)
    W = rng.standard_normal(shape)
    U, sigma, V = svd(W)
    k = sigma.size
    nu = 0.5
    if kept == "none":
        d, tau = np.ones(k, dtype=int), 2.0 * nu * sigma[0]
    elif kept == "some":
        d, tau = np.array([2] + [1] * (k - 1)), nu * 0.5 * (sigma[1] + sigma[2])
    else:
        d, tau = np.full(k, 2), 0.3
    X_hat, x_hat = prox_matrix_with_spectrum(W, d, tau, nu)
    full = (U * x_hat) @ V.T
    r = int(np.count_nonzero(x_hat))
    assert r == {"none": 0, "some": 2, "all": k}[kept]
    assert X_hat.shape == shape
    if r == 0:
        assert np.array_equal(X_hat, np.zeros(shape))
    else:
        assert np.linalg.norm(X_hat - full) <= 1e-14 * np.linalg.norm(full)


def test_prox_matrix_local_optimality_sampling():
    rng = np.random.default_rng(21)
    W = rng.standard_normal((5, 4))
    nu, tau = 0.4, 0.3
    d = d_vector(svd(W).sigma, nu)
    X_hat = prox_matrix(W, d, tau, nu)
    base = batch_matrix_prox_objectives(X_hat[None], W, d, tau, nu)[0]
    for delta in (1e-3, 1e-2):
        E = rng.standard_normal((1000, 5, 4))
        E *= delta / np.linalg.norm(E, axis=(1, 2), keepdims=True)
        vals = batch_matrix_prox_objectives(X_hat[None] + E, W, d, tau, nu)
        assert np.all(base <= vals + 1e-12)


# ---------------------------------------------------------------------------
# truncated prox (the warm-started, certified path)


def spectral_matrix(shape, sigma, seed):
    """U diag(sigma) V.T with random orthonormal U, V and the given spectrum."""
    rng = np.random.default_rng(seed)
    m, n = shape
    p = min(m, n)
    U = np.linalg.qr(rng.standard_normal((m, p)))[0]
    V = np.linalg.qr(rng.standard_normal((n, p)))[0]
    return (U * sigma) @ V.T


def selector(twos, size):
    return np.r_[np.full(twos, 2), np.ones(size - twos, dtype=int)]


def noise_tail(count, top, ratio):
    return top * ratio ** np.arange(count)


def truncated_and_exact(W, d, warm=None, tau=0.05):
    """The prox at tau / nu = tau / 0.05 (1 by default) with a warm start
    and without one, and the number of fallbacks the warm-started call
    counted."""
    warm = ProxWarmStart(0) if warm is None else warm
    calls, fallbacks = warm.calls, warm.fallbacks
    truncated = prox_matrix_with_spectrum(W, d, tau, 0.05, warm)
    assert warm.calls == calls + 1
    return truncated, prox_matrix_with_spectrum(W, d, tau, 0.05), warm.fallbacks - fallbacks


def assert_prox_agrees(truncated, exact):
    (X_t, x_t), (X_e, x_e) = truncated, exact
    assert X_t.shape == X_e.shape
    assert np.linalg.norm(X_t - X_e) <= 1e-10 * np.linalg.norm(X_e)
    assert np.linalg.norm(x_t - x_e) <= 1e-10 * np.linalg.norm(x_e)


# Spectra with p = 100 values and the count of leading d = 2 entries.
TRUNCATED_CASES = {
    # k = 0: every value below the threshold, so X = 0 must be certified.
    "k0": (noise_tail(100, 0.9, 0.97), 0),
    # d = 2 on six values, only three of them above the threshold.
    "r2_beyond_threshold": (np.r_[10.0, 6.0, 3.0, 0.8, 0.6, 0.5, noise_tail(94, 0.45, 0.95)], 6),
    # d = 1 values just above and just below the threshold.
    "near_threshold": (
        np.r_[8.0, 4.0, 1.0 + 1e-4, 1.0 + 1e-8, 1.0 - 1e-4, noise_tail(95, 0.5, 0.9)],
        2,
    ),
}


def record_routes(monkeypatch):
    """Whether each prox got its factors from the truncated route, in call order."""
    routed = []
    leading_svd = penalty_module._leading_svd

    def recording(*args):
        factors = leading_svd(*args)
        routed.append(factors is not None)
        return factors

    monkeypatch.setattr(penalty_module, "_leading_svd", recording)
    return routed


@pytest.mark.parametrize("shape", [(120, 100), (100, 120)], ids=["tall", "wide"])
@pytest.mark.parametrize("case", sorted(TRUNCATED_CASES))
def test_truncated_prox_matches_full_svd_prox(monkeypatch, shape, case):
    sigma, twos = TRUNCATED_CASES[case]
    routed = record_routes(monkeypatch)
    W = spectral_matrix(shape, sigma, seed=3)
    truncated, exact, fallbacks = truncated_and_exact(W, selector(twos, sigma.size))
    assert routed == [True]
    assert fallbacks == 0
    assert_prox_agrees(truncated, exact)
    if case == "k0":
        assert np.array_equal(exact[0], np.zeros(shape))
        assert np.array_equal(truncated[0], exact[0])


def test_truncated_prox_warm_start_reuses_previous_factor():
    sigma, twos = TRUNCATED_CASES["r2_beyond_threshold"]
    W = spectral_matrix((120, 100), sigma, seed=4)
    d = selector(twos, sigma.size)
    warm = ProxWarmStart(1)
    truncated_and_exact(W, d, warm)
    assert warm.V.shape == (100, twos)
    W2 = W + 1e-3 * np.random.default_rng(5).standard_normal(W.shape)
    truncated, exact, fallbacks = truncated_and_exact(W2, d, warm)
    assert fallbacks == 0
    assert_prox_agrees(truncated, exact)


@pytest.mark.parametrize(
    "sigma, twos, last_rank, counted",
    [
        # sixty values above the threshold: the block doubles until the
        # next one is priced above the full SVD, and the fallback is counted
        (np.r_[np.full(60, 2.0), noise_tail(40, 0.5, 0.9)], 0, 0, 1),
        # ninety-six d = 2 values: the first block of 101 leaves under five
        # columns of the short side, so both routes are priced out and the
        # full SVD runs directly with nothing counted
        (noise_tail(100, 5.0, 0.97), 96, 0, 0),
        # no d = 2 value, but the last output kept 96 columns: the first
        # block, 96 + 5, is priced out just the same
        (noise_tail(100, 5.0, 0.97), 0, 96, 0),
    ],
    ids=["many_above_threshold", "many_twos", "many_last_columns"],
)
def test_truncated_prox_falls_back_to_the_exact_path(monkeypatch, sigma, twos, last_rank, counted):
    grams = count_calls(monkeypatch, linalg_module, "_gram_basis")
    W = spectral_matrix((120, 100), sigma, seed=6)
    warm = ProxWarmStart(0)
    if last_rank:
        warm.V = np.linalg.qr(np.random.default_rng(1).standard_normal((100, last_rank)))[0]
    (X_t, x_t), (X_e, x_e), fallbacks = truncated_and_exact(W, selector(twos, sigma.size), warm)
    assert fallbacks == counted
    assert not grams
    if counted:
        assert warm.sweeps > 0
    else:
        assert warm.certificates == warm.sweeps == 0
    assert np.array_equal(X_t, X_e) and np.array_equal(x_t, x_e)


def test_truncated_prox_next_value_at_threshold_falls_back_or_agrees():
    # sigma_{k+1} equals tau / nu to rounding: certified agreement or an
    # exact fallback are the only acceptable outcomes.
    sigma = np.r_[6.0, 3.0, 1.0 - 1e-15, noise_tail(97, 0.5, 0.9)]
    W = spectral_matrix((120, 100), sigma, seed=7)
    truncated, exact, fallbacks = truncated_and_exact(W, selector(1, 100))
    if fallbacks:
        assert all(np.array_equal(t, e) for t, e in zip(truncated, exact))
    else:
        assert_prox_agrees(truncated, exact)


def test_truncated_prox_cold_start_certifies_before_returning_zero():
    # From a random start, the first Ritz values all sit below tau / nu
    # although sigma_1 is above it; returning X = 0 there would be wrong.
    sigma = np.r_[1.02, noise_tail(99, 0.98, 0.9)]
    W = spectral_matrix((100, 100), sigma, seed=8)
    truncated, exact, _ = truncated_and_exact(W, selector(0, 100))
    assert exact[1][0] == pytest.approx(0.02, rel=1e-8)
    assert_prox_agrees(truncated, exact)


# ---------------------------------------------------------------------------
# the Gram start on thin inputs


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def thin_gram_call(monkeypatch, shape, case):
    """One prox of a TRUNCATED_CASES spectrum on a thin input, checked
    against the exact prox; returns its warm start and the Gram matrices
    it formed."""
    grams = count_calls(monkeypatch, linalg_module, "_gram_basis")
    sigma, twos = TRUNCATED_CASES[case]
    W = spectral_matrix(shape, sigma[:60], seed=3)
    warm = ProxWarmStart(0)
    truncated, exact, fallbacks = truncated_and_exact(W, selector(twos, 60), warm)
    assert fallbacks == 0
    assert_prox_agrees(truncated, exact)
    assert warm.V.shape == (shape[1], int(np.count_nonzero(exact[1])))
    return warm, grams


@pytest.mark.parametrize("shape", [(1600, 60), (60, 1600)], ids=["tall", "wide"])
@pytest.mark.parametrize("case", sorted(TRUNCATED_CASES))
def test_gram_start_takes_the_eigenpairs_of_thin_inputs(monkeypatch, shape, case):
    # the top eigenpairs of C pass the residual test and the proof as they
    # are: one certificate and no sweep
    warm, grams = thin_gram_call(monkeypatch, shape, case)
    assert (len(grams), warm.sweeps, warm.certificates) == (1, 0, 1)


@pytest.mark.parametrize("shape", [(1600, 60), (60, 1600)], ids=["tall", "wide"])
@pytest.mark.parametrize("case", sorted(TRUNCATED_CASES))
def test_gram_start_certifies_thin_inputs_in_one_sweep(monkeypatch, shape, case):
    # with the proof of the eigenpairs refused, the sweeps start from the
    # top eigenvectors, which hold the leading subspace to rounding: one
    # sweep and its proof finish the call
    proofs = []
    norm_below = linalg_module._norm_below

    def refuse_first(*args):
        proofs.append(None)
        return len(proofs) > 1 and norm_below(*args)

    monkeypatch.setattr(linalg_module, "_norm_below", refuse_first)
    warm, grams = thin_gram_call(monkeypatch, shape, case)
    assert (len(grams), warm.sweeps) == (1, 1)
    assert warm.certificates == len(proofs) == 2


@pytest.mark.parametrize("shape", [(1600, 60), (60, 1600)], ids=["tall", "wide"])
def test_gram_start_that_loses_small_values_keeps_sweeping(monkeypatch, shape):
    # sigma_1 / sigma_3 = 5e6: the squared spectrum leaves the kept value 2
    # with an eigenvector error far above the residual test, so the
    # first sweep fails it and the call sweeps on from there.
    fallbacks_seen = []
    leading_svd = penalty_module._leading_svd

    def recording(*args):
        result = leading_svd(*args)
        fallbacks_seen.append(result is None)
        return result

    monkeypatch.setattr(penalty_module, "_leading_svd", recording)
    grams = count_calls(monkeypatch, linalg_module, "_gram_basis")
    sigma = np.r_[1e7, 1e3, 2.0, noise_tail(57, 0.5, 0.9)]
    W = spectral_matrix(shape, sigma, seed=5)
    warm = ProxWarmStart(0)
    truncated, exact, fallbacks = truncated_and_exact(W, selector(0, 60), warm)
    assert len(grams) == 1
    assert warm.sweeps > 1
    assert fallbacks == sum(fallbacks_seen)
    assert_prox_agrees(truncated, exact)


# the sweeps that a non-finite W reaches multiply its NaNs and infinities
@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from([(60, 1600), (1600, 60), (120, 120), (200, 200)]),
    k=st.integers(1, 8),
    log_spread=st.floats(0.0, math.log10(5e6)),
    ratio=st.floats(0.5, 0.95),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    seed=st.integers(0, 2**16),
)
def test_gram_eigenpairs_agree_with_the_exact_prox_whenever_returned(
    shape, k, log_spread, ratio, bad, seed
):
    # k values above tau / nu = 1 with sigma_1 / sigma_k up to 5e6, the
    # Gram route forced: whatever the eigenpairs of C return has passed the
    # residual test and the proof, so it matches the exact prox; below a
    # spread of 100 they always return
    p = min(shape)
    sigma = np.r_[np.geomspace(1.5 * 10.0**log_spread, 1.5, k), ratio * 0.97 ** np.arange(p - k)]
    W = spectral_matrix(shape, sigma, seed)
    d = selector(0, p)
    warm = ProxWarmStart(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg_module, "_route", lambda *args: "gram")
        truncated, exact, fallbacks = truncated_and_exact(W, d, warm)
        direct = not fallbacks and warm.sweeps == 0
        assert direct or log_spread > 2
        if direct:
            assert warm.certificates == 1
            assert_prox_agrees(truncated, exact)
            assert np.linalg.svd(W, compute_uv=False)[k] < 1.0
        # a non-finite W gets no factors, and the exact path rejects it
        W[p // 2, p // 3] = bad
        assert linalg_module._leading_svd(W, 0, 1.0, ProxWarmStart(seed)) is None
        with pytest.raises(ValueError, match="finite"):
            prox_matrix_with_spectrum(W, d, 0.05, 0.05, warm)


def test_gram_start_proves_each_tail_from_its_own_gram():
    # the m x m proof on C - Y_k Y_k^T replaces the carried bound: every
    # call runs one certificate on the eigenpairs of C, no sweep, and
    # leaves no tail to carry
    W = spectral_matrix((1600, 60), CARRIED_SIGMA[:60], seed=11)
    d = selector(3, 60)
    warm = ProxWarmStart(2)
    for j in range(4):
        W = perturbed(W, 1e-3, seed=j)
        assert certified_step(W, d, warm) == (1, 0)
        assert warm.tail is None
    assert warm.sweeps == 0


def test_gram_start_that_fails_to_decompose_falls_back_to_the_exact_path(monkeypatch):
    def fail(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(linalg_module, "_gram_basis", fail)
    W = spectral_matrix((1600, 60), CARRIED_SIGMA[:60], seed=12)
    (X_t, x_t), (X_e, x_e), fallbacks = truncated_and_exact(W, selector(3, 60))
    assert fallbacks == 1
    assert np.array_equal(X_t, X_e) and np.array_equal(x_t, x_e)


def test_gram_block_priced_out_falls_back_then_holds(monkeypatch):
    grams = count_calls(monkeypatch, linalg_module, "_gram_basis")
    d = selector(0, 60)
    warm = ProxWarmStart(0)
    # the last output had rank 20
    warm.V = np.linalg.qr(np.random.default_rng(20).standard_normal((60, 20)))[0]

    def above(count, seed, top=2.0):
        sigma = np.r_[np.geomspace(top, 2.0, count), noise_tail(60 - count, 0.5, 0.9)]
        return spectral_matrix((1600, 60), sigma, seed)

    # fifty-two values above tau / nu = 1 with sigma_1 / sigma_52 = 5e4: the
    # smallest kept eigenpairs of C fail the residual test, and the Gram
    # sizes the block at 52 + 5 columns, more than the short side leaves,
    # so the call falls back before a sweep or a proof
    assert certified_step(above(52, 21, top=1e5), d, warm) == (0, 1)
    assert (len(grams), warm.sweeps, warm.V.shape[1]) == (1, 0, 52)
    # at ranks 40, 44 and then 20, where the failed call started, calls
    # decline with nothing counted
    W = spectral_matrix((1600, 60), CARRIED_SIGMA[:60], seed=20)
    for X in (above(40, 22), above(44, 23), above(20, 24), W):
        assert certified_step(X, d, warm) == (0, 0)
    assert (len(grams), warm.sweeps, warm.fallbacks) == (1, 0, 1)
    # the last output has rank 3, far enough below 20: the Gram route runs again
    assert certified_step(perturbed(W, 1e-6, seed=25), d, warm) == (1, 0)
    assert (len(grams), warm.sweeps) == (2, 0)


def test_gram_proof_lost_to_the_spread_falls_back_then_holds():
    # sigma_1 / (tau / nu) = 1.5e6: the Gram's rounding margin is too wide
    # to prove the tail, so the call falls back after its sweeps, and the
    # restarted pace keeps the next calls at that rank on the full SVD
    sigma = np.r_[np.geomspace(1.5e6, 1.5, 3), 0.99 * 0.97 ** np.arange(57)]
    W = spectral_matrix((1600, 60), sigma, seed=1)
    d = selector(0, 60)
    warm = ProxWarmStart(0)
    assert certified_step(W, d, warm)[1] == 1
    sweeps = warm.sweeps
    for j in range(3):
        assert certified_step(perturbed(W, 1e-6, seed=j), d, warm) == (0, 0)
    assert (warm.sweeps, warm.fallbacks) == (sweeps, 1)


def gram_tail_proof(W, k, beta):
    """Whether the Gram route's Cholesky proves sigma_{k+1}(W) < beta after
    one Rayleigh-Ritz sweep from the Gram start, as _leading_svd runs it
    when the eigenpairs alone fail."""
    wide = W if W.shape[0] <= W.shape[1] else W.T
    C, _, vectors = linalg_module._gram_basis(wide)
    P = np.linalg.svd(wide.T @ vectors[:, : k + linalg_module._BLOCK_PAD], full_matrices=False)[0]
    G, delta = linalg_module._gram_residual(C, wide @ P[:, :k], wide.shape[1])
    return linalg_module._norm_below(G, beta, delta)


@settings(max_examples=60, deadline=None)
@given(
    wide=st.booleans(),
    k=st.integers(1, 8),
    ratio=st.floats(0.9, 1.1),
    log_spread=st.floats(0.0, math.log10(5e6)),
    seed=st.integers(0, 2**16),
)
def test_gram_tail_proof_is_sound(wide, k, ratio, log_spread, seed):
    # sigma_{k+1} / beta = ratio and sigma_1 / sigma_k up to 5e6: the Gram
    # squares the spectrum, so its rounding is set by sigma_1^2, which the
    # proof's margin must cover
    beta = 0.7
    top = np.geomspace(1.5 * beta * 10.0**log_spread, 1.5 * beta, k)
    sigma = np.r_[top, ratio * beta * 0.97 ** np.arange(60 - k)]
    W = spectral_matrix((60, 1600) if wide else (1600, 60), sigma, seed)
    if gram_tail_proof(W, k, beta):
        assert np.linalg.svd(W, compute_uv=False)[k] < beta


def test_gram_tail_proof_passes_with_room_to_spare():
    # not vacuous: a tail 1 % below beta is proven up to sigma_1 / beta = 1.5e4
    for log_spread in range(5):
        sigma = np.r_[np.geomspace(1.5 * 10.0**log_spread, 1.5, 3), 0.99 * 0.97 ** np.arange(57)]
        assert gram_tail_proof(spectral_matrix((1600, 60), sigma, seed=log_spread), 3, 1.0)


@pytest.mark.parametrize("shape", [(200, 200), (120, 100), (100, 120)])
def test_square_and_near_square_inputs_never_form_the_gram(monkeypatch, shape):
    def refuse(*args):
        raise AssertionError(f"the Gram start ran on a {shape} input")

    monkeypatch.setattr(linalg_module, "_gram_basis", refuse)
    sigma, twos = TRUNCATED_CASES["r2_beyond_threshold"]
    p = min(shape)
    W = spectral_matrix(shape, np.r_[sigma, noise_tail(p - 100, 0.1, 0.9)][:p], seed=4)
    warm = ProxWarmStart(0)
    for j in range(2):
        W = perturbed(W, 1e-3, seed=j)
        assert certified_step(W, selector(twos, p), warm)[1] == 0
    assert warm.sweeps >= 2


# ---------------------------------------------------------------------------
# the tail bound carried from call to call (Weyl's inequality)


def certified_step(W, d, warm, tau=0.05):
    """One prox call sharing `warm`, checked against the exact prox; returns
    the certificates (Cholesky factorisations) it ran and its fallbacks."""
    certificates = warm.certificates
    truncated, exact, fallbacks = truncated_and_exact(W, d, warm, tau)
    assert_prox_agrees(truncated, exact)
    return warm.certificates - certificates, fallbacks


def perturbed(W, size, seed):
    """W plus a Gaussian matrix scaled to Frobenius norm `size`."""
    E = np.random.default_rng(seed).standard_normal(W.shape)
    return W + (size / np.linalg.norm(E)) * E


# Three values above tau / nu = 1, two below it that a d = 2 selector of
# length five keeps, then a tail well below both.
CARRIED_SIGMA = np.r_[10.0, 6.0, 3.0, 0.8, 0.6, noise_tail(95, 0.3, 0.95)]


def test_carried_bound_skips_the_certificate_while_w_drifts():
    W = spectral_matrix((120, 100), CARRIED_SIGMA, seed=11)
    d = selector(3, 100)
    warm = ProxWarmStart(2)
    assert certified_step(W, d, warm) == (1, 0)
    for j in range(1, 6):
        W = perturbed(W, 1e-3, seed=j)
        assert certified_step(W, d, warm) == (0, 0)


def test_carried_bound_runs_the_certificate_for_a_new_shape():
    d = selector(3, 100)
    warm = ProxWarmStart(2)
    assert certified_step(spectral_matrix((120, 100), CARRIED_SIGMA, seed=11), d, warm)[0] > 0
    assert certified_step(spectral_matrix((130, 100), CARRIED_SIGMA, seed=11), d, warm)[0] > 0


def unit_orthogonal_to(A, x):
    """x with the column span of A projected out, scaled to unit norm."""
    Q = np.linalg.qr(A)[0]
    x = x - Q @ (Q.T @ x)
    return x / np.linalg.norm(x)


def test_carried_bound_is_broken_by_a_spike_outside_the_warm_block():
    W = spectral_matrix((120, 100), CARRIED_SIGMA, seed=12)
    d = selector(3, 100)
    warm = ProxWarmStart(3)
    certified_step(W, d, warm)
    # The next block starts from warm.V and five Gaussian columns. A spike
    # orthogonal to that block on both sides leaves the first sweep as it
    # was, so the block converges without it and only a proof of the
    # tail can see it.
    warm.rng = np.random.default_rng(13)
    start = np.hstack([warm.V, np.random.default_rng(13).standard_normal((100, 5))])
    rng = np.random.default_rng(14)
    v = unit_orthogonal_to(start, rng.standard_normal(100))
    u = unit_orthogonal_to(W @ start, rng.standard_normal(120))
    certificates, fallbacks = certified_step(W + 1.5 * np.outer(u, v), d, warm)
    assert certificates + fallbacks > 0


def test_carried_bound_needs_the_rank_not_to_drop():
    # sigma_3 crosses tau / nu = 1 downward by a drift of 2e-3, well
    # inside the carried margin, but k falls from 3 to 2 below k_ref.
    d = selector(2, 100)
    warm = ProxWarmStart(4)
    for third in (1.0 + 1e-3, 1.0 - 1e-3):
        sigma = np.r_[10.0, 6.0, third, noise_tail(97, 0.5, 0.9)]
        W = spectral_matrix((120, 100), sigma, seed=14)
        assert certified_step(W, d, warm)[0] > 0


def test_carried_bound_needs_every_kept_value_above_the_threshold():
    # d = 2 keeps 0.8 and 0.6 below tau / nu = 1, so only the Gram of the
    # residual proves that the block has missed nothing above it.
    W = spectral_matrix((120, 100), CARRIED_SIGMA, seed=15)
    d = selector(5, 100)
    warm = ProxWarmStart(5)
    for j in range(3):
        W = perturbed(W, 1e-6, seed=j)
        assert certified_step(W, d, warm)[0] > 0


def test_fallback_holds_the_full_svd_until_the_rank_drops():
    d = selector(0, 100)
    warm = ProxWarmStart(6)
    # a solve at rank 30 whose subspace calls have each taken one sweep,
    # and whose Gram route is held by a failure of its own
    warm.pace["subspace"] = (1.0, 0.0, 1)
    warm.pace["gram"] = (100.0, 0.0, 1)
    warm.V = np.linalg.qr(np.random.default_rng(16).standard_normal((100, 30)))[0]
    # seventy-five values above the threshold: the blocks of 35 and 70
    # fill, a block of 140 would pass the short side, and the fallback
    # restarts the pace from its own cost, the full SVD it forced included
    many = spectral_matrix((120, 100), np.r_[np.full(75, 2.0), noise_tail(25, 0.5, 0.9)], seed=17)
    assert certified_step(many, d, warm)[1] == 1
    assert warm.tail is None
    # at rank 75, then 30 and 30 again, calls decline with nothing counted
    sweeps = warm.sweeps
    thirty = spectral_matrix((120, 100), np.r_[np.full(30, 2.0), noise_tail(70, 0.5, 0.9)], seed=18)
    W = spectral_matrix((120, 100), CARRIED_SIGMA, seed=16)
    for X in (thirty, perturbed(thirty, 1e-6, seed=18), W):
        assert certified_step(X, d, warm) == (0, 0)
    assert (warm.sweeps, warm.fallbacks) == (sweeps, 1)
    # the last output has rank 3, far enough below 30 for the restarted
    # pace: the route runs again, and with no carried bound it proves the
    # tail afresh
    assert certified_step(perturbed(W, 1e-6, seed=19), d, warm)[0] > 0
    assert warm.sweeps > sweeps


@settings(max_examples=12, deadline=None)
@given(
    wide=st.booleans(),
    twos=st.sampled_from([0, 3, 5]),
    log_sizes=st.lists(st.floats(-6.0, 0.0), min_size=2, max_size=5),
    seed=st.integers(0, 2**16),
)
def test_shared_warm_start_matches_exact_prox_along_a_drift(wide, twos, log_sizes, seed):
    # Each step moves W by 1e-6 to 1 times tau / nu in Frobenius norm.
    shape = (100, 120) if wide else (120, 100)
    W = spectral_matrix(shape, CARRIED_SIGMA, seed)
    d = selector(twos, CARRIED_SIGMA.size)
    warm = ProxWarmStart(seed)
    for j, log_size in enumerate(log_sizes):
        W = perturbed(W, 10.0**log_size, seed + j)
        certified_step(W, d, warm)
    assert warm.fallbacks == 0


def test_shared_warm_start_on_degenerate_inputs():
    warm = ProxWarmStart(7)
    zero = np.zeros((120, 100))
    for _ in range(2):
        (X_t, x_t), (X_e, x_e), _ = truncated_and_exact(zero, selector(0, 100), warm)
        assert np.array_equal(X_t, X_e) and np.array_equal(x_t, x_e)
    # a single row: the first block is wider than the short side, so the
    # full SVD runs directly and is neither a fallback nor a certificate
    row = np.random.default_rng(8).standard_normal((1, 20_000))
    thin = ProxWarmStart(8)
    (X_t, x_t), (X_e, x_e), fallbacks = truncated_and_exact(row, selector(0, 1), thin)
    assert fallbacks == thin.certificates == 0
    assert np.array_equal(X_t, X_e) and np.array_equal(x_t, x_e)
    # the prox is homogeneous: scaling W and tau together scales X
    for scale in (1e-8, 1e8):
        W = scale * spectral_matrix((120, 100), CARRIED_SIGMA, seed=9)
        scaled = ProxWarmStart(9)
        for j in range(3):
            W = perturbed(W, 1e-4 * scale, seed=j)
            certified_step(W, selector(3, 100), scaled, tau=0.05 * scale)
        assert scaled.fallbacks == 0
    # a non-finite W cannot be certified, so the route falls back to svd,
    # which rejects it
    for value in (np.nan, np.inf):
        bad = spectral_matrix((120, 100), CARRIED_SIGMA, seed=10)
        certified_step(bad, selector(3, 100), warm)
        bad[5, 7] = value
        with pytest.raises(ValueError, match="finite"):
            prox_matrix_with_spectrum(bad, selector(3, 100), 0.05, 0.05, warm)
