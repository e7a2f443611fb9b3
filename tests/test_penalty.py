import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spglr import linalg as linalg_module
from spglr import penalty as penalty_module
from spglr.linalg import svd
from spglr.penalty import (
    ProxWarmStart,
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


@pytest.mark.parametrize("shape", [(120, 100), (100, 120)], ids=["tall", "wide"])
@pytest.mark.parametrize("case", sorted(TRUNCATED_CASES))
def test_truncated_prox_matches_full_svd_prox(shape, case):
    sigma, twos = TRUNCATED_CASES[case]
    assert shape[0] * shape[1] >= penalty_module._TRUNCATE_MIN_SIZE
    W = spectral_matrix(shape, sigma, seed=3)
    truncated, exact, fallbacks = truncated_and_exact(W, selector(twos, sigma.size))
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
    "sigma, twos, counted",
    [
        # sixty values above the threshold: the block would pass p / 2,
        # so the certificate fails and the fallback is counted
        (np.r_[np.full(60, 2.0), noise_tail(40, 0.5, 0.9)], 0, 1),
        # forty-eight d = 2 values: the first block already passes p / 2,
        # so the full SVD runs directly and nothing is counted
        (noise_tail(100, 5.0, 0.97), 48, 0),
    ],
    ids=["many_above_threshold", "many_twos"],
)
def test_truncated_prox_falls_back_to_the_exact_path(monkeypatch, sigma, twos, counted):
    calls = []
    leading_svd = penalty_module._leading_svd

    def counting(*args):
        calls.append(None)
        return leading_svd(*args)

    monkeypatch.setattr(penalty_module, "_leading_svd", counting)
    W = spectral_matrix((120, 100), sigma, seed=6)
    (X_t, x_t), (X_e, x_e), fallbacks = truncated_and_exact(W, selector(twos, sigma.size))
    assert fallbacks == counted == len(calls)
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


@pytest.mark.parametrize("shape", [(1600, 60), (60, 1600)], ids=["tall", "wide"])
@pytest.mark.parametrize("case", sorted(TRUNCATED_CASES))
def test_gram_start_certifies_thin_inputs_in_one_sweep(monkeypatch, shape, case):
    grams = count_calls(monkeypatch, linalg_module, "_gram_basis")
    sigma, twos = TRUNCATED_CASES[case]
    W = spectral_matrix(shape, sigma[:60], seed=3)
    warm = ProxWarmStart(0)
    truncated, exact, fallbacks = truncated_and_exact(W, selector(twos, 60), warm)
    assert fallbacks == 0
    assert warm.sweeps == len(grams) == 1
    assert_prox_agrees(truncated, exact)
    assert warm.V.shape == (shape[1], int(np.count_nonzero(exact[1])))


@pytest.mark.parametrize("shape", [(1600, 60), (60, 1600)], ids=["tall", "wide"])
def test_gram_start_that_loses_small_values_keeps_sweeping(monkeypatch, shape):
    # sigma_1 / sigma_3 = 5e6: the squared spectrum leaves the kept value 2
    # with an eigenvector error far above the residual test, so the
    # first sweep fails it and the call sweeps on from there.
    fallbacks_seen = []
    leading_svd = penalty_module._leading_svd

    def recording(*args):
        result = leading_svd(*args)
        fallbacks_seen.append(result[0] is None)
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


def test_gram_start_carries_the_tail_bound_while_w_drifts():
    # the bound is proven on the transposed input and carried on W itself
    W = spectral_matrix((1600, 60), CARRIED_SIGMA[:60], seed=11)
    d = selector(3, 60)
    warm = ProxWarmStart(2)
    assert certified_step(W, d, warm) == (1, 0)
    for j in range(1, 4):
        W = perturbed(W, 1e-3, seed=j)
        assert certified_step(W, d, warm) == (0, 0)
    assert warm.sweeps == 4


def test_gram_start_that_fails_to_decompose_falls_back_to_the_exact_path(monkeypatch):
    def fail(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(linalg_module, "_gram_basis", fail)
    W = spectral_matrix((1600, 60), CARRIED_SIGMA[:60], seed=12)
    (X_t, x_t), (X_e, x_e), fallbacks = truncated_and_exact(W, selector(3, 60))
    assert fallbacks == 1
    assert np.array_equal(X_t, X_e) and np.array_equal(x_t, x_e)


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


def test_carried_bound_is_dropped_after_a_fallback():
    W = spectral_matrix((120, 100), CARRIED_SIGMA, seed=16)
    d = selector(0, 100)
    warm = ProxWarmStart(6)
    certified_step(W, d, warm)
    # forty values above the threshold: the block passes p / 2 first
    many = spectral_matrix((120, 100), np.r_[np.full(40, 2.0), noise_tail(60, 0.5, 0.9)], seed=17)
    assert certified_step(many, d, warm)[1] == 1
    assert certified_step(perturbed(W, 1e-6, seed=18), d, warm)[0] > 0


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
    # a single row: the first block exceeds half the short side, so the
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
    bad = spectral_matrix((120, 100), CARRIED_SIGMA, seed=10)
    certified_step(bad, selector(3, 100), warm)
    bad[5, 7] = np.nan
    with pytest.raises(ValueError, match="finite"):
        prox_matrix_with_spectrum(bad, selector(3, 100), 0.05, 0.05, warm)
