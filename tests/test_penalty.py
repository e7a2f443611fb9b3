import math
import warnings

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
    prox_matrix,
    prox_matrix_with_spectrum,
    prox_vector,
)

from oracles import batch_matrix_prox_objectives, grid_prox_objective, phi_d, prox_objective
from seams import count_full_eighs, record_routes


def test_phi_examples():
    # one-element spectra: the surrogate is the pointwise cap min(1, t / nu)
    assert capped_surrogate(np.array([0.3]), 0.5) == pytest.approx(0.6)
    assert capped_surrogate(np.array([1.2]), 0.5) == 1.0
    assert capped_surrogate(np.array([0.0]), 0.7) == 0.0


def test_phi_rejects_negative():
    # a NaN or infinite entry is not a nonnegative finite number either,
    # in the surrogate or the selector
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="nonnegative"):
            capped_surrogate(np.array([bad]), 0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            d_vector(np.array([bad, 1.0]), 0.05)


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


@st.composite
def spectra_and_nu(draw):
    """(descending nonnegative spectrum, nu): values drawn from zeros, nu
    itself and floats on both sides of it."""
    nu = draw(st.floats(1e-6, 1e6))
    value = st.one_of(st.just(0.0), st.just(nu), st.floats(0.0, 1e3 * nu))
    sigma = np.sort(np.array(draw(st.lists(value, min_size=1, max_size=40))))[::-1]
    return sigma, nu


@given(spectra_and_nu())
@settings(max_examples=200, deadline=None)
def test_unchecked_kernels_equal_the_checked_functions_bit_for_bit(case):
    # the solve loop calls the kernels; the public functions check, then
    # call the same kernels, and both equal the expressions written out here
    sigma, nu = case
    d = penalty_module._d_vector(sigma, nu)
    assert np.array_equal(d, d_vector(sigma, nu)) and d.dtype == d_vector(sigma, nu).dtype
    assert np.array_equal(d, np.where(sigma >= nu, 2, 1))
    value = penalty_module._capped_surrogate(sigma, nu)
    assert value == capped_surrogate(sigma, nu) == float(np.sum(np.minimum(1.0, sigma / nu)))
    assert d[sigma == nu].tolist() == [2] * int(np.count_nonzero(sigma == nu))


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
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^w entries must be nonnegative"):
            prox_vector(np.array([bad, 1.0]), np.array([1, 1]), 0.1, 0.05)
    # a bool selector is not the d = 1 it compares equal to
    with pytest.raises(ValueError, match="^d entries must be 1 or 2$"):
        prox_vector(np.array([1.0, 1.0]), np.array([True, True]), 0.1, 0.05)
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


@pytest.mark.parametrize("shape", [(120, 100), (100, 120)], ids=["tall", "wide"])
# a cold block does not converge on r2_beyond_threshold; the warm-started
# test below covers that spectrum
@pytest.mark.parametrize("case", ["k0", "near_threshold"])
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


def test_truncated_prox_warm_start_reuses_previous_factor(monkeypatch):
    # a spectrum that a cold block does not finish: the first call seeds
    # warm.V, and the next one, on a drift of 1e-3 as between iterates,
    # takes the route (from a drift of 1e-3 per entry, twice the gap below
    # sigma_6, the block needs 29-33 sweeps)
    sigma, twos = TRUNCATED_CASES["r2_beyond_threshold"]
    d = selector(twos, sigma.size)
    routed = record_routes(monkeypatch)
    for shape in [(120, 100), (100, 120)]:
        W = spectral_matrix(shape, sigma, seed=4)
        warm = ProxWarmStart(1)
        truncated_and_exact(W, d, warm)
        assert warm.V.shape == (shape[1], twos)
        truncated, exact, fallbacks = truncated_and_exact(perturbed(W, 1e-3, seed=5), d, warm)
        assert routed[-1] and fallbacks == 0
        assert_prox_agrees(truncated, exact)


def record_power_steps(monkeypatch):
    """("filter", q) for each filter step and ("sweep", q) for each
    Rayleigh-Ritz step, q its power steps, in call order, read from the
    products and small solves each _ritz call runs: a filter step is its
    power steps and one more product, and a sweep its power steps and a
    solve."""
    steps = []
    ritz = linalg_module._ritz

    def recording(apply, solve, *args, lead=None, **kwargs):
        marks = []

        def counted_apply(Y):
            marks.append("p")
            return apply(Y)

        def counted_solve(Q):
            marks.append("s")
            return solve(Q)

        found = ritz(counted_apply, counted_solve, *args, lead=lead, **kwargs)
        run = "".join(marks)
        if lead is not None:
            assert run.startswith("p" * (lead + 1))
            steps.append(("filter", lead))
            run = run[lead + 1:]
        steps.extend(("sweep", len(powers)) for powers in run.split("s")[:-1])
        return found

    monkeypatch.setattr(linalg_module, "_ritz", recording)
    return steps


def test_power_steps_are_capped_by_the_spread_of_the_last_ritz_values():
    # q power steps raise the spread s_1 / s_b of a block W V to the power
    # 2 q + 1, which must stay within 1e10: 100^5, 2154^3 and 1e10^1; the
    # block the filter step hands on is one product pair further, 2 q + 2:
    # 46.4^6, 316^4 and 1e5^2. A Gram step's block C Q is W W^T Q, also
    # 2 q + 2, with up to three power steps on the spread s_1 / s_k of the
    # kept values: 17.8^8 first
    cap = linalg_module._POWER_SPREAD
    assert (linalg_module._POWER_STEPS, linalg_module._GRAM_POWERS) == (2, 3)
    for most, reach, table in [
        (2, 1, [(1.0, 2), (100.0, 2), (101.0, 1), (cap ** (1 / 3), 1), (2200.0, 0), (cap, 0)]),
        (2, 2, [(1.0, 2), (46.0, 2), (47.0, 1), (316.0, 1), (317.0, 0), (1e5, 0), (1.01e5, None)]),
        (3, 2, [(1.0, 3), (17.7, 3), (17.8, 2), (46.0, 2), (47.0, 1), (316.0, 1), (317.0, 0),
                (1e5, 0), (1.01e5, None)]),
    ]:
        for spread, q in table + [(1e20, None), (math.inf, None), (math.nan, None)]:
            assert linalg_module._powers(spread, most, reach) == q, (most, reach, spread)
    assert ProxWarmStart(0).spread == math.inf


def test_cold_call_takes_no_filter_step_and_a_warm_call_one_before_one_sweep(monkeypatch):
    steps = record_power_steps(monkeypatch)
    W = spectral_matrix((120, 100), CARRIED_SIGMA, seed=11)
    d = selector(3, 100)
    warm = ProxWarmStart(2)
    assert certified_step(W, d, warm)[1] == 0
    assert steps and set(steps) == {("sweep", 0)}
    cold = len(steps)
    # the block's spread 10 / 0.3 allows two power steps in the filter and
    # in the Rayleigh-Ritz step after it, which then passes the residual
    # test at once
    assert certified_step(perturbed(W, 1e-3, seed=1), d, warm)[1] == 0
    assert steps[cold:] == [("filter", 2), ("sweep", 2)]


@pytest.mark.parametrize("shape", [(120, 100), (100, 120)], ids=["tall", "wide"])
def test_warm_call_on_a_slow_gap_falls_back_and_holds_the_subspace_route(shape):
    # sigma_6 = 0.5, which d = 2 keeps, over a tail from 0.49 that falls by
    # 0.5 % a value: a powered sweep shrinks the residual of the sixth
    # triplet by about (0.48 / 0.5)^5, far too little to pass the residual
    # test within _MAX_SWEEPS, so the call falls back to the full SVD and
    # holds the subspace route at its block of 6 + 5 columns
    sigma = np.r_[10.0, 6.0, 3.0, 0.8, 0.6, 0.5, noise_tail(94, 0.49, 0.995)]
    d = selector(6, 100)
    W = spectral_matrix(shape, sigma, seed=4)
    warm = ProxWarmStart(1)
    truncated_and_exact(W, d, warm)
    (X_t, x_t), (X_e, x_e), fallbacks = truncated_and_exact(perturbed(W, 0.11, seed=5), d, warm)
    assert fallbacks == 1 and warm.hold == {"subspace": 11}
    assert np.array_equal(X_t, X_e) and np.array_equal(x_t, x_e)
    # the next call at that rank falls through to the Gram route, whose
    # cold call takes the full eigh and one certificate, with no sweep
    sweeps = warm.sweeps
    assert certified_step(perturbed(W, 0.12, seed=6), d, warm) == (1, 0)
    assert warm.sweeps == sweeps and warm.hold == {"subspace": 11}


@pytest.mark.parametrize("shape", [(120, 100), (100, 120)], ids=["tall", "wide"])
def test_warm_call_on_the_slower_gap_of_r2_converges_with_power_steps(shape):
    # sigma_6 = 0.5 and sigma_12 = 0.35 at a drift of 0.11: unpowered
    # sweeps needed about 30 (the wide call ran all 30 and fell back);
    # powered ones converge in 10 (tall) or 12 (wide)
    sigma, twos = TRUNCATED_CASES["r2_beyond_threshold"]
    d = selector(twos, sigma.size)
    W = spectral_matrix(shape, sigma, seed=4)
    warm = ProxWarmStart(1)
    truncated_and_exact(W, d, warm)
    sweeps = warm.sweeps
    truncated, exact, fallbacks = truncated_and_exact(perturbed(W, 0.11, seed=5), d, warm)
    assert fallbacks == 0 and warm.sweeps - sweeps <= 12
    assert_prox_agrees(truncated, exact)


@pytest.mark.parametrize("count", [6, 60])
def test_cold_block_with_no_gap_falls_back_and_sets_no_hold(monkeypatch, count):
    # `count` values above tau / nu = 1: the cold block of five columns has
    # no gap after one sweep, so the full SVD runs and the fallback counts,
    # but the subspace route is not held, since a random block says
    # nothing of the warm calls after it
    grams = count_full_eighs(monkeypatch, 100)
    routed = record_routes(monkeypatch)
    sigma = np.r_[np.full(count, 2.0), noise_tail(100 - count, 0.5, 0.9)]
    W = spectral_matrix((120, 100), sigma, seed=6)
    d = selector(0, 100)
    warm = ProxWarmStart(0)
    (X_t, x_t), (X_e, x_e), fallbacks = truncated_and_exact(W, d, warm)
    assert (fallbacks, warm.sweeps, warm.certificates) == (1, 1, 0)
    assert warm.hold == {}
    assert np.array_equal(X_t, X_e) and np.array_equal(x_t, x_e)
    # started from the full SVD's factor, the next call takes a route: the
    # subspace one at rank 6, the Gram one for the block of 65
    assert certified_step(perturbed(W, 1e-3, seed=1), d, warm) == (1, 0)
    assert routed == [False, True]
    assert len(grams) == (count == 60)


@pytest.mark.parametrize(
    "sigma, twos, last_rank, counted",
    [
        # sixty values above the threshold: the first block of five has no
        # gap, so the call falls back after one sweep, and that is counted
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
    grams = count_full_eighs(monkeypatch, 100)
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


def thin_gram_call(monkeypatch, shape, case):
    """One prox of a TRUNCATED_CASES spectrum on a thin input, checked
    against the exact prox; returns its warm start and the Gram matrices
    it formed."""
    grams = count_full_eighs(monkeypatch, 60)
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
        patch.setattr(linalg_module, "_routes", lambda *args: ("gram",))
        truncated, exact, fallbacks = truncated_and_exact(W, d, warm)
        assert not fallbacks or log_spread > 2
        if not fallbacks:
            assert warm.certificates == 1
            assert_prox_agrees(truncated, exact)
            assert np.linalg.svd(W, compute_uv=False)[k] < 1.0
        # a non-finite W gets no factors, cold or from the block the call
        # above kept, with no step on a non-finite C to warn of, and the
        # exact path rejects it
        W[p // 2, p // 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert linalg_module._leading_svd(W, 0, 1.0, ProxWarmStart(seed)) is None
            with pytest.raises(ValueError, match="finite"):
                prox_matrix_with_spectrum(W, d, 0.05, 0.05, warm)


def test_gram_start_proves_each_tail_from_its_own_gram(monkeypatch):
    # the m x m proof on C - Y_k Y_k^T replaces the carried bound: every
    # call runs one certificate, the first on the eigenpairs of C and the
    # warm ones after it on Rayleigh-Ritz pairs from the block it kept, and
    # leaves no tail to carry
    grams = count_full_eighs(monkeypatch, 60)
    W = spectral_matrix((1600, 60), CARRIED_SIGMA[:60], seed=11)
    d = selector(3, 60)
    warm = ProxWarmStart(2)
    for j in range(4):
        W = perturbed(W, 1e-3, seed=j)
        sweeps = warm.sweeps
        assert certified_step(W, d, warm) == (1, 0)
        assert warm.tail is None
        assert (warm.sweeps > sweeps) == (j > 0)
    assert len(grams) == 1


def thin_spectra(kind, k, log_spread, p):
    """(sigma_0, sigma): the spectra of p values of a cold Gram call and
    of the warm call after it. k values lie above tau / nu = 1 over a tail
    below it, "clustered" within 1e-9 of each other, "spread" from 1.5 up
    to 1.5e6 over a tail below 0.3, or "at_threshold", where the warm
    call's next two are 1 and 1 - 1e-12 over a tail below 0.1 and the cold
    call's are ten times smaller; "zero" is all zeros."""
    if kind == "zero":
        return np.zeros(p), np.zeros(p)
    if kind == "clustered":
        sigma = np.r_[2.0 * (1 + 1e-9 * np.arange(k, 0, -1)), 0.5 * 0.97 ** np.arange(p - k)]
    elif kind == "spread":
        sigma = np.r_[np.geomspace(1.5 * 10.0**log_spread, 1.5, k), 0.3 * 0.97 ** np.arange(p - k)]
    else:
        sigma = np.r_[np.geomspace(30.0, 10.0, k), 1.0, 1.0 - 1e-12, 0.1 * 0.97 ** np.arange(p - k - 2)]
        return np.r_[sigma[:k], 0.1 * sigma[k:]], sigma
    return sigma, sigma


@settings(max_examples=40, deadline=None)
@given(
    tall=st.booleans(),
    kind=st.sampled_from(["clustered", "at_threshold", "spread", "zero"]),
    k=st.integers(1, 6),
    twos=st.booleans(),
    log_spread=st.floats(0.0, 6.0),
    log_drift=st.floats(-9.0, -1.0),
    seed=st.integers(0, 2**16),
)
def test_warm_gram_call_agrees_with_the_exact_prox_or_declines(
    tall, kind, k, twos, log_spread, log_drift, seed
):
    # a cold Gram call that passes keeps its block; the warm call after it,
    # on the same singular vectors moved by 1e-9 to 1e-1 in Frobenius norm,
    # either returns triplets that match the exact prox or declines to the
    # full SVD, which is the exact prox
    shape = (400, 30) if tall else (30, 400)
    cold, sigma = thin_spectra(kind, k, log_spread, 30)
    W = perturbed(spectral_matrix(shape, sigma, seed), 10.0**log_drift, seed)
    if kind == "zero":
        W = np.zeros(shape)
    d = selector(k if twos and kind != "zero" else 0, 30)
    warm = ProxWarmStart(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg_module, "_routes", lambda *args: ("gram",))
        for X in (spectral_matrix(shape, cold, seed), W):
            block = warm.gram
            warm.hold.clear()
            truncated, exact, fallbacks = truncated_and_exact(X, d, warm)
            if fallbacks:
                assert all(np.array_equal(t, e) for t, e in zip(truncated, exact))
            else:
                assert_prox_agrees(truncated, exact)
        if kind == "zero":
            # the warm call on W = 0 takes one Rayleigh-Ritz step and keeps nothing
            assert warm.sweeps == 1 and not fallbacks and not truncated[1].any()
        # a non-finite W gets no factors, from the warm block or the full
        # eigh, and the exact path rejects it
        W[3, 2] = np.nan
        warm.gram = block
        warm.hold.clear()
        assert linalg_module._leading_svd(W, 0, 1.0, warm) is None
        with pytest.raises(ValueError, match="finite"):
            prox_matrix_with_spectrum(W, d, 0.05, 0.05, warm)


def test_gram_start_that_fails_to_decompose_falls_back_to_the_exact_path(monkeypatch):
    def fail(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(linalg_module, "_eigh", fail)
    W = spectral_matrix((1600, 60), CARRIED_SIGMA[:60], seed=12)
    (X_t, x_t), (X_e, x_e), fallbacks = truncated_and_exact(W, selector(3, 60))
    assert fallbacks == 1
    assert np.array_equal(X_t, X_e) and np.array_equal(x_t, x_e)


def test_gram_block_priced_out_falls_back_then_holds(monkeypatch):
    grams = count_full_eighs(monkeypatch, 60)
    d = selector(0, 60)
    warm = ProxWarmStart(0)
    # the last output had rank 20
    warm.V = np.linalg.qr(np.random.default_rng(20).standard_normal((60, 20)))[0]

    def above(count, seed, top=2.0):
        sigma = np.r_[np.geomspace(top, 2.0, count), noise_tail(60 - count, 0.5, 0.9)]
        return spectral_matrix((1600, 60), sigma, seed)

    # fifty-two values above tau / nu = 1 with sigma_1 / sigma_52 = 5e4: the
    # smallest kept eigenpairs of C fail the residual test, so the call on
    # the block of 25 falls back before a proof and holds the Gram route
    assert certified_step(above(52, 21, top=1e5), d, warm) == (0, 1)
    assert (len(grams), warm.sweeps, warm.V.shape[1]) == (1, 0, 52)
    assert warm.hold == {"gram": 25}
    # at ranks 40, 44 and then 20, where the failed call started, calls
    # decline with nothing counted: the blocks of 45 and 49 are too wide
    # for the subspace route, and 25 is more than half of 25
    W = spectral_matrix((1600, 60), CARRIED_SIGMA[:60], seed=20)
    for X in (above(40, 22), above(44, 23), above(20, 24), W):
        assert certified_step(X, d, warm) == (0, 0)
    assert (len(grams), warm.sweeps, warm.fallbacks) == (1, 0, 1)
    # the last output has rank 3, and its block of 8 is at most half of 25:
    # the Gram route runs again and its hold ends
    assert certified_step(perturbed(W, 1e-6, seed=25), d, warm) == (1, 0)
    assert (len(grams), warm.sweeps, warm.hold) == (2, 0, {})


def test_gram_proof_lost_to_the_spread_falls_back_then_holds(monkeypatch):
    # sigma_1 / (tau / nu) = 1.5e6: the Gram's rounding margin is too wide
    # to prove the tail, and the kept value 1.5 loses its digits before
    # that, so the call falls back at the residual test, and its hold keeps
    # the next calls, whose block of 8 is more than half of its 5, off the
    # Gram route: they take the subspace route, whose spread of 1.5e6
    # leaves no room for the filter step, so they take no filter and no
    # power step
    grams = count_full_eighs(monkeypatch, 60)
    sigma = np.r_[np.geomspace(1.5e6, 1.5, 3), 0.99 * 0.97 ** np.arange(57)]
    W = spectral_matrix((1600, 60), sigma, seed=1)
    d = selector(0, 60)
    warm = ProxWarmStart(0)
    assert certified_step(W, d, warm) == (0, 1)
    for j in range(3):
        assert certified_step(perturbed(W, 1e-6, seed=j), d, warm)[1] == 0
        assert linalg_module._powers(warm.spread, linalg_module._POWER_STEPS, 2) is None
    assert (len(grams), warm.fallbacks, warm.hold) == (1, 1, {"gram": 5})
    assert warm.sweeps > 0


def test_warm_gram_call_recounts_its_power_steps_after_each_step(monkeypatch):
    # the kept spread s_1 / s_3 is 46 in the block the cold call kept, which
    # allows two power steps (46.4^6 is 1e10), and 47 in the drifted W,
    # which allows one: the first step takes two, and each later step
    # recounts from the Ritz values before it and takes one
    steps = record_power_steps(monkeypatch)
    tail = noise_tail(57, 0.3, 0.97)
    d = selector(3, 60)
    warm = ProxWarmStart(0)
    cold = spectral_matrix((1600, 60), np.r_[46.0, 4.0, 1.0, tail], 5)
    assert certified_step(cold, d, warm)[1] == 0 and steps == []
    W = perturbed(spectral_matrix((1600, 60), np.r_[47.0, 4.0, 1.0, tail], 5), 0.1, 105)
    assert certified_step(W, d, warm) == (1, 0)
    assert steps == [("sweep", 2), ("sweep", 1), ("sweep", 1)]


def test_gram_proof_that_fails_falls_back_with_no_sweep():
    # sigma_1 = 300 leaves the kept eigenpairs their digits, but the Gram's
    # rounding margin, set by sigma_1^2, is wider than the 1e-8 that
    # sigma_4 leaves below tau / nu = 1: one proof fails and the call
    # falls back
    sigma = np.r_[np.geomspace(300.0, 1.5, 3), (1 - 1e-8) * 0.97 ** np.arange(57)]
    W = spectral_matrix((1600, 60), sigma, seed=1)
    warm = ProxWarmStart(0)
    assert certified_step(W, selector(0, 60), warm) == (1, 1)
    assert warm.sweeps == 0


def gram_tail_proof(W, k, beta):
    """Whether the Gram route's Cholesky proves sigma_{k+1}(W) < beta from
    the top k eigenpairs of C, v_i = W^T u_i / s_i, as _gram_triplets runs
    it, the residual test aside."""
    wide = W if W.shape[0] <= W.shape[1] else W.T
    C = wide @ wide.T
    values, vectors = linalg_module._eigh(C)
    P = wide.T @ vectors[:, :k] / np.sqrt(values[:k])
    G, delta = linalg_module._gram_residual(C, wide @ P, wide.shape[1])
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

    monkeypatch.setattr(linalg_module, "_eigh", refuse)
    p = min(shape)
    W = spectral_matrix(shape, np.r_[CARRIED_SIGMA, noise_tail(p - 100, 0.1, 0.9)][:p], seed=4)
    d = selector(3, p)
    warm = ProxWarmStart(0)
    # a first call seeds warm.V; the warm calls after it take the route
    truncated_and_exact(W, d, warm)
    sweeps = warm.sweeps
    for j in range(2):
        W = perturbed(W, 1e-3, seed=j)
        assert certified_step(W, d, warm)[1] == 0
    assert warm.sweeps >= sweeps + 2


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
    # a solve at rank 10 whose Gram route is held by a failure of its own
    warm.hold["gram"] = 15
    warm.V = np.linalg.qr(np.random.default_rng(16).standard_normal((100, 10)))[0]
    # seventy-five values above the threshold: the warm block of 15 has no
    # gap, and the fallback holds the subspace route at that block
    many = spectral_matrix((120, 100), np.r_[np.full(75, 2.0), noise_tail(25, 0.5, 0.9)], seed=17)
    assert certified_step(many, d, warm)[1] == 1
    assert warm.tail is None
    assert warm.hold == {"gram": 15, "subspace": 15}
    # after rank 75, then 10 twice and 3, the blocks of 80, 15 and 8 are
    # too wide for the subspace route or more than half of 15, and so more
    # than half of the Gram route's hold too: the calls decline with
    # nothing counted
    sweeps = warm.sweeps
    ten = spectral_matrix((120, 100), np.r_[np.full(10, 2.0), noise_tail(90, 0.5, 0.9)], seed=18)
    three = spectral_matrix((120, 100), CARRIED_SIGMA, seed=16)
    two = spectral_matrix((120, 100), np.r_[10.0, 6.0, noise_tail(98, 0.5, 0.9)], seed=16)
    for X in (ten, perturbed(ten, 1e-6, seed=18), three, two):
        assert certified_step(X, d, warm) == (0, 0)
    assert (warm.sweeps, warm.fallbacks) == (sweeps, 1)
    # the last output has rank 2, a block of 7, at most half of 15: the
    # subspace route runs again, ends its hold, and with no carried bound
    # it proves the tail afresh
    assert certified_step(perturbed(two, 1e-6, seed=19), d, warm)[0] > 0
    assert warm.sweeps > sweeps
    assert warm.hold == {"gram": 15}


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
    # which rejects it, with no step on non-finite values to warn of
    for value in (np.nan, np.inf):
        bad = spectral_matrix((120, 100), CARRIED_SIGMA, seed=10)
        certified_step(bad, selector(3, 100), warm)
        bad[5, 7] = value
        with warnings.catch_warnings(), pytest.raises(ValueError, match="finite"):
            warnings.simplefilter("error", RuntimeWarning)
            prox_matrix_with_spectrum(bad, selector(3, 100), 0.05, 0.05, warm)


@pytest.mark.parametrize("route", ["subspace", "gram"])
def test_warm_call_on_a_w_with_no_finite_norm_declines_with_no_warning(route):
    # a warm call on a W whose ||W||_F^2 is not finite, from a NaN, an inf
    # or squares that overflow, declines before any product: it counts a
    # fallback, holds its route and runs no step; the full SVD rejects a
    # non-finite W, and a W scaled by 2^530 gets the full-SVD prox bit for
    # bit
    shape = {"subspace": (120, 100), "gram": (1600, 60)}[route]
    p = min(shape)
    d = selector(3, p)
    W = spectral_matrix(shape, CARRIED_SIGMA[:p], seed=13)
    drifted = perturbed(W, 1e-3, seed=14)

    def warmed():
        warm = ProxWarmStart(13)
        assert certified_step(W, d, warm) == (1, 0)
        assert warm.V.shape == (shape[1], 3) and (route == "subspace") == (warm.gram is None)
        return warm

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for value in (np.nan, np.inf, -np.inf):
            bad = drifted.copy()
            bad[5, 7] = value
            warm = warmed()
            sweeps = warm.sweeps
            assert linalg_module._leading_svd(bad, 3, 1.0, warm) is None
            assert (warm.fallbacks, warm.hold, warm.sweeps) == (1, {route: 8}, sweeps)
            with pytest.raises(ValueError, match="finite"):
                prox_matrix_with_spectrum(bad, d, 0.05, 0.05, warmed())
        scale = 2.0**530
        warm = warmed()
        truncated, exact, fallbacks = truncated_and_exact(scale * drifted, d, warm, 0.05 * scale)
        assert (fallbacks, warm.hold) == (1, {route: 8})
        assert all(np.array_equal(t, e) for t, e in zip(truncated, exact))


def wide_spectrum_case(seed):
    """(shape, sigma, twos): one to five top values spread log-uniformly
    from just above tau / nu = 1 up to 1e8, over a tail below 1."""
    rng = np.random.default_rng(seed)
    shape = (120, 100) if seed % 2 else (100, 120)
    k = int(rng.integers(1, 6))
    top = np.sort(10.0 ** rng.uniform(0.05, 8.0, k))[::-1]
    tail = noise_tail(100 - k, rng.uniform(0.3, 0.9), rng.uniform(0.85, 0.97))
    return shape, np.r_[top, tail], int(rng.integers(0, k + 1))


def test_wide_spectra_agree_with_the_exact_prox_or_fall_back():
    # A block whose spread s_1 / s_b is raised to the power 2 q + 1 past
    # 1e10 loses its pad columns to rounding in the QR. Forty seeded
    # spectra, each a cold call and three warm ones on drifts of 1e-3:
    # every call agrees with the full-SVD prox (a fallback is the full SVD
    # itself), and there are no more fallbacks than the 3 of unpowered
    # sweeps; power steps without the cap took 43.
    fallbacks = 0
    for seed in range(40):
        shape, sigma, twos = wide_spectrum_case(seed)
        W = spectral_matrix(shape, sigma, seed)
        d = selector(twos, sigma.size)
        warm = ProxWarmStart(seed)
        for j in range(4):
            if j:
                W = perturbed(W, 1e-3, seed + j)
            truncated, exact, fallback = truncated_and_exact(W, d, warm)
            assert_prox_agrees(truncated, exact)
            fallbacks += fallback
    assert fallbacks <= 3


# ---------------------------------------------------------------------------
# extreme scales


def scale_case(name):
    """(W_0, W_1, k_min) of a cold call and the warm call after it at
    threshold 6: a 120 x 100 rank-5 input plus Gaussian noise, which takes
    the subspace route, a 200 x 200 input with 38 values above the
    threshold, whose block is too wide for it and takes the Gram route,
    and a thin 1600 x 60 rank-3 input, which takes the Gram route."""
    if name == "subspace_120x100":
        top = np.r_[np.geomspace(12.0, 7.0, 5), np.zeros(95)]
        noise = np.random.default_rng(1).standard_normal((120, 100))
        W, k = spectral_matrix((120, 100), top, seed=1) + 0.1 * noise, 5
    elif name == "gram_200x200":
        sigma = np.r_[np.geomspace(40.0, 10.0, 38), noise_tail(162, 1.0, 0.97)]
        W, k = spectral_matrix((200, 200), sigma, seed=1), 38
    else:
        sigma = np.r_[30.0, 20.0, 10.0, noise_tail(57, 1.0, 0.95)]
        W, k = spectral_matrix((1600, 60), sigma, seed=1), 3
    return W, perturbed(W, 1e-3, seed=3), k


@pytest.mark.parametrize("e", [-200, 200])
@pytest.mark.parametrize("name", ["subspace_120x100", "gram_200x200", "gram_1600x60"])
def test_warm_call_at_an_extreme_scale_repeats_the_call_at_scale_one(monkeypatch, name, e):
    # power products grow like ||W||^(2 q + 2): scaled by c = 2^e, exact in
    # floating point, they would overflow or underflow at 2^+-200; scaled
    # back by a power of two, the warm call keeps the route and the counts
    # it has at c = 1, and returns the same U and V and s times c
    taken = []
    for route in ("gram", "subspace"):
        inner = getattr(linalg_module, f"_{route}_triplets")

        def traced(*args, inner=inner, route=route):
            taken.append(route)
            return inner(*args)

        monkeypatch.setattr(linalg_module, f"_{route}_triplets", traced)
    W_0, W_1, k = scale_case(name)
    counters = ("calls", "fallbacks", "certificates", "sweeps")

    def warm_call(c):
        warm = ProxWarmStart(2)
        warm.V = linalg_module._leading_svd(c * W_0, k, c * 6.0, warm).V
        before = [getattr(warm, a) for a in counters]
        del taken[:]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            factors = linalg_module._leading_svd(c * W_1, k, c * 6.0, warm)
        return list(taken), [getattr(warm, a) - b for a, b in zip(counters, before)], factors

    c = 2.0**e
    route, deltas, base = warm_call(1.0)
    assert route == [name.split("_")[0]] and deltas[:2] == [1, 0] and base is not None
    scaled = warm_call(c)
    assert scaled[:2] == (route, deltas)
    assert np.array_equal(scaled[2].U, base.U) and np.array_equal(scaled[2].V, base.V)
    assert np.array_equal(scaled[2].sigma, c * base.sigma)
