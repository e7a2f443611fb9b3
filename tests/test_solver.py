import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spglr
from spglr import linalg as linalg_module
from spglr import penalty as penalty_module
from spglr import solver as solver_module
from spglr.experiments import gen_low_rank
from spglr.losses import CompletionLoss, MaskedData, RpcaLoss
from spglr.penalty import PenaltyCapAdvisory, capped_surrogate
from spglr.solver import (
    SolverConfig,
    energy,
    solve,
    stationarity_residual,
    update_mu,
)
from spglr.svt import SvtConfig, svt_solve

from oracles import phi_d, q_model, spg_step
from seams import count_calls, count_full_eighs, record_routes


def scalar_completion(value=2.0):
    data = MaskedData(1, 1, np.array([0]), np.array([0]), np.array([value]))
    return CompletionLoss(data)


def random_completion(rng, m=6, n=5, frac=0.7):
    total = m * n
    flat = np.sort(rng.choice(total, int(frac * total), replace=False))
    vals = rng.standard_normal(flat.size)
    return CompletionLoss(MaskedData(m, n, flat // n, flat % n, vals))


# ---------------------------------------------------------------------------
# q_model


def test_q_model_at_z_reduces_to_loss_plus_penalty():
    rng = np.random.default_rng(0)
    binding = random_completion(rng)
    cfg = SolverConfig(lam=0.3, nu=0.2)
    Z = rng.standard_normal(binding.shape)
    d = spglr.d_vector(spglr.svd(Z).sigma, cfg.nu)
    val = q_model(Z, Z, 0.5, 2.0, d, binding, cfg)
    expected = binding.value(Z, 0.5) + cfg.lam * phi_d(spglr.svd(Z).sigma, d, cfg.nu)
    assert val == pytest.approx(expected, rel=1e-12)


def test_q_model_recomposed_from_parts_without_penalty():
    rng = np.random.default_rng(1)
    binding = random_completion(rng)
    # tiny lam stands in for lam = 0, which SolverConfig does not allow
    cfg = SolverConfig(lam=1e-300, nu=0.2)
    X = rng.standard_normal(binding.shape)
    Z = rng.standard_normal(binding.shape)
    mu, gamma = 0.4, 1.7
    d = spglr.d_vector(spglr.svd(X).sigma, cfg.nu)
    val = q_model(X, Z, mu, gamma, d, binding, cfg)
    G = binding.gradient(Z, mu)
    by_hand = (
        binding.value(Z, mu)
        + float(np.sum((X - Z) * G))
        + 0.5 * (gamma / mu) * float(np.sum((X - Z) ** 2))
    )
    assert val == pytest.approx(by_hand, rel=1e-12)


def test_q_model_grows_with_radius():
    rng = np.random.default_rng(2)
    binding = random_completion(rng)
    cfg = SolverConfig(lam=0.1, nu=0.2)
    Z = rng.standard_normal(binding.shape)
    E = rng.standard_normal(binding.shape)
    E /= np.linalg.norm(E)
    d = spglr.d_vector(spglr.svd(Z).sigma, cfg.nu)
    gamma = 1e6
    q1 = q_model(Z + 0.1 * E, Z, 0.5, gamma, d, binding, cfg)
    q2 = q_model(Z + 0.2 * E, Z, 0.5, gamma, d, binding, cfg)
    assert q2 > q1


def test_q_model_rejects_bad_mu_gamma():
    binding = scalar_completion()
    cfg = SolverConfig(lam=0.1, nu=0.5)
    X = np.zeros((1, 1))
    with pytest.raises(ValueError):
        q_model(X, X, 0.0, 1.0, np.array([1]), binding, cfg)
    with pytest.raises(ValueError):
        q_model(X, X, 1.0, -1.0, np.array([1]), binding, cfg)


# ---------------------------------------------------------------------------
# spg_step


def test_spg_step_scalar_hand_value():
    # observed value 2, X = 0, mu = 0.5, gamma = 1: gradient is -1, so the
    # prox input is 0.5 and the branch-1 shrink by tau/nu = 0.1 leaves 0.4
    binding = scalar_completion(2.0)
    cfg = SolverConfig(lam=0.1, nu=0.5)
    X_hat = spg_step(np.zeros((1, 1)), 0.5, 1.0, np.array([1]), binding, cfg)
    assert X_hat[0, 0] == pytest.approx(0.4, abs=1e-12)


def test_spg_step_scalar_matches_q_model_scan():
    binding = scalar_completion(2.0)
    cfg = SolverConfig(lam=0.1, nu=0.5)
    d = np.array([1])
    X_hat = spg_step(np.zeros((1, 1)), 0.5, 1.0, d, binding, cfg)
    grid = np.linspace(-1.0, 3.0, 8001)
    vals = [
        q_model(np.array([[x]]), np.zeros((1, 1)), 0.5, 1.0, d, binding, cfg)
        for x in grid
    ]
    assert q_model(X_hat, np.zeros((1, 1)), 0.5, 1.0, d, binding, cfg) <= min(vals) + 1e-9


def test_spg_step_fixed_point_when_gradient_zero_and_spectrum_above_cap():
    # zero gradient and all singular values at or above nu: branch 2
    # everywhere makes the prox the identity
    rng = np.random.default_rng(3)
    M = np.diag([2.0, 1.5, 1.0])
    flat = np.arange(9)
    data = MaskedData(3, 3, flat // 3, flat % 3, M.flatten())
    binding = CompletionLoss(data)
    cfg = SolverConfig(lam=0.1, nu=0.5)
    d = spglr.d_vector(spglr.svd(M).sigma, cfg.nu)
    assert np.all(d == 2)
    X_hat = spg_step(M, 0.25, 1.0, d, binding, cfg)
    assert np.allclose(X_hat, M, atol=1e-12)


def test_spg_step_minimizes_q_model_under_perturbations():
    rng = np.random.default_rng(4)
    binding = random_completion(rng, m=5, n=4)
    cfg = SolverConfig(lam=0.3, nu=0.3)
    X_k = rng.standard_normal((5, 4))
    mu, gamma = 0.4, 0.9
    d = spglr.d_vector(spglr.svd(X_k).sigma, cfg.nu)
    X_hat = spg_step(X_k, mu, gamma, d, binding, cfg)
    base = q_model(X_hat, X_k, mu, gamma, d, binding, cfg)
    for delta in (1e-3, 1e-2):
        for _ in range(500):
            E = rng.standard_normal((5, 4))
            E *= delta / np.linalg.norm(E)
            assert base <= q_model(X_hat + E, X_k, mu, gamma, d, binding, cfg) + 1e-10


# ---------------------------------------------------------------------------
# the majorization check of one step


@st.composite
def steps_inside_the_tube(draw):
    """(binding, X_k, mu, config) at scale 2^e, e in [-40, 40]: a small
    completion or rpca problem whose target is a rank-r matrix, with an
    iterate whose every residual lies inside the tube. Such a step is an
    exact tie between the smoothed loss and its quadratic model when it
    stays inside the tube, so the check's outcome rests on its rounding
    bound alone: about a third of these steps fail lhs <= rhs."""
    c = 2.0 ** draw(st.integers(-40, 40))
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    r = draw(st.integers(1, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    L = c * (rng.standard_normal((m, r)) @ rng.standard_normal((r, n)))
    mu = c * 0.5 ** draw(st.integers(0, 8))
    rpca = draw(st.booleans())
    count = m * n if rpca else int(rng.integers(1, m * n + 1))
    flat = np.sort(rng.choice(m * n, count, replace=False))
    hit = np.zeros(m * n, dtype=bool)
    hit[flat] = True
    X_k = L + np.where(hit.reshape(m, n), mu * rng.uniform(-0.99, 0.99, L.shape), 0.0)
    if rpca:
        binding = RpcaLoss(L)
    else:
        binding = CompletionLoss(MaskedData(m, n, flat // n, flat % n, L.ravel()[flat]))
    cfg = SolverConfig(lam=c * draw(st.sampled_from([1e-3, 0.1, 1.0])), nu=c * 0.05)
    return binding, X_k, mu, cfg


@settings(max_examples=200, deadline=None)
@given(problem=steps_inside_the_tube())
def test_step_inside_the_tube_passes_the_majorization_check(problem):
    binding, X_k, mu, cfg = problem
    r = binding.residuals(X_k)
    assert np.all(np.abs(r) < mu)
    f_k = binding.value_at(r, mu)
    d_k = spglr.d_vector(spglr.svd(X_k).sigma, cfg.nu)
    X_next, _, _, _, _, step, excess, tol = solver_module._spg_step(
        X_k, f_k, binding.gradient_at(r, mu), mu, d_k, binding, cfg
    )
    assert np.all(np.isfinite(X_next))
    assert excess <= tol
    # the bound stays at rounding level, far below any real violation
    assert tol <= 1e-12 * (f_k + step * binding.loss_lipschitz_Lf + step * step / mu)


# ---------------------------------------------------------------------------
# update_mu and energy


def test_update_mu_reset_formula():
    assert update_mu(4, 0.5, 10.0, 10.1, 0.8, 10.0, 1.5) == pytest.approx(
        0.8944271909999159
    )


def test_update_mu_keeps_on_sufficient_decrease():
    assert update_mu(4, 0.5, 9.0, 10.0, 0.8, 10.0, 1.5) == 0.5


def test_update_mu_infinite_alpha_always_resets():
    mu1 = update_mu(0, 10.0, 0.0, 100.0, math.inf, 10.0, 1.5)
    assert mu1 == 10.0  # k = 0 reset lands back on mu0
    mu2 = update_mu(1, mu1, 0.0, 100.0, math.inf, 10.0, 1.5)
    assert mu2 == pytest.approx(10.0 / 2**1.5)


class _StubLoss:
    """Fixed smoothed-loss value; enough for the energy composition."""

    kappa = 3.0
    shape = (2, 2)

    def value(self, X, mu):
        return 1.0


def test_energy_composition():
    cfg = SolverConfig(lam=0.1, nu=0.5)
    X = np.diag([2.0, 2.0])  # penalty value 2 at nu = 0.5
    assert energy(_StubLoss(), X, 0.5, cfg) == pytest.approx(1.0 + 0.2 + 1.5)


def test_energy_at_mu_zero_is_exact_objective():
    rng = np.random.default_rng(6)
    binding = random_completion(rng)
    cfg = SolverConfig(lam=0.2, nu=0.3)
    X = rng.standard_normal(binding.shape)
    expected = binding.value(X, 0.0) + cfg.lam * capped_surrogate(
        spglr.svd(X).sigma, cfg.nu
    )
    assert energy(binding, X, 0.0, cfg) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# stationarity_residual


def test_stationarity_zero_at_solved_scalar_instance():
    binding = scalar_completion(2.0)
    cfg = SolverConfig(lam=0.01, nu=0.1, mu0=1.0)
    result = solve(binding, cfg)
    assert result.stationarity_residual < 1e-6


def test_stationarity_zero_matrix_absorbed_by_subgradient():
    data = MaskedData(2, 2, np.array([0, 1]), np.array([0, 1]), np.array([0.3, -0.2]))
    binding = CompletionLoss(data)
    cfg = SolverConfig(lam=0.6, nu=0.5)  # lam/nu = 1.2 >= max gradient entry
    assert stationarity_residual(np.zeros((2, 2)), 0.01, binding, cfg) == 0.0


def test_energy_and_stationarity_check_only_their_own_arguments():
    # the config was checked when built, so a bad one never reaches them
    with pytest.raises(ValueError, match="^lam must be positive$"):
        SolverConfig(lam=0.0)
    binding = scalar_completion(2.0)
    X = np.ones((1, 1))
    with pytest.raises(ValueError, match="^mu must be nonnegative, got -0.5$"):
        energy(binding, X, -0.5, SolverConfig())
    with pytest.raises(ValueError, match="^mu_probe must be positive, got 0.0$"):
        stationarity_residual(X, 0.0, binding, SolverConfig())


def test_stationarity_positive_at_random_point():
    rng = np.random.default_rng(2024)
    m, n = 8, 6
    flat = np.sort(rng.choice(m * n, 30, replace=False))
    binding = CompletionLoss(
        MaskedData(m, n, flat // n, flat % n, rng.standard_normal(30))
    )
    X = rng.standard_normal((m, n))
    resid = stationarity_residual(X, 1e-5, binding, SolverConfig(lam=0.1, nu=0.05))
    # reference run measured 3.3282 for this seed
    assert resid > 0.01


# ---------------------------------------------------------------------------
# solve


def test_solve_scalar_toy_recovers_observation():
    binding = scalar_completion(2.0)
    cfg = SolverConfig(lam=0.01, nu=0.1, mu0=1.0)
    result = solve(binding, cfg)
    assert abs(result.X_final[0, 0] - 2.0) <= 1e-3
    assert result.trace[-1].rank_estimate == 1
    assert result.objective_gap <= 1e-9


def test_solve_zero_observations_stays_at_zero():
    data = MaskedData(3, 4, np.array([0, 2]), np.array([1, 3]), np.zeros(2))
    result = solve(CompletionLoss(data), SolverConfig(max_iter=50))
    assert np.array_equal(result.X_final, np.zeros((3, 4)))


def test_solve_noiseless_completion_regression():
    # reference run: rmse 8.6e-14 at these settings
    spec = spglr.TrialSpec(
        m=40, n=40, r=3, sr=0.8, noise=spglr.GmmNoiseParams(0, 0, 0), seed=11
    )
    M, data = spglr.build_trial_data(spec)
    result = solve(CompletionLoss(data), SolverConfig(max_iter=2000))
    assert result.iterations <= 2000
    assert spglr.rmse(result.X_final, M) < 1e-2
    assert result.trace[-1].rank_estimate == 3


def noisy_completion():
    spec = spglr.TrialSpec(
        m=20, n=16, r=2, sr=0.8, noise=spglr.GmmNoiseParams(1e-4, 0.1, 0.1), seed=5
    )
    _, data = spglr.build_trial_data(spec)
    return CompletionLoss(data)


def sparse_corrupted_low_rank():
    rng = np.random.default_rng(12)
    truth = gen_low_rank(20, 20, 2, 12)
    S = np.zeros((20, 20))
    idx = rng.choice(400, 40, replace=False)
    S.flat[idx] = rng.uniform(-0.5, 0.5, 40)
    return truth, truth + S


def count_prox_calls(monkeypatch):
    return count_calls(monkeypatch, solver_module, "prox_matrix_with_spectrum")


def test_solve_trace_invariants():
    cfg = SolverConfig(lam=0.75, nu=0.05, max_iter=120)
    result = solve(noisy_completion(), cfg)
    trace = result.trace
    assert len(trace) == result.iterations == 120
    energies = [r.energy for r in trace]
    assert all(e1 <= e0 + 1e-10 for e0, e1 in zip(energies, energies[1:]))
    mus = [r.mu_k for r in trace]
    assert all(m1 <= m0 for m0, m1 in zip(mus, mus[1:]))
    # reset flags describe the recorded mu sequence
    for r0, r1 in zip(trace, trace[1:]):
        assert r0.mu_reset == (r1.mu_k != r0.mu_k)
    assert all(r.gamma_k == 1.0 for r in trace)
    assert all(r.smoothed_objective <= r.energy for r in trace)
    assert all(r.step_norm >= 0 for r in trace)
    assert result.status in ("converged", "max_iter")


def test_solve_energy_identity_with_public_energy():
    spec = spglr.TrialSpec(
        m=10, n=10, r=2, sr=0.9, noise=spglr.GmmNoiseParams(0, 0, 0), seed=2
    )
    _, data = spglr.build_trial_data(spec)
    binding = CompletionLoss(data)
    cfg = SolverConfig(lam=0.75, nu=0.05, max_iter=40)
    result = solve(binding, cfg)
    assert result.iterations == 40
    # every record, recomputed from its replayed iterate and prox spectrum
    # with the public loss and penalty, matches bit for bit: the loop's
    # unchecked kernels and norms change no value
    for rec, (X, sigma) in zip(result.trace, _replayed_iterates(binding, cfg, result.trace)):
        penalty = cfg.lam * capped_surrogate(sigma, cfg.nu)
        smoothed = binding.value(X, rec.mu_k) + penalty
        assert rec.smoothed_objective == smoothed
        assert rec.energy == smoothed + binding.kappa * rec.mu_k
        assert rec.exact_objective == binding.value(X, 0.0) + penalty
        assert rec.rank_estimate == spglr.rank_estimate(sigma)
        # the public energy takes its own SVD of X, equal to rounding
        assert energy(binding, X, rec.mu_k, cfg) == pytest.approx(rec.energy, rel=1e-9)


def _replayed_iterates(binding, cfg, trace):
    """(X, spectrum) after each recorded step, from the public d_vector,
    gradient and prox on the exact path."""
    from spglr.penalty import d_vector, prox_matrix_with_spectrum

    X = np.zeros(binding.shape)
    sigma = np.zeros(min(binding.shape))
    for rec in trace:
        d = d_vector(sigma, cfg.nu)
        G = binding.gradient(X, rec.mu_k)
        W = X - (rec.mu_k / rec.gamma_k) * G
        tau = cfg.lam * rec.mu_k / rec.gamma_k
        X, sigma = prox_matrix_with_spectrum(W, d, tau, cfg.nu)
        yield X, sigma


def test_solve_emits_cap_advisory_warning():
    rng = np.random.default_rng(11)
    binding = random_completion(rng, m=8, n=8, frac=0.9)
    cfg = SolverConfig(lam=0.1, nu=0.05, max_iter=3)  # nu >= lam / sqrt(terms)
    with pytest.warns(PenaltyCapAdvisory, match=r"^nu=0.05 is at or above lam / L_f = 0.0132;"):
        solve(binding, cfg)


@pytest.mark.filterwarnings("error::spglr.penalty.PenaltyCapAdvisory")
def test_solve_below_cap_emits_no_advisory():
    rng = np.random.default_rng(11)
    binding = random_completion(rng, m=8, n=8, frac=0.9)
    # lam / L_f = 0.1 / sqrt(57) = 0.0132
    solve(binding, SolverConfig(lam=0.1, nu=0.013, max_iter=3))


@pytest.mark.parametrize("mu0", [1.0, 10.0, 100.0])
@pytest.mark.parametrize("lam", [0.75, 2.0])
def test_zero_is_a_fixed_point_inside_the_regime(lam, mu0):
    # at X = 0 every gradient entry lies in [-1, 1], so ||mu G||_2 <=
    # mu L_f < lam mu / nu, the prox threshold when every d is 1, which
    # it is at sigma = 0: the solve from zero never leaves it
    spec = spglr.TrialSpec(m=30, n=30, r=3, sr=0.8, noise=spglr.GmmNoiseParams(1e-4, 0.1, 0.1))
    binding = CompletionLoss(spglr.build_trial_data(spec)[1])
    cfg = SolverConfig(lam=lam, nu=0.99 * lam / binding.loss_lipschitz_Lf, mu0=mu0, max_iter=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error", PenaltyCapAdvisory)
        result = solve(binding, cfg)
    assert result.trace and not result.X_final.any()
    assert all(rec.step_norm == 0 and rec.rank_estimate == 0 for rec in result.trace)


@given(
    seed=st.integers(0, 2**32 - 1),
    frac=st.floats(0.2, 1.0),
    lam=st.floats(0.1, 5.0),
    ratio=st.floats(0.01, 0.99),
)
@settings(max_examples=100, deadline=None)
def test_truncation_below_nu_lowers_the_exact_objective_inside_the_regime(seed, frac, lam, ratio):
    # at nu < lam / L_f, zeroing the singular values sigma_i < nu of X
    # removes lam sigma_i / nu each from the penalty and moves the l1 loss
    # by at most L_f ||X - X_t||_F <= L_f sum sigma_i; outside the regime
    # this bound says nothing, so no draw leaves it
    rng = np.random.default_rng(seed)
    binding = random_completion(rng, m=20, n=15, frac=frac)
    nu = ratio * lam / binding.loss_lipschitz_Lf
    U = np.linalg.qr(rng.standard_normal((20, 15)))[0]
    V = np.linalg.qr(rng.standard_normal((15, 15)))[0]
    X = (U * nu * 10.0 ** rng.uniform(-3.0, 2.0, 15)) @ V.T
    factors = spglr.svd(X)
    below = factors.sigma < nu
    assume(below.any())
    X_t = (factors.U * np.where(below, 0.0, factors.sigma)) @ factors.V.T

    def objective(Z):
        return binding.value(Z, 0.0) + lam * capped_surrogate(spglr.svd(Z).sigma, nu)

    before, after = objective(X), objective(X_t)
    bound = (lam / nu - binding.loss_lipschitz_Lf) * factors.sigma[below].sum()
    assert before - after >= bound - 1e-12 * before


@pytest.mark.parametrize(
    "make_binding, cfg",
    [
        (noisy_completion, SolverConfig(lam=0.75, nu=0.05, max_iter=120)),
        (
            lambda: RpcaLoss(sparse_corrupted_low_rank()[1]),
            SolverConfig(lam=0.4, nu=0.05, max_iter=300),
        ),
    ],
    ids=["completion", "rpca"],
)
def test_solve_pays_about_one_prox_per_iteration(monkeypatch, make_binding, cfg):
    calls = count_prox_calls(monkeypatch)
    binding = make_binding()
    residual_calls = count_calls(monkeypatch, binding, "residuals")
    result = solve(binding, cfg)
    assert len(calls) <= 1.1 * result.iterations
    assert result.prox_calls == len(calls)
    assert result.prox_fallbacks == 0
    # one residual pass per candidate, plus the start and the final
    # stationarity residual
    assert len(residual_calls) <= result.prox_calls + 2


def test_solve_checks_neither_d_nor_the_truncated_w(monkeypatch):
    # d, tau, nu and W come from the algorithm and a config checked when
    # built; the prox trusts them, and the truncated route trusts its W.
    check_calls = count_calls(monkeypatch, penalty_module, "_check_d")
    leading_svd, as_matrix = penalty_module._leading_svd, linalg_module.as_matrix
    inside, routed, checked = [], [], []

    def recording_leading_svd(*args):
        inside.append(None)
        try:
            factors = leading_svd(*args)
        finally:
            inside.pop()
        routed.append(factors is not None)
        return factors

    def recording_as_matrix(*args):
        if inside:
            checked.append(None)
        return as_matrix(*args)

    monkeypatch.setattr(penalty_module, "_leading_svd", recording_leading_svd)
    monkeypatch.setattr(linalg_module, "as_matrix", recording_as_matrix)
    _, binding = square_completion(100)
    result = solve(binding, SolverConfig(lam=1.0, nu=0.05, max_iter=60, seed=3))
    assert routed == [True] * result.prox_calls
    assert check_calls == []
    assert checked == []


def test_solve_takes_one_prox_per_iteration(monkeypatch):
    # Every iteration calls the prox exactly once, at its own mu_k (gamma =
    # 1): there is no search that could retry it.
    steps = []
    prox_step = solver_module._prox_step

    def recording_prox_step(X_k, G, mu_k, *args):
        steps.append(mu_k)
        return prox_step(X_k, G, mu_k, *args)

    monkeypatch.setattr(solver_module, "_prox_step", recording_prox_step)
    calls = count_prox_calls(monkeypatch)
    _, L = sparse_corrupted_low_rank()
    result = solve(RpcaLoss(L), SolverConfig(lam=0.4, nu=0.05, max_iter=300))
    assert len(steps) == len(calls) == result.prox_calls == result.iterations
    assert steps == [rec.mu_k for rec in result.trace]
    assert all(rec.gamma_k == 1.0 for rec in result.trace)


def test_solve_raises_when_a_step_breaks_the_majorization_check(monkeypatch):
    # Inflate the smoothed loss of the third step's candidate by 1; the
    # loss values the loop takes at its iterates stay exact.
    binding = noisy_completion()
    value_and_l1_at = binding.value_and_l1_at
    candidates = []

    def inflated(r, mu):
        candidates.append(None)
        value, l1 = value_and_l1_at(r, mu)
        return value + (len(candidates) == 3), l1

    monkeypatch.setattr(binding, "value_at", lambda r, mu: value_and_l1_at(r, mu)[0])
    monkeypatch.setattr(binding, "value_and_l1_at", inflated)
    message = r"^iteration 2: the smoothed loss exceeds its quadratic model by 1, beyond its "
    with pytest.raises(solver_module.MajorizationError, match=message):
        solve(binding, SolverConfig(lam=0.75, nu=0.05, max_iter=10))
    assert len(candidates) == 3


def test_solve_rpca_splits_sparse_corruption():
    truth, L = sparse_corrupted_low_rank()
    result = solve(RpcaLoss(L), SolverConfig(lam=0.4, nu=0.05, max_iter=300))
    assert spglr.rmse(result.X_final, truth) < 5e-3
    assert result.trace[-1].rank_estimate == 2


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mu0=-1.0)
    with pytest.raises(TypeError, match="'rho'"):
        SolverConfig(rho=2.0)  # the step's curvature is fixed at 1 / mu
    with pytest.raises(ValueError):
        SolverConfig(sigma_exp=1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError, match="^lam must be positive$"):
        SolverConfig(lam=0.0)
    with pytest.raises(ValueError, match="^nu must be positive$"):
        SolverConfig(nu=-1.0)
    SolverConfig(alpha=math.inf)  # ablation mode is valid
    for value in (-math.inf, math.nan, 10**400):
        with pytest.raises(ValueError, match="^alpha must be finite$"):
            SolverConfig(alpha=value)
    # one message per field, each led by the field's name
    with pytest.raises(ValueError, match="^mu0 must be finite$"):
        SolverConfig(mu0=math.inf)
    with pytest.raises(ValueError, match="^nu must be finite$"):
        SolverConfig(nu=math.nan)
    with pytest.raises(ValueError, match="^mu0 must be finite$"):
        SolverConfig(mu0=10**400)  # not OverflowError from the float conversion
    with pytest.raises(ValueError, match="^seed must be nonnegative$"):
        SolverConfig(seed=-1)
    # integer fields take Python and numpy integers, never a bool or a float
    for field, value in [("max_iter", 2.5), ("max_iter", 3.0), ("seed", 1.5), ("seed", True)]:
        with pytest.raises(ValueError, match=f"^{field} must be an integer$"):
            SolverConfig(**{field: value})
    assert SolverConfig(max_iter=np.int64(3), seed=np.uint32(2)).max_iter == 3
    # real fields take Python and numpy reals, never a bool, a string or None
    for field, value in [("mu0", True), ("lam", "0.1"), ("alpha", None), ("nu", np.bool_(1))]:
        with pytest.raises(ValueError, match=f"^{field} must be a number$"):
            SolverConfig(**{field: value})
    assert SolverConfig(lam=1, nu=np.float32(0.05), mu0=np.int64(100)).lam == 1
    # a config that exists is valid: replace checks, and fields are frozen
    with pytest.raises(ValueError, match="^lam must be positive$"):
        dataclasses.replace(SolverConfig(), lam=0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        SolverConfig().lam = 0.0


def test_solve_result_rank_is_last_record_rank():
    rng = np.random.default_rng(8)
    result = solve(random_completion(rng), SolverConfig(max_iter=20))
    assert result.rank == result.trace[-1].rank_estimate
    empty = spglr.SolveResult(np.zeros((2, 2)), "max_iter", [], 0.0, 0.0)
    assert empty.rank == 0


# ---------------------------------------------------------------------------
# truncated spectral prox inside solve


def square_completion(m, seed=9):
    spec = spglr.TrialSpec(
        m=m, n=m, r=4, sr=0.8, noise=spglr.GmmNoiseParams(1e-4, 0.1, 0.1), seed=seed
    )
    M, data = spglr.build_trial_data(spec)
    return M, CompletionLoss(data)


def exact_path_only(monkeypatch):
    """Make the route rule allow no truncated route, so every prox takes the full SVD."""
    monkeypatch.setattr(linalg_module, "_routes", lambda *args: ())


def test_solve_on_truncated_path_is_deterministic(monkeypatch):
    routed = record_routes(monkeypatch)
    _, binding = square_completion(100)
    cfg = SolverConfig(lam=1.0, nu=0.05, max_iter=60, seed=3)
    first = solve(binding, cfg)
    assert first.prox_calls > 0
    assert routed == [True] * first.prox_calls
    assert first.prox_fallbacks == 0
    assert first.prox_sweeps >= first.prox_calls
    assert first.trace[-1].rank_estimate > 0
    second = solve(binding, cfg)
    assert np.array_equal(first.X_final, second.X_final)
    assert first.trace == second.trace


def video_like(seed, side=20, frames=60, rank=3, foreground=0.1):
    """A (side * side) x frames matrix: a rank-`rank` nonnegative background
    under varying gains, with a `foreground` share of entries replaced by
    uniform intensities."""
    rng = np.random.default_rng(seed)
    patterns = rng.uniform(0.0, 1.0, (side * side, rank))
    observed = patterns @ rng.uniform(0.1, 0.4, (frames, rank)).T
    moving = rng.random(observed.shape) < foreground
    observed[moving] = rng.uniform(0.0, 1.0, int(moving.sum()))
    return observed


def test_solve_on_truncated_path_matches_full_svd_run(monkeypatch):
    # On the 400 x 60 rpca input, the backtracking search the majorization
    # check replaced let rounding ties pick gamma: its truncated and
    # full-SVD runs took different gamma and mu sequences and ended 4.9e-5
    # apart.
    cases = [
        (square_completion(120)[1], SolverConfig(lam=1.0, nu=0.05, max_iter=150)),
        (RpcaLoss(video_like(5)), SolverConfig(lam=2.5, nu=0.05, mu0=100.0, max_iter=200)),
    ]
    for binding, cfg in cases:
        with monkeypatch.context() as patch:
            routed = record_routes(patch)
            truncated = solve(binding, cfg)
            assert routed == [True] * truncated.prox_calls
            assert truncated.prox_fallbacks == 0
            exact_path_only(patch)
            exact = solve(binding, cfg)
        assert exact.prox_calls == truncated.prox_calls == truncated.iterations
        assert all(r.gamma_k == 1.0 for r in truncated.trace + exact.trace)
        assert [r.mu_reset for r in truncated.trace] == [r.mu_reset for r in exact.trace]
        assert np.linalg.norm(truncated.X_final - exact.X_final) <= 1e-10 * np.linalg.norm(
            exact.X_final
        )
        assert truncated.rank == exact.rank


def test_solve_carries_the_tail_bound_past_most_certificates(monkeypatch):
    # Proving every truncated prox from scratch costs one Cholesky per
    # call; the bound carried by Weyl's inequality skips most of them.
    made = []

    class Recorded(linalg_module.ProxWarmStart):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(solver_module, "ProxWarmStart", Recorded)
    _, binding = square_completion(120)
    result = solve(binding, SolverConfig(lam=1.0, nu=0.05, mu0=100.0, max_iter=500))
    (warm,) = made
    assert warm.calls == result.prox_calls
    assert (result.prox_certificates, result.prox_sweeps) == (warm.certificates, warm.sweeps)
    # the one fallback is the cold start: the first call with values above
    # the threshold, whose block has no columns from the rank-0 outputs
    # before it
    assert result.prox_fallbacks == 1
    assert 0 < warm.certificates <= 0.4 * warm.calls
    # the power steps before each Rayleigh-Ritz step converge a warm call
    # in about two sweeps; unpowered sweeps took about five
    assert result.prox_sweeps <= 3 * result.prox_calls


def test_criterion_7_completion_takes_under_two_sweeps_per_prox_call():
    # The filter step before each warm call's Rayleigh-Ritz sweeps: this
    # 60 x 60 completion took 2.51 sweeps per prox call without it, and
    # about 1.7 with it, at the same certificates and fallbacks.
    spec = spglr.TrialSpec(
        m=60, n=60, r=5, sr=0.8, noise=spglr.GmmNoiseParams(1e-4, 0.1, 0.1), seed=5000
    )
    _, data = spglr.build_trial_data(spec)
    cfg = SolverConfig(lam=0.75, nu=0.05, mu0=100.0, max_iter=500)
    result = solve(CompletionLoss(data), cfg)
    assert (result.prox_calls, result.prox_certificates, result.prox_fallbacks) == (500, 121, 1)
    assert result.prox_sweeps < 2 * result.prox_calls


def test_solve_holds_the_full_svd_after_a_fallback(monkeypatch):
    # At lam 0.45 the 120 x 120 iterate climbs to rank 39. Its warm-started
    # sweeps grow dear on the way, and the Gram start, then the full SVD,
    # takes over: a route that kept sweeping until a fallback ran 1040.
    spec = spglr.TrialSpec(
        m=120, n=120, r=5, sr=0.8, noise=spglr.GmmNoiseParams(1e-4, 0.1, 0.1), seed=7
    )
    M, data = spglr.build_trial_data(spec)
    cfg = SolverConfig(lam=0.45, nu=0.05, max_iter=150)
    held = solve(CompletionLoss(data), cfg)
    assert held.prox_fallbacks <= 2
    assert held.prox_sweeps <= 800
    exact_path_only(monkeypatch)
    exact = solve(CompletionLoss(data), cfg)
    assert held.prox_calls == exact.prox_calls
    assert held.rank == exact.rank == 39
    assert spglr.rmse(held.X_final, M) == pytest.approx(spglr.rmse(exact.X_final, M), rel=1e-3)


def test_solve_thin_input_above_cutoff_counts_no_fallbacks(monkeypatch):
    # 1300 x 8: a large input, but too narrow for the first block of the
    # truncated SVD and the five columns it needs past it
    rng = np.random.default_rng(4)
    L = gen_low_rank(1300, 8, 2, 7)
    L.flat[rng.choice(L.size, 500, replace=False)] += rng.uniform(-0.5, 0.5, 500)
    cfg = SolverConfig(lam=1.0, nu=0.05, max_iter=60)
    grams = count_full_eighs(monkeypatch, 8)
    routed = record_routes(monkeypatch)
    result = solve(RpcaLoss(L), cfg)
    assert routed == [False] * result.prox_calls
    assert result.prox_calls >= result.iterations
    assert result.prox_fallbacks == result.prox_certificates == result.prox_sweeps == 0
    assert not grams
    exact_path_only(monkeypatch)
    exact = solve(RpcaLoss(L), cfg)
    assert np.array_equal(result.X_final, exact.X_final)
    assert result.trace == exact.trace


def thin_rpca_input():
    """(truth, L): a 400 x 30 rank-3 matrix and a copy with 10 % of its
    entries moved by up to 1."""
    rng = np.random.default_rng(11)
    truth = gen_low_rank(400, 30, 3, 11)
    L = truth.copy()
    hit = rng.random(L.shape) < 0.1
    L[hit] += rng.uniform(-1.0, 1.0, int(hit.sum()))
    return truth, L


def test_solve_thin_input_takes_warm_gram_calls(monkeypatch):
    # 400 x 30: a thin input whose prox takes the Gram route on every call,
    # one certificate each. The cold first call and two calls whose kept
    # block predicted too slow a shrink as the rank grew run the full eigh
    # of the 30 x 30 Gram matrix; every other call takes Rayleigh-Ritz
    # pairs from the block the last call kept, about 1.3 steps each
    truth, L = thin_rpca_input()
    cfg = SolverConfig(lam=1.0, nu=0.05, max_iter=300)
    grams = count_full_eighs(monkeypatch, 30)
    routed = record_routes(monkeypatch)
    result = solve(RpcaLoss(L), cfg)
    assert routed == [True] * result.prox_calls
    assert len(grams) == 3
    assert result.prox_fallbacks == 0
    assert result.prox_certificates == result.prox_calls
    assert result.prox_calls - 3 <= result.prox_sweeps <= 1.5 * result.prox_calls
    energies = [r.energy for r in result.trace]
    assert all(e1 <= e0 + 1e-10 for e0, e1 in zip(energies, energies[1:]))
    exact_path_only(monkeypatch)
    exact = solve(RpcaLoss(L), cfg)
    assert result.rank == exact.rank == 3
    assert spglr.rmse(result.X_final, truth) <= 1.01 * spglr.rmse(exact.X_final, truth)


def test_every_factorisation_goes_through_the_linalg_kernels(monkeypatch):
    # with numpy.linalg's svd, eigh, qr and cholesky made to raise, the full
    # SVD of either orientation, a 120 x 100 completion on the subspace
    # route, whose first cold call at a nonzero rank falls back to the full
    # SVD, the 400 x 30 rpca input on the Gram route and SVT's full eighs
    # of the 200 x 200 Gram matrix give the same bits as with numpy.linalg
    # in place
    spec = spglr.TrialSpec(
        m=120, n=100, r=4, sr=0.8, noise=spglr.GmmNoiseParams(1e-4, 0.1, 0.1), seed=0
    )
    completion = CompletionLoss(spglr.build_trial_data(spec)[1])
    rpca = RpcaLoss(thin_rpca_input()[1])
    svt_data = spglr.build_trial_data(dataclasses.replace(spec, m=200, n=200, r=5, seed=3))[1]
    W = np.random.default_rng(0).standard_normal((7, 3))
    routed = record_routes(monkeypatch)
    thin_eighs, svt_eighs = count_full_eighs(monkeypatch, 30), count_full_eighs(monkeypatch, 200)

    def runs():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PenaltyCapAdvisory)
            return [spglr.svd(W), spglr.svd(W.T),
                    solve(completion, SolverConfig(lam=0.5, nu=0.05, max_iter=40)),
                    solve(rpca, SolverConfig(lam=1.0, nu=0.05, max_iter=40)),
                    svt_solve(svt_data, SvtConfig(tau=1.0, max_iter=5))]

    expected = runs()
    completed, robust, svt = expected[2:]
    assert routed[:40].count(False) == completed.prox_fallbacks == 1
    assert completed.prox_sweeps > 0
    assert robust.prox_certificates == robust.prox_calls and thin_eighs
    assert svt.prox_certificates > 0 and len(svt_eighs) == svt.prox_certificates

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called from spglr")

    for name in ("svd", "eigh", "qr", "cholesky"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for got, want in zip(runs(), expected, strict=True):
        if isinstance(want, spglr.SolveResult):
            assert np.array_equal(got.X_final, want.X_final)
            assert dataclasses.replace(got, X_final=None) == dataclasses.replace(want, X_final=None)
        else:
            assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


def scaled_problem(name, c):
    """(binding, config) of a scale-test problem with the data, lam, nu,
    mu0 and mu_stop multiplied by c: a 400 x 30 rpca input, whose prox
    takes the Gram route, a 40 x 40 completion, or the same completion
    with a looser stop test, which it meets within 300 iterations."""
    if name == "rpca_400x30":
        binding, lam = RpcaLoss(c * thin_rpca_input()[1]), 1.0
    else:
        spec = spglr.TrialSpec(
            m=40, n=40, r=3, sr=0.8, noise=spglr.GmmNoiseParams(1e-4, 0.1, 0.1), seed=2
        )
        _, data = spglr.build_trial_data(spec)
        binding, lam = CompletionLoss(
            MaskedData(40, 40, data.row_idx, data.col_idx, c * data.values)), 0.75
    config = SolverConfig(lam=c * lam, nu=c * 0.05, mu0=c * 10.0, mu_stop=c * 1e-6, max_iter=40)
    if name == "completion_40x40_stops":
        config = dataclasses.replace(config, mu_stop=c * 1e-2, step_tol=1e-3, max_iter=300)
    return binding, config


@settings(max_examples=10, deadline=None)
@given(problem=st.sampled_from(["rpca_400x30", "completion_40x40", "completion_40x40_stops"]),
       e=st.integers(-40, 40))
@example(problem="rpca_400x30", e=-40)
@example(problem="rpca_400x30", e=-30)
@example(problem="completion_40x40", e=-40)
@example(problem="completion_40x40", e=-30)
@example(problem="completion_40x40_stops", e=-20)
@example(problem="completion_40x40_stops", e=-8)
@example(problem="completion_40x40_stops", e=8)
@example(problem="rpca_400x30", e=-200)
@example(problem="rpca_400x30", e=200)
@example(problem="completion_40x40", e=-200)
@example(problem="completion_40x40", e=200)
@example(problem="completion_40x40_stops", e=-200)
@example(problem="completion_40x40_stops", e=200)
def test_solve_scales_bit_for_bit(problem, e):
    # every decision of the solve, the truncated prox routes and the stop
    # test included, is relative: scaling the data, lam, nu, mu0 and
    # mu_stop by c = 2^e, exact in floating point, scales X_final bit for
    # bit and leaves the stop, the iterations and the prox counts as they
    # were; the rank the result and its trace report, and so the
    # stationarity residual, are unchanged, and the objective gap scales
    # by c, from 2^-200 to 2^200, where the prox's power products would
    # overflow or underflow unless scaled back
    c = 2.0**e
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PenaltyCapAdvisory)
        base = solve(*scaled_problem(problem, 1.0))
        scaled = solve(*scaled_problem(problem, c))
    assert (base.status == "converged") == (problem == "completion_40x40_stops")
    assert np.array_equal(scaled.X_final, c * base.X_final)
    counts = ("status", "iterations", "prox_calls", "prox_fallbacks", "prox_certificates",
              "prox_sweeps", "rank", "stationarity_residual")
    assert [getattr(scaled, a) for a in counts] == [getattr(base, a) for a in counts]
    assert [r.rank_estimate for r in scaled.trace] == [r.rank_estimate for r in base.trace]
    assert scaled.objective_gap == c * base.objective_gap


def rearranged_problems(name):
    """(base, transposed, permuted, rows, cols) for a rearrangement test:
    the bindings of a problem, of its transpose and of its rows and
    columns in a seeded order, with that order, so that the permuted
    problem's X is X[rows][:, cols]. "completion_90x60" takes the subspace
    route and "rpca_400x30" the Gram route."""
    if name == "rpca_400x30":
        L = thin_rpca_input()[1]
        rows, cols = (np.random.default_rng(0).permutation(k) for k in L.shape)
        return RpcaLoss(L), RpcaLoss(L.T), RpcaLoss(L[rows][:, cols]), rows, cols
    spec = spglr.TrialSpec(
        m=90, n=60, r=3, sr=0.8, noise=spglr.GmmNoiseParams(1e-4, 0.1, 0.1), seed=0
    )
    _, d = spglr.build_trial_data(spec)
    rows, cols = (np.random.default_rng(0).permutation(k) for k in (90, 60))
    at_rows, at_cols = np.argsort(rows), np.argsort(cols)
    return (CompletionLoss(d), CompletionLoss(MaskedData(60, 90, d.col_idx, d.row_idx, d.values)),
            CompletionLoss(MaskedData(90, 60, at_rows[d.row_idx], at_cols[d.col_idx], d.values)),
            rows, cols)


@pytest.mark.parametrize("name, route, lam", [("completion_90x60", "_subspace_triplets", 0.75),
                                              ("rpca_400x30", "_gram_triplets", 1.0)],
                         ids=["completion_90x60", "rpca_400x30"])
def test_solve_commutes_with_transposition_and_permutation(monkeypatch, name, route, lam):
    # the problem's rows and columns carry no order: solving the transposed
    # problem, or the one with rows and columns permuted, gives X_final
    # transposed or permuted, with the same rank and status, to rounding
    # (the random starting columns of a truncated prox differ with the
    # side they live on). Over 60 iterations the observed relative
    # differences were 8.7e-14 (transposed) and 9.1e-14 (permuted) on the
    # completion, at rank 3, and 5.4e-16 and 6.3e-16 on the rpca input,
    # also at rank 3.
    base, transposed, permuted, rows, cols = rearranged_problems(name)
    cfg = SolverConfig(lam=lam, nu=0.05, max_iter=60)
    routed = {r: count_calls(monkeypatch, linalg_module, r)
              for r in ("_subspace_triplets", "_gram_triplets")}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PenaltyCapAdvisory)
        results = [solve(binding, cfg) for binding in (base, transposed, permuted)]
    assert {r for r, calls in routed.items() if calls} == {route}
    X = results[0].X_final
    assert results[0].rank == 3
    for result, expected in zip(results[1:], (X.T, X[rows][:, cols])):
        assert (result.rank, result.status) == (results[0].rank, results[0].status)
        assert np.linalg.norm(result.X_final - expected) <= 1e-12 * np.linalg.norm(X)


def test_video_like_solve_runs_one_full_eigh(monkeypatch):
    # 400 x 60 at the benchmark's settings: all 500 prox calls take the
    # Gram route, thin inputs' first choice. Only the cold first one runs
    # the full eigh of the 60 x 60 Gram matrix: the rest take their pairs
    # from Rayleigh-Ritz steps on the block the last call kept, with one
    # certificate each and no fallback.
    cfg = SolverConfig(lam=2.5, nu=0.05, mu0=100.0, max_iter=500, seed=1)
    gram_calls = count_calls(monkeypatch, linalg_module, "_gram_triplets")
    grams = count_full_eighs(monkeypatch, 60)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PenaltyCapAdvisory)
        result = solve(RpcaLoss(video_like(1)), cfg)
    assert (len(gram_calls), len(grams)) == (500, 1)
    assert (result.prox_calls, result.prox_certificates, result.prox_fallbacks) == (500, 500, 0)
    assert result.rank == 3


@pytest.mark.parametrize(
    "make_binding",
    [
        noisy_completion,
        lambda: square_completion(40)[1],
        lambda: RpcaLoss(sparse_corrupted_low_rank()[1]),
    ],
    ids=["completion", "completion_40x40", "rpca"],
)
def test_solve_below_cutoff_stays_on_exact_path(monkeypatch, make_binding):
    def refuse(*args):
        raise AssertionError("the Gram start ran on a small input")

    monkeypatch.setattr(linalg_module, "_eigh", refuse)
    binding = make_binding()
    routed = record_routes(monkeypatch)
    result = solve(binding, SolverConfig(lam=0.4, nu=0.05, max_iter=40))
    assert routed == [False] * result.prox_calls
    assert result.prox_calls >= result.iterations
    assert result.prox_fallbacks == result.prox_certificates == result.prox_sweeps == 0


@st.composite
def degenerate_problems(draw):
    """(dense matrix, MaskedData over it): 1 x n, n x 1 or small shapes,
    fully observed, one observed entry or a random subset, and values that
    are all zero or scaled by 10^k for k in [-8, 8]."""
    kind = draw(st.sampled_from(["row", "column", "block"]))
    size = st.integers(1, 8)
    m = 1 if kind == "row" else draw(size)
    n = 1 if kind == "column" else draw(size)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        M = np.zeros((m, n))
    else:
        M = rng.standard_normal((m, n)) * 10.0 ** draw(st.integers(-8, 8))
    observed = draw(st.sampled_from(["full", "one", "some"]))
    count = {"full": m * n, "one": 1, "some": int(rng.integers(1, m * n + 1))}[observed]
    flat = np.sort(rng.choice(m * n, count, replace=False))
    return M, MaskedData(m, n, flat // n, flat % n, M.ravel()[flat])


@settings(max_examples=150, deadline=None)
@given(problem=degenerate_problems(), max_iter=st.integers(1, 60))
def test_degenerate_inputs_finish_cleanly(problem, max_iter):
    M, data = problem
    cfg = SolverConfig(lam=0.75, nu=0.05, max_iter=max_iter)
    results = [
        solve(CompletionLoss(data), cfg),
        solve(RpcaLoss(M), cfg),
        svt_solve(data, SvtConfig(tau=1.0, max_iter=max_iter)),
    ]
    for result in results:
        assert result.X_final.shape == M.shape
        assert np.all(np.isfinite(result.X_final))
        assert result.status in ("converged", "max_iter")
        assert result.rank <= min(M.shape)
        assert math.isfinite(result.stationarity_residual)
