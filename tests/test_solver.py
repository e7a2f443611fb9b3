import dataclasses
import math

import numpy as np
import pytest

import spglr
from spglr import linalg as linalg_module
from spglr import penalty as penalty_module
from spglr import solver as solver_module
from spglr.losses import CompletionLoss, MaskedData, RpcaLoss
from spglr.penalty import PenaltyCapAdvisory, capped_surrogate
from spglr.solver import (
    SolverConfig,
    energy,
    solve,
    stationarity_residual,
    update_mu,
)

from oracles import line_search, q_model, spg_step


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
    expected = binding.value(Z, 0.5) + cfg.lam * spglr.phi_d(
        spglr.svd(Z).sigma, d, cfg.nu
    )
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
# line_search


def test_line_search_accepts_sufficient_curvature_immediately():
    binding = scalar_completion(2.0)
    cfg = SolverConfig(lam=0.1, nu=0.5)
    gamma, _ = line_search(np.zeros((1, 1)), 0.5, 4.0, np.array([1]), binding, cfg)
    assert gamma == 4.0


def test_line_search_bounded_by_rho_times_lipschitz():
    # starting below the Lipschitz constant 1, backtracking cannot pass rho
    rng = np.random.default_rng(5)
    binding = random_completion(rng)
    cfg = SolverConfig(lam=0.2, nu=0.1)
    X = rng.standard_normal(binding.shape)
    d = spglr.d_vector(spglr.svd(X).sigma, cfg.nu)
    gamma, _ = line_search(X, 0.05, 0.3, d, binding, cfg)
    assert gamma <= 2.0


def test_line_search_constructed_backtrack():
    # an iterate inside the quadratic tube, so the true curvature 1/mu
    # exceeds the gamma = 0.3 model and forces backtracking
    binding = scalar_completion(2.0)
    cfg = SolverConfig(lam=0.1, nu=0.5)
    X_k = np.array([[1.8]])
    mu = 0.5
    d = np.array([2])
    gamma, X_next = line_search(X_k, mu, 0.3, d, binding, cfg)
    assert gamma in (0.6, 1.2)
    assert gamma == pytest.approx(1.2)
    # the acceptance inequality holds at the returned point
    f_k = binding.value(X_k, mu)
    G = binding.gradient(X_k, mu)
    diff = X_next - X_k
    rhs = f_k + float(np.sum(diff * G)) + 0.5 * (gamma / mu) * float(np.sum(diff**2))
    assert binding.value(X_next, mu) <= rhs + 1e-14


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
    truth = spglr.gen_low_rank(20, 20, 2, 12)
    S = np.zeros((20, 20))
    idx = rng.choice(400, 40, replace=False)
    S.flat[idx] = rng.uniform(-0.5, 0.5, 40)
    return truth, truth + S


def count_calls(monkeypatch, owner, name):
    """Route owner.name, a module global or one object's method, through
    a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def count_prox_calls(monkeypatch):
    return count_calls(monkeypatch, solver_module, "prox_matrix_with_spectrum")


def test_solve_trace_invariants():
    cfg = SolverConfig(lam=0.75, nu=0.05, max_iter=120)
    result = solve(noisy_completion(), cfg)
    trace = result.trace
    assert len(trace) == result.iterations == 120
    assert len(result.grad_norms) == len(trace)
    energies = [r.energy for r in trace]
    assert all(e1 <= e0 + 1e-10 for e0, e1 in zip(energies, energies[1:]))
    mus = [r.mu_k for r in trace]
    assert all(m1 <= m0 for m0, m1 in zip(mus, mus[1:]))
    # reset flags describe the recorded mu sequence
    for r0, r1 in zip(trace, trace[1:]):
        assert r0.mu_reset == (r1.mu_k != r0.mu_k)
    assert all(r.gamma_k <= max(cfg.gamma_hi, cfg.rho * 1.0) for r in trace)
    assert all(r.smoothed_objective <= r.energy for r in trace)
    assert all(r.step_norm >= 0 for r in trace)
    assert result.status in ("converged", "max_iter")


def test_solve_energy_identity_with_public_energy():
    rng = np.random.default_rng(10)
    spec = spglr.TrialSpec(
        m=10, n=10, r=2, sr=0.9, noise=spglr.GmmNoiseParams(0, 0, 0), seed=2
    )
    _, data = spglr.build_trial_data(spec)
    binding = CompletionLoss(data)
    cfg = SolverConfig(lam=0.75, nu=0.05, max_iter=40)
    result = solve(binding, cfg)
    k = 17
    rec = result.trace[k]
    # recompute the recorded energy with the public function
    X, sigma = _replay_iterate(binding, cfg, k)
    assert energy(binding, X, rec.mu_k, cfg) == pytest.approx(
        rec.energy, rel=1e-9
    )
    # the exact objective, taken from the accepted residual, is the public
    # loss at mu = 0 plus the penalty on the prox spectrum
    assert rec.exact_objective == binding.value(X, 0.0) + cfg.lam * capped_surrogate(
        sigma, cfg.nu
    )


def _replay_iterate(binding, cfg, upto):
    result = solve(binding, cfg)
    # deterministic solve: run again and capture the iterate via trace replay
    from spglr.penalty import d_vector, prox_matrix_with_spectrum

    X = np.zeros(binding.shape)
    sigma = np.zeros(min(binding.shape))
    for rec in result.trace[: upto + 1]:
        d = d_vector(sigma, cfg.nu)
        G = binding.gradient(X, rec.mu_k)
        W = X - (rec.mu_k / rec.gamma_k) * G
        tau = cfg.lam * rec.mu_k / rec.gamma_k
        X, sigma = prox_matrix_with_spectrum(W, d, tau, cfg.nu)
    return X, sigma


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


@pytest.mark.parametrize(
    "bounds",
    [{}, {"gamma_hi": 0.5}, {"gamma_lo": 2.0}],
    ids=["defaults", "gamma_hi_below_1", "gamma_lo_above_1"],
)
def test_solve_starts_every_backtracking_search_at_gamma0(monkeypatch, bounds):
    # Record the gammas each iteration hands the prox: every search starts
    # at 1 clamped to [gamma_lo, gamma_hi], whatever the last one accepted.
    searches = []
    line_search_inner, prox_step = solver_module._line_search_inner, solver_module._prox_step

    def recording_line_search(*args):
        searches.append([])
        return line_search_inner(*args)

    def recording_prox_step(X_k, G, mu_k, gamma, *args):
        searches[-1].append(gamma)
        return prox_step(X_k, G, mu_k, gamma, *args)

    monkeypatch.setattr(solver_module, "_line_search_inner", recording_line_search)
    monkeypatch.setattr(solver_module, "_prox_step", recording_prox_step)
    _, L = sparse_corrupted_low_rank()
    cfg = SolverConfig(lam=0.4, nu=0.05, max_iter=300, **bounds)
    result = solve(RpcaLoss(L), cfg)
    gamma0 = min(max(1.0, cfg.gamma_lo), cfg.gamma_hi)
    assert len(searches) == result.iterations
    for gammas, rec in zip(searches, result.trace):
        assert gammas == [gamma0 * cfg.rho**i for i in range(len(gammas))]
        assert gammas[-1] == rec.gamma_k
    if cfg.gamma_hi < 1.0:
        # curvature below the loss's own is rejected on some iterations,
        # and the iteration after such a rise still starts at gamma0
        assert any(len(gammas) > 1 for gammas in searches[:-1])


def test_solve_rpca_splits_sparse_corruption():
    truth, L = sparse_corrupted_low_rank()
    result = solve(RpcaLoss(L), SolverConfig(lam=0.4, nu=0.05, max_iter=300))
    assert spglr.rmse(result.X_final, truth) < 5e-3
    assert result.trace[-1].rank_estimate == 2


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mu0=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(rho=1.0)
    with pytest.raises(ValueError):
        SolverConfig(sigma_exp=1.0)
    with pytest.raises(ValueError):
        SolverConfig(gamma_lo=2.0, gamma_hi=1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError, match="^lam must be positive$"):
        SolverConfig(lam=0.0)
    with pytest.raises(ValueError, match="^nu must be positive$"):
        SolverConfig(nu=-1.0)
    SolverConfig(alpha=math.inf)  # ablation mode is valid
    # one message per field, each led by the field's name
    with pytest.raises(ValueError, match="^mu0 must be finite$"):
        SolverConfig(mu0=math.inf)
    with pytest.raises(ValueError, match="^nu must be finite$"):
        SolverConfig(nu=math.nan)
    with pytest.raises(ValueError, match="^seed must be nonnegative$"):
        SolverConfig(seed=-1)
    with pytest.raises(ValueError, match="^gamma_lo must not exceed gamma_hi$"):
        SolverConfig(gamma_lo=2.0, gamma_hi=1.0)
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


def exact_path_only(monkeypatch):
    """Make the route predictor send every prox to the full SVD."""
    monkeypatch.setattr(linalg_module, "_route", lambda *args: None)


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


def test_solve_on_truncated_path_matches_full_svd_run(monkeypatch):
    M, binding = square_completion(120)
    cfg = SolverConfig(lam=1.0, nu=0.05, max_iter=150)
    routed = record_routes(monkeypatch)
    truncated = solve(binding, cfg)
    assert routed == [True] * truncated.prox_calls
    assert truncated.prox_fallbacks == 0
    exact_path_only(monkeypatch)
    exact = solve(binding, cfg)
    assert exact.prox_calls == truncated.prox_calls
    assert [r.gamma_k for r in truncated.trace] == [r.gamma_k for r in exact.trace]
    assert [r.mu_reset for r in truncated.trace] == [r.mu_reset for r in exact.trace]
    assert np.linalg.norm(truncated.X_final - exact.X_final) <= 1e-10 * np.linalg.norm(
        exact.X_final
    )
    assert truncated.trace[-1].rank_estimate == exact.trace[-1].rank_estimate


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
    assert result.prox_fallbacks == 0
    assert 0 < warm.certificates <= 0.4 * warm.calls


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
    L = spglr.gen_low_rank(1300, 8, 2, 7)
    L.flat[rng.choice(L.size, 500, replace=False)] += rng.uniform(-0.5, 0.5, 500)
    cfg = SolverConfig(lam=1.0, nu=0.05, max_iter=60)
    grams = count_calls(monkeypatch, linalg_module, "_gram_basis")
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


def test_solve_thin_input_takes_the_gram_eigenpairs_with_no_sweep(monkeypatch):
    # 400 x 30: a thin input whose prox takes the eigenpairs of the 30 x 30
    # Gram matrix, one certificate and no sweep per call
    rng = np.random.default_rng(11)
    truth = spglr.gen_low_rank(400, 30, 3, 11)
    L = truth.copy()
    hit = rng.random(L.shape) < 0.1
    L[hit] += rng.uniform(-1.0, 1.0, int(hit.sum()))
    cfg = SolverConfig(lam=1.0, nu=0.05, max_iter=300)
    grams = count_calls(monkeypatch, linalg_module, "_gram_basis")
    routed = record_routes(monkeypatch)
    result = solve(RpcaLoss(L), cfg)
    assert routed == [True] * result.prox_calls
    assert len(grams) == result.prox_calls
    assert result.prox_fallbacks == result.prox_sweeps == 0
    assert result.prox_certificates == result.prox_calls
    energies = [r.energy for r in result.trace]
    assert all(e1 <= e0 + 1e-10 for e0, e1 in zip(energies, energies[1:]))
    exact_path_only(monkeypatch)
    exact = solve(RpcaLoss(L), cfg)
    assert result.rank == exact.rank == 3
    assert spglr.rmse(result.X_final, truth) <= 1.01 * spglr.rmse(exact.X_final, truth)


@pytest.mark.parametrize(
    "make_binding",
    [
        noisy_completion,
        lambda: square_completion(60)[1],
        lambda: RpcaLoss(sparse_corrupted_low_rank()[1]),
    ],
    ids=["completion", "completion_60x60", "rpca"],
)
def test_solve_below_cutoff_stays_on_exact_path(monkeypatch, make_binding):
    def refuse(*args):
        raise AssertionError("the Gram start ran on a small input")

    monkeypatch.setattr(linalg_module, "_gram_basis", refuse)
    binding = make_binding()
    routed = record_routes(monkeypatch)
    result = solve(binding, SolverConfig(lam=0.4, nu=0.05, max_iter=40))
    assert routed == [False] * result.prox_calls
    assert result.prox_calls >= result.iterations
    assert result.prox_fallbacks == result.prox_certificates == result.prox_sweeps == 0
