"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Fixture constants below pin the data families, solver settings,
and frozen reference values; the reference median in criterion 7 was
derived once from the committed configuration and is asserted with a
1.1x tolerance.
"""

import math
import time

import numpy as np
import pytest

import spglr
from spglr.cli import run as cli_run
from spglr.experiments import _pool_map
from spglr.io_formats import (
    mask_csv_read,
    mask_csv_write,
    matrix_csv_read,
    matrix_csv_write,
    pgm_read,
    pgm_write,
)
from spglr.losses import CompletionLoss, MaskedData
from spglr.penalty import d_vector, prox_matrix, prox_vector
from spglr.solver import SolverConfig, solve

from oracles import batch_matrix_prox_objectives, central_difference_gradient, grid_prox_objective, prox_objective

# Experiment fixture: lam/nu = 15 keeps the spectral pull of the residual
# sign matrix (about 2 * sqrt(m * sr) = 14 at m = 60) below the branch
# threshold, so noise directions stay out of the iterate.
EXP_LAM = 0.75
EXP_NU = 0.05
NOISE = spglr.GmmNoiseParams(var_a=1e-4, var_b=0.1, c=0.1)
SVT_TAU = 1.0

# Frozen reference: median RMSE of the criterion-7 configuration
# (m=n=60, r=5, SR=0.8, seeds 0..9, mu0=100), derived once = 6.2075e-3.
REFERENCE_MEDIAN_RMSE = 6.2075e-3


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# criterion 1: vector prox equals grid minimization


def test_criterion_01_vector_prox_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        w = rng.uniform(0.0, 3.0, n)
        d = rng.integers(1, 3, n)
        nu = float(rng.uniform(0.05, 1.0))
        ratio = float(rng.uniform(0.01, 2.0))
        tau = ratio * nu
        x_hat = prox_vector(w, d, tau, nu)
        closed = prox_objective(x_hat, w, d, tau, nu)
        grid = grid_prox_objective(w, d, tau, nu)
        worst = max(worst, abs(closed - grid))
        assert closed <= grid + 1e-12
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 10.0
    report(1, ok, f"1000 instances, worst objective gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-5
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 2: matrix prox optimality under perturbation sampling


def test_criterion_02_matrix_prox_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    for _ in range(200):
        W = rng.standard_normal((5, 4)) * float(rng.uniform(0.5, 2.0))
        sigma_w = spglr.svd(W).sigma
        nu = float(rng.uniform(0.1, 1.0))
        tau = float(rng.uniform(0.02, 1.0))
        d = d_vector(sigma_w, nu)
        X_hat = prox_matrix(W, d, tau, nu)
        sigma_hat = spglr.svd(X_hat).sigma
        assert np.all(np.diff(sigma_hat) <= 1e-12)
        assert np.max(np.abs(sigma_hat - prox_vector(sigma_w, d, tau, nu))) <= 1e-9
        base = batch_matrix_prox_objectives(X_hat[None], W, d, tau, nu)[0]
        for delta in (1e-3, 1e-2):
            E = rng.standard_normal((5000, 5, 4))
            E *= delta / np.linalg.norm(E, axis=(1, 2), keepdims=True)
            vals = batch_matrix_prox_objectives(X_hat[None] + E, W, d, tau, nu)
            assert np.all(base <= vals + 1e-10)
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    report(2, ok, f"200 instances x 10^4 perturbations, {elapsed:.1f}s")
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 3: smoothing contract


def _random_binding(rng):
    m, n = 6, 5
    flat = np.sort(rng.choice(m * n, 21, replace=False))
    return CompletionLoss(
        MaskedData(m, n, flat // n, flat % n, rng.standard_normal(21))
    )


def test_criterion_03_smoothing_contract():
    rng = np.random.default_rng(1003)
    binding = _random_binding(rng)
    worst_gap_excess = -math.inf
    worst_fd = 0.0
    worst_ratio = 0.0
    for mu in (1.0, 0.1, 0.01):
        for _ in range(100):
            X = rng.standard_normal(binding.shape) * 2.0
            gap = binding.value(X, mu) - binding.value(X, 0.0)
            worst_gap_excess = max(worst_gap_excess, gap - binding.kappa * mu)
            assert gap >= 0.0
        for _ in range(10):
            X = rng.standard_normal(binding.shape)
            G = binding.gradient(X, mu)
            G_fd = central_difference_gradient(lambda Z: binding.value(Z, mu), X)
            rel = np.linalg.norm(G - G_fd) / max(1.0, np.linalg.norm(G_fd))
            worst_fd = max(worst_fd, rel)
        for _ in range(100):
            X = rng.standard_normal(binding.shape)
            Y = rng.standard_normal(binding.shape)
            num = np.linalg.norm(binding.gradient(X, mu) - binding.gradient(Y, mu))
            den = np.linalg.norm(X - Y)
            worst_ratio = max(worst_ratio, (num / den) * mu)
    ok = worst_gap_excess <= 1e-12 and worst_fd < 1e-5 and worst_ratio <= 1 + 1e-12
    report(
        3,
        ok,
        f"gap excess {worst_gap_excess:.1e}, fd rel err {worst_fd:.1e}, "
        f"lipschitz ratio x mu {worst_ratio:.6f}",
    )
    assert worst_gap_excess <= 1e-12
    assert worst_fd < 1e-5
    assert worst_ratio <= 1 + 1e-12


# ---------------------------------------------------------------------------
# criteria 4-6 share one suite of solves


class GradientNormLog(CompletionLoss):
    """CompletionLoss that keeps the norm of every gradient it returns."""

    def __init__(self, data):
        super().__init__(data)
        self.norms = []

    def gradient_at(self, r, mu):
        G = super().gradient_at(r, mu)
        self.norms.append(float(np.linalg.norm(G)))
        return G


def energy_run(seed_alpha):
    """One solve of the suite: its config, result and the smoothed
    gradient norm at the start of each iteration."""
    seed, alpha = seed_alpha
    spec = spglr.TrialSpec(m=40, n=40, r=3, sr=0.8, noise=NOISE, seed=100 + seed)
    _, data = spglr.build_trial_data(spec)
    binding = GradientNormLog(data)
    cfg = SolverConfig(lam=EXP_LAM, nu=EXP_NU, mu0=10.0, alpha=alpha, max_iter=500)
    result = solve(binding, cfg)
    # the last gradient is stationarity_residual's, taken after the loop
    return cfg, result, binding.norms[: result.iterations]


@pytest.fixture(scope="module")
def energy_suite():
    start = time.perf_counter()
    runs = _pool_map(energy_run, [(seed, alpha) for seed in range(20)
                                  for alpha in (0.8, math.inf)])
    return runs, time.perf_counter() - start


def test_criterion_04_energy_monotonicity(energy_suite):
    runs, elapsed = energy_suite
    violations = 0
    for _, result, _ in runs:
        energies = [r.energy for r in result.trace]
        violations += sum(
            1 for e0, e1 in zip(energies, energies[1:]) if e1 > e0 + 1e-10
        )
    ok = violations == 0 and elapsed < 60.0
    report(4, ok, f"{len(runs)} solves, {violations} violations, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_05_lower_bound_and_objective_equality(energy_suite):
    runs, _ = energy_suite
    converged = [
        r for _, r, _ in runs if r.status == "converged" and r.stationarity_residual < 1e-4
    ]
    band_hits = 0
    for result in converged:
        sigma = spglr.svd(result.X_final).sigma
        band_hits += int(np.any((sigma > 0.05 * EXP_NU) & (sigma < 0.95 * EXP_NU)))
        assert result.objective_gap <= 1e-6
    # companion run that genuinely converges with a tiny residual, so the
    # assertion is exercised on at least one run
    spec = spglr.TrialSpec(
        m=40, n=40, r=3, sr=0.8, noise=spglr.GmmNoiseParams(0, 0, 0), seed=11
    )
    _, data = spglr.build_trial_data(spec)
    cfg = SolverConfig(
        lam=EXP_LAM, nu=EXP_NU, mu0=10.0, max_iter=4000, mu_stop=1e-4, step_tol=1e-9
    )
    result = solve(CompletionLoss(data), cfg)
    assert result.status == "converged"
    assert result.stationarity_residual < 1e-4
    sigma = spglr.svd(result.X_final).sigma
    companion_band = int(np.any((sigma > 0.05 * EXP_NU) & (sigma < 0.95 * EXP_NU)))
    ok = band_hits == 0 and companion_band == 0 and result.objective_gap <= 1e-6
    report(
        5,
        ok,
        f"{len(converged)} converged noisy runs + 1 companion, band hits "
        f"{band_hits + companion_band}, companion gap {result.objective_gap:.1e}",
    )
    assert band_hits == 0
    assert companion_band == 0
    assert result.objective_gap <= 1e-6


def test_criterion_06_step_norm_bound(energy_suite):
    runs, _ = energy_suite
    checked = 0
    violations = 0
    for cfg, result, gradient_norms in runs:
        ratio = cfg.lam / cfg.nu
        const = (math.sqrt(40) + 1.0) * ratio
        for rec, grad_norm in zip(result.trace, gradient_norms, strict=True):
            if grad_norm <= ratio:
                checked += 1
                bound = const * rec.mu_k / rec.gamma_k + 1e-9
                violations += int(rec.step_norm > bound)
    ok = violations == 0 and checked > 0
    report(6, ok, f"{checked} applicable iterations, {violations} violations")
    assert checked > 0
    assert violations == 0


# ---------------------------------------------------------------------------
# criterion 7: recovery quality against the baseline


def test_criterion_07_recovery_vs_baseline():
    start = time.perf_counter()
    spec = spglr.TrialSpec(m=60, n=60, r=5, sr=0.8, noise=NOISE, seed=0)
    spg_cfg = SolverConfig(lam=EXP_LAM, nu=EXP_NU, mu0=100.0, max_iter=500)
    svt_cfg = spglr.SvtConfig(tau=SVT_TAU, step=1.0, max_iter=500, tol=1e-6)
    spg = spglr.monte_carlo(spec, "spg", trials=10, solver_config=spg_cfg)
    svt = spglr.monte_carlo(spec, "svt", trials=10, svt_config=svt_cfg)
    assert not spg.failures and not svt.failures
    wins = sum(
        1 for a, b in zip(spg.results, svt.results) if a.rmse < b.rmse
    )
    elapsed = time.perf_counter() - start
    ok = (
        wins >= 8
        and spg.median_rmse < svt.median_rmse
        and spg.median_rmse < REFERENCE_MEDIAN_RMSE * 1.1
        and elapsed < 300.0
    )
    report(
        7,
        ok,
        f"pairwise wins {wins}/10, spg median {spg.median_rmse:.3e} vs svt "
        f"{svt.median_rmse:.3e}, reference x1.1 = {REFERENCE_MEDIAN_RMSE * 1.1:.3e}, "
        f"{elapsed:.0f}s",
    )
    assert wins >= 8
    assert spg.median_rmse < svt.median_rmse
    assert spg.median_rmse < REFERENCE_MEDIAN_RMSE * 1.1
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# criterion 8: mu0 ablation trend and the schedule-mode comparison


def test_criterion_08_mu0_and_alpha_trends():
    spec = spglr.TrialSpec(m=60, n=60, r=5, sr=0.8, noise=NOISE, seed=0)
    summaries = {}
    for mu0 in (10.0, 100.0):
        cfg = SolverConfig(lam=EXP_LAM, nu=EXP_NU, mu0=mu0, alpha=0.8, max_iter=500)
        summaries[mu0] = spglr.monte_carlo(spec, "spg", trials=10, solver_config=cfg)
    inf_cfg = SolverConfig(
        lam=EXP_LAM, nu=EXP_NU, mu0=100.0, alpha=math.inf, max_iter=500
    )
    inf_summary = spglr.monte_carlo(spec, "spg", trials=10, solver_config=inf_cfg)

    rmse_trend = summaries[100.0].mean_rmse <= summaries[10.0].mean_rmse
    iter_trend = summaries[100.0].mean_iterations >= summaries[10.0].mean_iterations
    alpha_trend = summaries[100.0].mean_iterations <= inf_summary.mean_iterations
    ok = rmse_trend and iter_trend and alpha_trend
    report(
        8,
        ok,
        f"mean rmse mu0=100 {summaries[100.0].mean_rmse:.3e} <= mu0=10 "
        f"{summaries[10.0].mean_rmse:.3e}: {rmse_trend}; mean iters "
        f"{summaries[100.0].mean_iterations:.0f} >= {summaries[10.0].mean_iterations:.0f}: "
        f"{iter_trend}; alpha=0.8 iters <= alpha=inf iters: {alpha_trend}",
    )
    assert rmse_trend
    assert iter_trend
    assert alpha_trend


# ---------------------------------------------------------------------------
# criterion 9: noise-model statistics


def test_criterion_09_gmm_statistics():
    samples = spglr.gmm_noise(1_000_000, NOISE, 2026)
    # the same seed with var_a = 0 draws the same components: outliers are its nonzeros
    only_outliers = spglr.GmmNoiseParams(0.0, NOISE.var_b, NOISE.c)
    outliers = spglr.gmm_noise(1_000_000, only_outliers, 2026) != 0
    var = float(samples.var())
    frac = float(outliers.mean())
    var_ok = abs(var - 0.01009) <= 0.05 * 0.01009
    frac_ok = abs(frac - NOISE.c) <= 0.01
    ok = var_ok and frac_ok
    report(9, ok, f"variance {var:.6f} (target 0.01009), outlier fraction {frac:.4f}")
    assert var_ok
    assert frac_ok


# ---------------------------------------------------------------------------
# criterion 10: file round trips and config rejection


def test_criterion_10_io_round_trips(tmp_path, capsys):
    rng = np.random.default_rng(1010)
    # matrix CSV bit-exact
    X = rng.standard_normal((50, 40)) * np.exp(rng.uniform(-20, 20, (50, 40)))
    matrix_ok = np.array_equal(matrix_csv_read(matrix_csv_write(X)), X)
    # mask CSV set-equal
    flat = np.sort(rng.choice(30 * 20, 200, replace=False))
    data = MaskedData(30, 20, flat // 20, flat % 20, rng.standard_normal(200))
    back = mask_csv_read(mask_csv_write(data), 30, 20)
    mask_ok = {
        (i, j, v) for i, j, v in zip(data.row_idx, data.col_idx, data.values)
    } == {(i, j, v) for i, j, v in zip(back.row_idx, back.col_idx, back.values)}
    # PGM within 1/510 per pixel
    img = rng.uniform(0, 1, (31, 17))
    pgm_ok = np.max(np.abs(pgm_read(pgm_write(img)) - img)) <= 1.0 / 510.0
    # config rejections: exit code 1 with the key named on stderr
    bad_configs = [
        ('{"m": 4, "n": 4, "r": 1, "sr": 0.5, "nu": -1.0}', '"nu"'),
        ('{"m": 4, "n": 4, "r": 9, "sr": 0.5}', '"r"'),
        ('{"m": 4, "n": 4, "r": 1, "sr": 0.5, "alpha": "never"}', '"alpha"'),
        ('{"m": 4, "n": 4, "r": 1}', '"sr"'),
    ]
    config_ok = True
    for idx, (doc, needle) in enumerate(bad_configs):
        path = tmp_path / f"bad{idx}.json"
        path.write_text(doc, "utf-8")
        code = cli_run(
            ["synth", "--config", str(path), "--out-dir", str(tmp_path / "o")]
        )
        err = capsys.readouterr().err
        config_ok = config_ok and code == 1 and needle in err
    ok = matrix_ok and mask_ok and pgm_ok and config_ok
    report(
        10,
        ok,
        f"matrix bit-exact {matrix_ok}, mask set-equal {mask_ok}, "
        f"pgm quantized {pgm_ok}, config rejections {config_ok}",
    )
    assert matrix_ok
    assert mask_ok
    assert pgm_ok
    assert config_ok
