import concurrent.futures
import math
import multiprocessing
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

import spglr
from spglr import experiments
from spglr.experiments import (
    GmmNoiseParams,
    TrialSpec,
    build_trial_data,
    gen_low_rank,
    gmm_noise,
    monte_carlo,
    psnr,
    rmse,
    run_trial,
    sample_mask,
)
from spglr.linalg import frobenius_norm

NOISE = GmmNoiseParams(var_a=1e-4, var_b=0.1, c=0.1)


def test_gen_low_rank_rank_and_determinism():
    M1 = gen_low_rank(12, 9, 4, 7)
    M2 = gen_low_rank(12, 9, 4, 7)
    assert np.array_equal(M1, M2)
    assert np.linalg.matrix_rank(M1) == 4
    assert gen_low_rank(6, 6, 6, 0).shape == (6, 6)
    assert np.linalg.matrix_rank(gen_low_rank(6, 6, 6, 0)) == 6


def test_gen_low_rank_rejects_bad_rank():
    with pytest.raises(ValueError):
        gen_low_rank(5, 5, 0, 0)
    with pytest.raises(ValueError):
        gen_low_rank(5, 5, 6, 0)


def test_gen_low_rank_mean_entry():
    # factor entries have mean 0.1, so entries average r * 0.01
    M = gen_low_rank(200, 200, 30, 123)
    assert abs(M.mean() - 0.3) <= 0.05 * 0.3


def test_sample_mask_counts():
    ri, ci = sample_mask(10, 10, 0.8, 0)
    assert ri.size == 80
    flat = ri * 10 + ci
    assert np.unique(flat).size == 80
    ri, ci = sample_mask(4, 5, 1.0, 1)
    assert ri.size == 20
    with pytest.raises(ValueError, match="^sr must lie in"):
        sample_mask(4, 5, 0.0, 1)


def test_sample_mask_rounding_half_up():
    # 0.5 * 5 * 5 = 12.5 rounds up to 13
    ri, _ = sample_mask(5, 5, 0.5, 3)
    assert ri.size == 13


def test_sample_mask_determinism_and_overlap():
    a = sample_mask(40, 40, 0.8, 9)
    b = sample_mask(40, 40, 0.8, 9)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = sample_mask(40, 40, 0.8, 10)
    fa = set((a[0] * 40 + a[1]).tolist())
    fc = set((c[0] * 40 + c[1]).tolist())
    assert fa != fc
    overlap = len(fa & fc) / 1600.0
    assert abs(overlap - 0.64) <= 0.05


def test_gmm_noise_pure_components():
    samples = gmm_noise(100_000, GmmNoiseParams(1e-4, 0.5, 0.0), 5)
    assert abs(samples.var() - 1e-4) <= 0.05 * 1e-4
    samples = gmm_noise(100_000, GmmNoiseParams(1e-4, 0.5, 1.0), 6)
    assert abs(samples.var() - 0.5) <= 0.05 * 0.5


def test_gmm_noise_mixture_variance_and_components():
    samples = gmm_noise(100_000, NOISE, 7)
    variance = (1.0 - NOISE.c) * NOISE.var_a + NOISE.c * NOISE.var_b
    assert abs(samples.var() - variance) <= 0.05 * variance
    # The same seed with var_a = 0 draws the same components and zeroes
    # every nominal sample, so the outliers are the nonzero draws.
    pure = gmm_noise(100_000, GmmNoiseParams(0.0, NOISE.var_b, NOISE.c), 7)
    outliers = pure != 0
    assert abs(outliers.mean() - NOISE.c) <= 0.01
    assert np.array_equal(samples[outliers], pure[outliers])
    assert np.array_equal(samples, gmm_noise(100_000, NOISE, 7))


def test_gmm_params_validation():
    with pytest.raises(ValueError):
        GmmNoiseParams(-1.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        GmmNoiseParams(0.1, 0.1, 1.5)
    # one message per field, each led by the field's name
    with pytest.raises(ValueError, match="^var_a must be finite"):
        GmmNoiseParams(var_a=math.nan)
    with pytest.raises(ValueError, match="^var_b must be finite"):
        GmmNoiseParams(var_b=math.inf)
    with pytest.raises(ValueError, match="^var_b must be nonnegative"):
        GmmNoiseParams(var_b=-0.1)
    for field, value in [("var_a", 10**400), ("c", math.inf)]:
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            GmmNoiseParams(**{field: value})
    # real fields take Python and numpy reals, never a bool or a string
    for field, value in [("c", True), ("var_a", "0.1"), ("var_b", None)]:
        with pytest.raises(ValueError, match=f"^{field} must be a number$"):
            GmmNoiseParams(**{field: value})
    assert GmmNoiseParams(var_a=np.float32(0.5), var_b=1, c=np.int64(0)).var_b == 1


def test_rmse_examples():
    M = np.ones((4, 5))
    assert rmse(M, M) == 0.0
    assert rmse(M + 0.1, M) == pytest.approx(0.1)
    rng = np.random.default_rng(0)
    X, Y = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
    assert rmse(X, Y) == pytest.approx(
        frobenius_norm(X - Y) / math.sqrt(9), rel=1e-12
    )
    with pytest.raises(ValueError):
        rmse(np.zeros((2, 2)), np.zeros((3, 2)))


def test_psnr_examples():
    M = np.zeros((10, 10))
    X = np.full((10, 10), 0.1)  # squared error = mn * 0.01
    assert psnr(X, M) == pytest.approx(20.0)
    Y = np.full((10, 10), 1.0)  # squared error = mn
    assert psnr(Y, M) == pytest.approx(0.0)
    assert psnr(M, M) == math.inf


def test_trial_spec_validation():
    with pytest.raises(ValueError):
        TrialSpec(m=4, n=4, r=5, sr=0.5, noise=NOISE)
    with pytest.raises(ValueError):
        TrialSpec(m=4, n=4, r=2, sr=0.0, noise=NOISE)
    # one message per field, each led by the field's name
    with pytest.raises(ValueError, match="^n must be at least 1"):
        TrialSpec(m=4, n=0, r=1, sr=0.5, noise=NOISE)
    with pytest.raises(ValueError, match="^m must be an integer$"):
        TrialSpec(m=8.5, n=4, r=1, sr=0.5, noise=NOISE)
    with pytest.raises(ValueError, match="^seed must be an integer$"):
        TrialSpec(m=4, n=4, r=1, sr=0.5, noise=NOISE, seed=True)
    assert TrialSpec(m=np.int64(4), n=4, r=np.int8(1), sr=0.5, noise=NOISE).m == 4
    for sr in ("0.5", True):
        with pytest.raises(ValueError, match="^sr must be a number$"):
            TrialSpec(m=4, n=4, r=1, sr=sr, noise=NOISE)
    assert TrialSpec(m=4, n=4, r=1, sr=np.float64(0.5), noise=NOISE).sr == 0.5


def test_build_trial_data_noise_on_observed_only():
    spec = TrialSpec(m=12, n=10, r=2, sr=0.5, noise=NOISE, seed=3)
    M, data = build_trial_data(spec)
    clean = M[data.row_idx, data.col_idx]
    assert not np.allclose(data.values, clean)  # noise landed on observations
    # the ground truth and the noise stream are reproducible
    M2, data2 = build_trial_data(spec)
    assert np.array_equal(M, M2)
    assert np.array_equal(data.values, data2.values)


def quick_config(max_iter=60):
    return spglr.SolverConfig(lam=0.4, nu=0.05, mu0=10, max_iter=max_iter)


def test_monte_carlo_single_trial_matches_run_trial():
    spec = TrialSpec(m=14, n=14, r=2, sr=0.8, noise=NOISE, seed=21)
    single = run_trial(spec, "spg", solver_config=quick_config())
    summary = monte_carlo(spec, "spg", trials=1, solver_config=quick_config())
    assert summary.mean_rmse == pytest.approx(single.rmse)
    assert summary.median_rmse == pytest.approx(single.rmse)
    assert summary.mean_iterations == single.iterations
    assert summary.trials == 1 and not summary.failures


def test_monte_carlo_deterministic_per_master_seed():
    spec = TrialSpec(m=12, n=12, r=2, sr=0.8, noise=NOISE, seed=4)
    s1 = monte_carlo(spec, "spg", trials=3, solver_config=quick_config(40))
    s2 = monte_carlo(spec, "spg", trials=3, solver_config=quick_config(40))
    assert [r.rmse for r in s1.results] == [r.rmse for r in s2.results]
    assert [r.seed for r in s1.results] == [4, 5, 6]
    assert s1.prng  # provenance string recorded for reproducibility


def test_monte_carlo_records_failures_without_raising():
    spec = TrialSpec(m=8, n=8, r=2, sr=0.8, noise=NOISE, seed=0)
    summary = monte_carlo(spec, "bogus-solver", trials=2)
    assert len(summary.failures) == 2
    assert math.isnan(summary.mean_rmse)


def test_invalid_arm_configs_fail_before_monte_carlo():
    # monte_carlo cannot be handed a bad config: building one raises
    with pytest.raises(ValueError, match="^mu0"):
        spglr.SolverConfig(mu0=-1.0)
    with pytest.raises(ValueError, match="^tau"):
        spglr.SvtConfig(tau=0.0)
    spec = TrialSpec(m=4, n=4, r=1, sr=0.5, noise=NOISE)
    with pytest.raises(ValueError, match="^trials must be at least 1, got 0$"):
        monte_carlo(spec, "spg", trials=0)
    for trials in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="^trials must be an integer$"):
            monte_carlo(spec, "spg", trials=trials)


def test_trial_spec_rejects_negative_seed():
    with pytest.raises(ValueError, match="^seed"):
        TrialSpec(m=4, n=4, r=1, sr=0.5, noise=NOISE, seed=-1)


def test_monte_carlo_svt_choice():
    spec = TrialSpec(m=10, n=10, r=2, sr=0.9, noise=NOISE, seed=2)
    summary = monte_carlo(
        spec, "svt", trials=2, svt_config=spglr.SvtConfig(tau=0.5, max_iter=50)
    )
    assert summary.solver == "svt"
    assert summary.trials == 2 and not summary.failures


# Small enough that forked workers stay quick while BLAS is unpinned.
POOL_SPEC = TrialSpec(m=20, n=16, r=2, sr=0.8, noise=NOISE, seed=30)


def sweep_with_workers(monkeypatch, workers, *args, **kwargs):
    monkeypatch.setattr(experiments, "_trial_workers", lambda trials: workers)
    return monte_carlo(POOL_SPEC, *args, **kwargs)


def without_runtimes(summary):
    return replace(summary, mean_runtime_s=None,
                   results=[replace(r, runtime_s=None) for r in summary.results])


@pytest.mark.parametrize(
    "arm, configs",
    [
        ("spg", {"solver_config": quick_config(40)}),
        ("svt", {"svt_config": spglr.SvtConfig(tau=0.5, max_iter=40)}),
        ("bogus-solver", {}),
    ],
)
def test_monte_carlo_two_workers_match_one(monkeypatch, arm, configs):
    serial, pooled = (sweep_with_workers(monkeypatch, workers, arm, trials=3, **configs)
                      for workers in (1, 2))
    # repr compares every float bit for bit, and NaN equal to NaN
    assert repr(without_runtimes(pooled)) == repr(without_runtimes(serial))
    assert [r.seed for r in pooled.results] == ([30, 31, 32] if arm != "bogus-solver" else [])


@pytest.mark.parametrize("action, shown, failed", [
    ("always", 6, 0), ("default", 1, 0), ("once", 1, 0), ("module", 1, 0), ("ignore", 0, 0),
    ("error", 0, 6)])
def test_monte_carlo_workers_warn_as_in_process(monkeypatch, action, shown, failed):
    # quick_config's nu is above lam / L_f at 20x16, so every trial warns;
    # two sweeps, as ablate runs, show a "default", "once" or "module"
    # warning once in all.
    seen = []
    for workers in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, spglr.PenaltyCapAdvisory)
            failures = [f for _ in range(2) for f in sweep_with_workers(
                monkeypatch, workers, "spg", trials=3, solver_config=quick_config(40)).failures]
        seen.append(([(w.category, str(w.message), w.filename, w.lineno) for w in caught],
                     failures))
    assert seen[1] == seen[0]
    warned, failures = seen[0]
    assert len(warned) == shown and len(failures) == failed
    assert all(category is spglr.PenaltyCapAdvisory for category, *_ in warned)
    assert all("nu=0.05 is at or above" in f for f in failures)


def test_trial_workers_fit_the_blas_thread_budget(monkeypatch):
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    for name in names:
        monkeypatch.delenv(name, raising=False)
    cpus = 8  # read by the patched affinity at each call
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    workers = experiments._trial_workers
    # No thread count set: BLAS fills the box, so the sweep stays serial.
    assert workers(20) == 1
    # A variable this build's BLAS does not read changes nothing.
    for name in set(names) - set(experiments._BLAS_THREAD_VARS):
        monkeypatch.setenv(name, "1")
        assert workers(20) == 1
    first, fallback = experiments._BLAS_THREAD_VARS
    monkeypatch.setenv(fallback, "1")
    assert [workers(t) for t in (1, 3, 8, 20)] == [1, 3, 8, 8]
    monkeypatch.setenv(first, "3")  # read before the fallback
    assert workers(20) == 2
    monkeypatch.setenv(first, "many")  # not a count: BLAS reads the fallback
    assert workers(20) == 8
    for cpus in range(1, 6):
        for threads in range(1, 7):
            monkeypatch.setenv(first, str(threads))
            for trials in range(1, 8):
                w = workers(trials)
                assert 1 <= w <= min(trials, cpus)
                assert w == 1 or w * threads <= cpus


def test_monte_carlo_off_linux(monkeypatch):
    # without an affinity call (macOS, Windows) the CPU count stands in
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for cpus, expected in [(4, 4), (1, 1), (None, 1)]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert experiments._trial_workers(20) == expected
    # without fork (Windows) the sweep runs in this process, with no pool
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    summary = sweep_with_workers(monkeypatch, 2, "spg", trials=2, solver_config=quick_config(40))
    assert [r.seed for r in summary.results] == [30, 31] and not summary.failures
