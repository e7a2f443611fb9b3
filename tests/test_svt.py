import dataclasses
import math

import numpy as np
import pytest

import spglr
from spglr import linalg as linalg_module
from spglr import penalty as penalty_module
from spglr import svt as svt_module
from spglr.experiments import gen_low_rank
from spglr.losses import MaskedData
from spglr.penalty import prox_vector
from spglr.svt import SvtConfig, svt_solve

from oracles import svt_reference


def full_mask_data(M):
    m, n = M.shape
    flat = np.arange(m * n)
    return MaskedData(m, n, flat // n, flat % n, M.flatten())


def soft_threshold(s, tau):
    """The soft threshold svt_solve applies: the prox with every d_i = 1, nu = 1."""
    return prox_vector(s, np.ones(len(s), dtype=int), tau, 1.0)


def test_soft_threshold_examples():
    assert soft_threshold(np.array([3.0, 1.0, 0.2]), 0.5).tolist() == [2.5, 0.5, 0.0]
    assert np.all(soft_threshold(np.array([2.0, 1.0]), 5.0) == 0.0)


def test_soft_threshold_keeps_order():
    rng = np.random.default_rng(0)
    s = np.sort(rng.uniform(0, 3, 8))[::-1]
    out = soft_threshold(s, 0.7)
    assert np.all(np.diff(out) <= 0)


def test_svt_matches_reference_loop():
    spec = spglr.TrialSpec(
        m=9, n=7, r=2, sr=0.6, noise=spglr.GmmNoiseParams(1e-4, 0.1, 0.1), seed=5
    )
    _, data = spglr.build_trial_data(spec)
    cfg = SvtConfig(tau=0.05, step=0.9, max_iter=40, tol=1e-9)
    result = svt_solve(data, cfg)
    X_ref, objectives, gap = svt_reference(data, cfg.tau, cfg.step, result.iterations)
    np.testing.assert_allclose(result.X_final, X_ref, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(
        [rec.energy for rec in result.trace], objectives, rtol=1e-12
    )
    np.testing.assert_allclose(result.stationarity_residual, gap, rtol=1e-12)


def test_svt_zero_observations():
    data = MaskedData(4, 4, np.array([0, 1]), np.array([0, 1]), np.zeros(2))
    result = svt_solve(data, SvtConfig(tau=0.1, max_iter=50))
    assert np.allclose(result.X_final, 0.0)


def test_svt_huge_tau_collapses_to_zero():
    rng = np.random.default_rng(1)
    data = full_mask_data(rng.standard_normal((5, 5)))
    result = svt_solve(data, SvtConfig(tau=1e6, max_iter=5))
    assert np.array_equal(result.X_final, np.zeros((5, 5)))


def test_svt_rank1_full_observation_regression():
    # noiseless rank-1 with every entry observed; tiny tau leaves only the
    # soft-threshold bias, which is far below the 1e-3 target
    rng = np.random.default_rng(2)
    u = rng.uniform(0.5, 1.0, 5)
    v = rng.uniform(0.5, 1.0, 5)
    M = np.outer(u, v)
    result = svt_solve(full_mask_data(M), SvtConfig(tau=1e-4, max_iter=500, tol=1e-12))
    rel = np.linalg.norm(result.X_final - M) / np.linalg.norm(M)
    assert rel < 1e-3
    assert result.trace[-1].rank_estimate == 1


def test_svt_objective_nonincreasing_for_unit_step():
    spec = spglr.TrialSpec(
        m=20, n=20, r=2, sr=0.7, noise=spglr.GmmNoiseParams(1e-4, 0.1, 0.1), seed=3
    )
    _, data = spglr.build_trial_data(spec)
    result = svt_solve(data, SvtConfig(tau=0.2, step=1.0, max_iter=200))
    objs = [r.energy for r in result.trace]
    assert all(o1 <= o0 + 1e-10 for o0, o1 in zip(objs, objs[1:]))


def test_svt_trace_schema(monkeypatch):
    prox, as_matrix = svt_module.prox_matrix_with_spectrum, linalg_module.as_matrix
    calls, checks = [], []

    def counting(*args):
        calls.append(None)
        return prox(*args)

    def counting_checks(*args):
        checks.append(None)
        return as_matrix(*args)

    monkeypatch.setattr(svt_module, "prox_matrix_with_spectrum", counting)
    monkeypatch.setattr(linalg_module, "as_matrix", counting_checks)
    data = MaskedData(3, 3, np.array([0]), np.array([0]), np.array([1.0]))
    result = svt_solve(data, SvtConfig(tau=0.1, step=0.9, max_iter=10))
    rec = result.trace[0]
    assert rec.mu_k == 0.0
    assert rec.gamma_k == 0.9
    assert rec.smoothed_objective == rec.energy == rec.exact_objective
    assert not rec.mu_reset
    assert result.status in ("converged", "max_iter")
    assert result.objective_gap == 0.0
    # one prox per iteration plus one for the final fixed-point gap
    assert result.prox_calls == len(calls) == result.iterations + 1
    # on a 3 x 3 input every prox runs the full SVD, whose check of W is
    # the only one: svt_solve does not check the iterates it builds
    assert len(checks) == result.prox_calls
    assert result.prox_fallbacks == result.prox_certificates == result.prox_sweeps == 0


def svt_and_full_svd_svt(monkeypatch, data, config):
    """svt_solve as it runs, and with the truncated route switched off."""
    routed = svt_solve(data, config)
    monkeypatch.setattr(linalg_module, "_routes", lambda *args: ())
    return routed, svt_solve(data, config)


def record_routes(monkeypatch):
    """(whether the truncated route gave the factors, warm.sweeps after the
    call) for each prox, in call order."""
    routes = []
    leading_svd = penalty_module._leading_svd

    def recording(W, k_min, threshold, warm):
        factors = leading_svd(W, k_min, threshold, warm)
        routes.append((factors is not None, warm.sweeps))
        return factors

    monkeypatch.setattr(penalty_module, "_leading_svd", recording)
    return routes


def assert_gram_route_after_one_fallback(monkeypatch, m, rank):
    """SVT on a criterion-7 completion of m x m, rank 5, sr 0.8: the cold
    first prox fails on the subspace route, and every later one takes the
    eigenpairs of the Gram matrix with no sweep; the full SVD gives the
    same iterations and rank, and X within 1e-10."""
    spec = spglr.TrialSpec(
        m=m, n=m, r=5, sr=0.8, noise=spglr.GmmNoiseParams(1e-4, 0.1, 0.1), seed=3
    )
    _, data = spglr.build_trial_data(spec)
    routes = record_routes(monkeypatch)
    routed, exact = svt_and_full_svd_svt(monkeypatch, data, SvtConfig(tau=1.0))
    (first, sweeps), *later = routes[: routed.prox_calls]
    assert not first
    assert later == [(True, sweeps)] * (routed.prox_calls - 1)
    assert (routed.prox_fallbacks, routed.prox_certificates) == (1, routed.prox_calls - 1)
    assert routed.iterations == exact.iterations
    assert routed.rank == exact.rank == rank
    assert np.linalg.norm(routed.X_final - exact.X_final) <= 1e-10 * np.linalg.norm(exact.X_final)


def test_svt_on_a_high_rank_iterate_falls_back_once(monkeypatch):
    # the iterate keeps rank 42 of 120
    assert_gram_route_after_one_fallback(monkeypatch, 120, 42)


def test_svt_at_the_benchmark_completion_shape_takes_the_gram_route(monkeypatch):
    # complete-m200's shape and tau: the iterate keeps rank 91 of 200
    assert_gram_route_after_one_fallback(monkeypatch, 200, 91)


def test_svt_at_60x60_takes_no_route_after_its_cold_call(monkeypatch):
    # an mc-m60 SVT trial whose second prox has a block of 11 columns, more
    # than a sixth of the short side: the subspace route would take about
    # 20 sweeps for it, so that call and every later one, whose blocks stay
    # as wide, decline with no sweep, and the solve is the full-SVD solve
    # bit for bit
    spec = spglr.TrialSpec(
        m=60, n=60, r=5, sr=0.8, noise=spglr.GmmNoiseParams(1e-4, 0.1, 0.1), seed=202231
    )
    _, data = spglr.build_trial_data(spec)
    routes = record_routes(monkeypatch)
    routed, exact = svt_and_full_svd_svt(monkeypatch, data, SvtConfig(tau=1.0))
    (first, sweeps), *later = routes[: routed.prox_calls]
    assert not first
    assert later == [(False, sweeps)] * (routed.prox_calls - 1)
    assert (routed.prox_fallbacks, routed.prox_certificates) == (1, 0)
    assert np.array_equal(routed.X_final, exact.X_final)


def svt_input(name):
    """(data, tau) of an SVT input: a fully observed 400 x 30 input, whose
    prox takes the Gram route, or a 60 x 60 mc-m60 trial."""
    if name == "thin_400x30":
        rng = np.random.default_rng(11)
        L = gen_low_rank(400, 30, 3, 11)
        hit = rng.random(L.shape) < 0.1
        L[hit] += rng.uniform(-1.0, 1.0, int(hit.sum()))
        return full_mask_data(L), 4.0
    spec = spglr.TrialSpec(
        m=60, n=60, r=5, sr=0.8, noise=spglr.GmmNoiseParams(1e-4, 0.1, 0.1), seed=3
    )
    return spglr.build_trial_data(spec)[1], 1.0


def test_svt_on_a_thin_full_observation_takes_the_route(monkeypatch):
    # 400 x 30 with nine values above tau: each prox takes the eigenpairs of
    # the 30 x 30 Gram matrix, one certificate and no sweep
    data, tau = svt_input("thin_400x30")
    routes = record_routes(monkeypatch)
    routed, exact = svt_and_full_svd_svt(monkeypatch, data, SvtConfig(tau=tau))
    assert routes[: routed.prox_calls] == [(True, 0)] * routed.prox_calls
    assert routed.prox_fallbacks == routed.prox_sweeps == 0
    assert routed.prox_certificates == routed.prox_calls
    assert routed.rank == exact.rank == 9
    assert np.linalg.norm(routed.X_final - exact.X_final) <= 1e-10 * np.linalg.norm(exact.X_final)


@pytest.mark.parametrize("e", [-200, -30, -7, 5, 31, 200])
@pytest.mark.parametrize("name", ["thin_400x30", "trial_60x60"])
def test_svt_solve_scales_bit_for_bit(name, e):
    # scaling the data and tau by c = 2^e, exact in floating point, scales
    # X_final bit for bit: the stop test is relative to the iterate, with
    # no absolute floor, and the prox routes decide on ratios
    c = 2.0**e
    data, tau = svt_input(name)
    scaled_data = MaskedData(data.rows, data.cols, data.row_idx, data.col_idx, c * data.values)
    base = svt_solve(data, SvtConfig(tau=tau))
    scaled = svt_solve(scaled_data, SvtConfig(tau=c * tau))
    assert np.array_equal(scaled.X_final, c * base.X_final)
    counts = ("status", "iterations", "rank", "prox_calls", "prox_fallbacks",
              "prox_certificates", "prox_sweeps")
    assert [getattr(scaled, a) for a in counts] == [getattr(base, a) for a in counts]
    assert base.status == "converged"


def test_svt_config_validation():
    with pytest.raises(ValueError):
        SvtConfig(tau=0.0)
    with pytest.raises(ValueError):
        SvtConfig(step=-1.0)
    with pytest.raises(ValueError, match="^max_iter must be at least 1, got 0$"):
        dataclasses.replace(SvtConfig(), max_iter=0)
    with pytest.raises(ValueError, match="^tol must be positive, got 0$"):
        SvtConfig(tol=0)
    with pytest.raises(ValueError, match="^max_iter must be an integer$"):
        SvtConfig(max_iter=2.5)
    with pytest.raises(ValueError, match="^max_iter must be an integer$"):
        SvtConfig(max_iter=False)
    assert SvtConfig(max_iter=np.int32(7)).max_iter == 7
    for field, value in [("tau", "1"), ("step", True), ("tol", [1e-6])]:
        with pytest.raises(ValueError, match=f"^{field} must be a number$"):
            SvtConfig(**{field: value})
    assert SvtConfig(tau=2, step=np.float64(0.5)).tau == 2
    # every real is a finite float: an integer beyond float range is not
    for field in ("tau", "step", "tol"):
        for value in (math.inf, math.nan, 10**400):
            with pytest.raises(ValueError, match=f"^{field} must be finite$"):
                SvtConfig(**{field: value})
    with pytest.raises(dataclasses.FrozenInstanceError):
        SvtConfig().tau = 1.0
    with pytest.raises(TypeError):
        svt_solve("not data", SvtConfig())
