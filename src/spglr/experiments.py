"""Synthetic trial protocol: low-rank ground truth, uniform masks,
Gaussian-mixture noise, recovery metrics, and Monte Carlo averaging.

Every randomized operation is a pure function of its seed (numpy
default_rng, PCG64). Trial t of a Monte Carlo run uses master seed + t;
within a trial, the matrix, mask, and noise draw from independent
SeedSequence spawns so changing one component does not disturb the
others.
"""

import math
import os
import time
import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .linalg import as_matrix
from .losses import CompletionLoss, MaskedData
from .solver import SolverConfig, check_field_types, check_type, solve
from .svt import SvtConfig, svt_solve

PRNG_DESCRIPTION = (
    "numpy default_rng (PCG64); trial seeds = master seed + trial index; "
    "SeedSequence(seed).spawn(3) for matrix/mask/noise substreams"
)

# The variables BLAS reads its thread count from at load, first match wins.
if "mkl" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]:
    _BLAS_THREAD_VARS = ("MKL_NUM_THREADS", "OMP_NUM_THREADS")
else:
    _BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True)
class GmmNoiseParams:
    """Two-component zero-mean Gaussian mixture.

    var_a is the nominal-noise variance, var_b the outlier variance, and
    c the probability that a sample comes from the outlier component.
    """

    var_a: float = 0.0
    var_b: float = 0.0
    c: float = 0.0

    def __post_init__(self):
        check_field_types(self)
        for name in ("var_a", "var_b"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not 0 <= self.c <= 1:
            raise ValueError("c must lie in [0, 1]")


@dataclass(frozen=True)
class TrialSpec:
    m: int
    n: int
    r: int
    sr: float
    noise: GmmNoiseParams
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        for name in ("m", "n", "r"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.r > min(self.m, self.n):
            raise ValueError("r must not exceed min(m, n)")
        if not 0 < self.sr <= 1:
            raise ValueError("sr must lie in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def gen_low_rank(m, n, r, seed):
    """Rank-r ground truth: product of two iid Uniform(-0.1, 0.3) factors."""
    if not 1 <= r <= min(m, n):
        raise ValueError(f"r must lie in [1, min(m, n)], got {r}")
    rng = np.random.default_rng(seed)
    left = rng.uniform(-0.1, 0.3, size=(m, r))
    right = rng.uniform(-0.1, 0.3, size=(n, r))
    return left @ right.T


def sample_mask(m, n, sr, seed):
    """Uniform observation mask with round(sr * m * n) distinct positions.

    Returns (row_idx, col_idx) in canonical row-major order. Half-way
    counts round up.
    """
    if not 0 < sr <= 1:
        raise ValueError(f"sr must lie in (0, 1], got {sr}")
    total = m * n
    count = int(math.floor(sr * total + 0.5))
    count = max(1, min(total, count))
    rng = np.random.default_rng(seed)
    flat = np.sort(rng.choice(total, size=count, replace=False))
    return flat // n, flat % n


def gmm_noise(count, params, seed):
    """Draw `count` mixture samples: Bernoulli(c) picks the component,
    then the sample is Gaussian with the chosen variance."""
    rng = np.random.default_rng(seed)
    outlier = rng.random(count) < params.c
    scale = np.where(outlier, math.sqrt(params.var_b), math.sqrt(params.var_a))
    return rng.standard_normal(count) * scale


def _squared_error(X_star, M):
    """(sum of squared entrywise differences, entry count) of two matrices."""
    X_star = as_matrix(X_star)
    M = as_matrix(M)
    if X_star.shape != M.shape:
        raise ValueError(f"shape mismatch: {X_star.shape} vs {M.shape}")
    diff = X_star - M
    return float(np.sum(diff * diff)), diff.size


def rmse(X_star, M):
    """Root-mean-square entrywise error between two matrices."""
    err2, size = _squared_error(X_star, M)
    return math.sqrt(err2 / size)


def psnr(X_star, M):
    """Peak signal-to-noise ratio in dB for [0, 1]-scaled matrices.

    Returns math.inf when the matrices agree exactly.
    """
    err2, size = _squared_error(X_star, M)
    if err2 == 0.0:
        return math.inf
    return 10.0 * math.log10(size / err2)


def observe(M, sr, noise, mask_seed, noise_seed):
    """Noisy observations of matrix M: a sample_mask draw at rate sr from
    mask_seed, plus gmm_noise with `noise` params from noise_seed.

    Noise lands on the observed entries only, so recovery error against
    the clean M is exactly the quantity of interest.
    """
    m, n = M.shape
    row_idx, col_idx = sample_mask(m, n, sr, mask_seed)
    values = M[row_idx, col_idx] + gmm_noise(row_idx.size, noise, noise_seed)
    return MaskedData(m, n, row_idx, col_idx, values)


def build_trial_data(spec):
    """Ground truth plus noisy masked observations for one trial."""
    streams = np.random.SeedSequence(spec.seed).spawn(3)
    M = gen_low_rank(spec.m, spec.n, spec.r, streams[0])
    return M, observe(M, spec.sr, spec.noise, streams[1], streams[2])


@dataclass
class TrialResult:
    seed: int
    rmse: float
    iterations: int
    runtime_s: float
    status: str
    rank: int


@dataclass
class McSummary:
    solver: str
    trials: int
    mean_rmse: float
    median_rmse: float
    mean_iterations: float
    mean_runtime_s: float
    results: list
    failures: list
    prng: str = PRNG_DESCRIPTION


def timed_solve(data, solver_choice="spg", solver_config=None, svt_config=None):
    """Masked completion by arm "spg" or "svt"; a None config means the
    arm's default. Returns (SolveResult, wall seconds of the solve)."""
    start = time.perf_counter()
    if solver_choice == "spg":
        result = solve(CompletionLoss(data), solver_config or SolverConfig())
    elif solver_choice == "svt":
        result = svt_solve(data, svt_config or SvtConfig())
    else:
        raise ValueError(f"unknown solver {solver_choice!r}")
    return result, time.perf_counter() - start


def run_trial(spec, solver_choice="spg", solver_config=None, svt_config=None):
    """One generate/solve/score cycle; returns the result without the matrix."""
    M, data = build_trial_data(spec)
    result, runtime = timed_solve(data, solver_choice, solver_config, svt_config)
    return TrialResult(
        seed=spec.seed,
        rmse=rmse(result.X_final, M),
        iterations=result.iterations,
        runtime_s=runtime,
        status=result.status,
        rank=result.rank,
    )


def _trial_workers(trials):
    """Worker processes for a sweep of `trials`: as many as the usable
    CPUs hold at the BLAS thread count, and never more than the trials.

    Workers whose BLAS threads overcommit the CPUs run several times
    slower than the serial loop. With no positive count set in
    _BLAS_THREAD_VARS, BLAS uses every CPU, so the sweep runs in-process.
    """
    for name in _BLAS_THREAD_VARS:
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            affinity = getattr(os, "sched_getaffinity", None)
            cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
            return max(1, min(trials, cpus // threads))
    return 1


def _recorded_call(fn, item):
    """fn(item) in a pool worker, and its warnings as (message, filename,
    lineno), recorded under the filters the worker forked with: an
    "error" filter still fails the call, an "ignore" one drops them."""
    with warnings.catch_warnings(record=True) as caught:
        value = fn(item)
    return value, [(w.message, w.filename, w.lineno) for w in caught]


def _pool_map(fn, items):
    """list(map(fn, items)), run in _trial_workers(len(items)) processes.

    The workers are forked, not spawned, so that they inherit the loaded
    modules, BLAS settings and warning filters without re-running the
    caller's script; fn must pickle by reference. A worker's warnings
    are shown here, in item order, once every item has finished. With
    one worker, or where processes cannot fork, the items run in this
    process and warn as they go, unrecorded: catch_warnings would reset
    every warning registry, and a "default" warning would show once per
    sweep, not once.
    """
    workers = _trial_workers(len(items))
    if workers == 1:
        return list(map(fn, items))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return list(map(fn, items))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        outcomes = list(pool.map(partial(_recorded_call, fn), items))
    # The registry warnings.warn uses for a warning raised in this module,
    # so that a "default" filter shows a warning repeated across workers,
    # or already shown here, as often as the in-process loop would.
    registry = globals().setdefault("__warningregistry__", {})
    values = []
    for value, caught in outcomes:
        for message, filename, lineno in caught:
            warnings.warn_explicit(message, type(message), filename, lineno, registry=registry)
        values.append(value)
    return values


def _trial_outcome(trial_spec, solver_choice, solver_config, svt_config):
    """One trial of monte_carlo: its TrialResult, or the failure string
    when it raised."""
    try:
        return run_trial(trial_spec, solver_choice, solver_config, svt_config)
    except Exception as exc:  # noqa: BLE001  (per-trial isolation)
        return f"trial seed {trial_spec.seed}: {exc}"


def monte_carlo(spec, solver_choice="spg", trials=10, solver_config=None, svt_config=None):
    """Independent repetitions with derived seeds; failures, an unknown
    arm among them, are recorded per trial instead of aborting the sweep.
    `trials` must be an integer, not a bool, and at least 1.

    Trials run through _pool_map, in trial order as far as their results
    and warnings show.
    """
    check_type("trials", trials, int)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    specs = [replace(spec, seed=spec.seed + t) for t in range(trials)]
    trial = partial(_trial_outcome, solver_choice=solver_choice,
                    solver_config=solver_config, svt_config=svt_config)
    results = []
    failures = []
    for outcome in _pool_map(trial, specs):
        (results if isinstance(outcome, TrialResult) else failures).append(outcome)
    if results:
        errs = [r.rmse for r in results]
        mean_rmse = float(np.mean(errs))
        median_rmse = float(np.median(errs))
        mean_iters = float(np.mean([r.iterations for r in results]))
        mean_runtime = float(np.mean([r.runtime_s for r in results]))
    else:
        mean_rmse = median_rmse = mean_iters = mean_runtime = math.nan
    return McSummary(
        solver=solver_choice,
        trials=trials,
        mean_rmse=mean_rmse,
        median_rmse=median_rmse,
        mean_iterations=mean_iters,
        mean_runtime_s=mean_runtime,
        results=results,
        failures=failures,
    )
