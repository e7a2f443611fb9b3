"""Synthetic trial protocol: low-rank ground truth, uniform masks,
Gaussian-mixture noise, recovery metrics, and Monte Carlo averaging.

Every randomized operation is a pure function of its seed (numpy
default_rng, PCG64). Trial t of a Monte Carlo run uses master seed + t;
within a trial, the matrix, mask, and noise draw from independent
SeedSequence spawns so changing one component does not disturb the
others.
"""

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .linalg import as_matrix
from .losses import CompletionLoss, MaskedData
from .solver import SolverConfig, solve
from .svt import SvtConfig, svt_solve

PRNG_DESCRIPTION = (
    "numpy default_rng (PCG64); trial seeds = master seed + trial index; "
    "SeedSequence(seed).spawn(3) for matrix/mask/noise substreams"
)


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
        for name in ("var_a", "var_b"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not 0 <= self.c <= 1:
            raise ValueError("c must lie in [0, 1]")

    @property
    def mixture_variance(self):
        return (1.0 - self.c) * self.var_a + self.c * self.var_b


@dataclass(frozen=True)
class TrialSpec:
    m: int
    n: int
    r: int
    sr: float
    noise: GmmNoiseParams
    seed: int = 0

    def __post_init__(self):
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


def gmm_noise(count, params, seed, return_components=False):
    """Draw `count` mixture samples: Bernoulli(c) picks the component,
    then the sample is Gaussian with the chosen variance."""
    rng = np.random.default_rng(seed)
    outlier = rng.random(count) < params.c
    scale = np.where(outlier, math.sqrt(params.var_b), math.sqrt(params.var_a))
    samples = rng.standard_normal(count) * scale
    if return_components:
        return samples, outlier
    return samples


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


def build_trial_data(spec):
    """Ground truth plus noisy masked observations for one trial.

    Noise lands on the observed entries only, so recovery error against
    the clean ground truth is exactly the quantity of interest.
    """
    streams = np.random.SeedSequence(spec.seed).spawn(3)
    M = gen_low_rank(spec.m, spec.n, spec.r, streams[0])
    row_idx, col_idx = sample_mask(spec.m, spec.n, spec.sr, streams[1])
    noise = gmm_noise(row_idx.size, spec.noise, streams[2])
    data = MaskedData(spec.m, spec.n, row_idx, col_idx, M[row_idx, col_idx] + noise)
    return M, data


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


def monte_carlo(spec, solver_choice="spg", trials=10, solver_config=None, svt_config=None):
    """Independent repetitions with derived seeds; failures are recorded
    per trial instead of aborting the sweep. An invalid config of the
    chosen arm raises before the first trial; an unknown arm fails per trial."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    config = {"spg": solver_config, "svt": svt_config}.get(solver_choice)
    if config is not None:
        config.validate()
    results = []
    failures = []
    for t in range(trials):
        trial_spec = replace(spec, seed=spec.seed + t)
        try:
            results.append(
                run_trial(trial_spec, solver_choice, solver_config, svt_config)
            )
        except Exception as exc:  # noqa: BLE001  (per-trial isolation)
            failures.append(f"trial seed {trial_spec.seed}: {exc}")
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
