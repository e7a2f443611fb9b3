"""The benchmark's workloads.

Each workload is a closed loop: one caller in one process makes a call
into spglr, waits for its result, checks it, and only then makes the
next. spglr is driven only through its public functions and the
`cli.run` entry point, and it receives only the inputs generated here
from the workload seed.

A workload offers:
  setup(rep)   generate the inputs of repetition `rep` (timed as setup_s),
  prepare(x)   untimed reference work the checks need, once per run,
  run(x)       one repetition: the timed program calls and their checks.
"""

import contextlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import spglr
from spglr import cli, io_formats

# Criterion-7 noise: 10 % outliers of variance 0.1 over variance-1e-4 noise.
NOISE = spglr.GmmNoiseParams(var_a=1e-4, var_b=0.1, c=0.1)
# Tolerance of acceptance criterion 4 on the energy column.
ENERGY_TOL = 1e-10


@dataclass
class Rep:
    """Outcome of one repetition: program calls made, how many failed a
    check, per-solve samples, and the time the caller waited."""

    ops: int
    failed: int = 0
    problems: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)
    spg_s: float = 0.0
    spg_solves: int = 0
    svt_s: float = 0.0
    svt_solves: int = 0
    wall_s: float = 0.0

    def add(self, **values):
        for name, value in values.items():
            self.samples.setdefault(name, []).append(float(value))

    def fail(self, problem, ops=1):
        self.problems.append(problem)
        self.failed = min(self.ops, self.failed + ops)


def rms_error(X, M):
    """Root-mean-square entrywise error, computed apart from spglr."""
    return math.sqrt(float(np.mean((np.asarray(X) - M) ** 2)))


def energy_nonincreasing(energies):
    return all(e1 <= e0 + ENERGY_TOL for e0, e1 in zip(energies, energies[1:]))


def parse_matrix_csv(text):
    """Independent reader for the matrix CSV the CLI writes."""
    return np.array([[float(tok) for tok in line.split(",")] for line in text.splitlines() if line])


def parse_trace_energies(text):
    lines = text.splitlines()
    col = lines[0].split(",").index("energy")
    return [float(line.split(",")[col]) for line in lines[1:] if line]


def bit_equal(A, B):
    A = np.ascontiguousarray(A, dtype=np.float64)
    B = np.ascontiguousarray(B, dtype=np.float64)
    return A.shape == B.shape and np.array_equal(A.view(np.uint64), B.view(np.uint64))


def warm_up(workdir):
    """One untimed pass over every code path the workloads use, so LAPACK,
    lazy imports and first-call costs are paid before any timing."""
    spec = spglr.TrialSpec(m=12, n=10, r=2, sr=0.8, noise=NOISE, seed=0)
    M, data = spglr.build_trial_data(spec)
    cfg = spglr.SolverConfig(lam=0.75, nu=0.05, mu0=100.0, max_iter=3)
    spglr.solve(spglr.CompletionLoss(data), cfg)
    spglr.svt_solve(data, spglr.SvtConfig(max_iter=3))
    spglr.monte_carlo(spec, "spg", trials=1, solver_config=cfg)
    d = workdir / "warm-up"
    d.mkdir(parents=True, exist_ok=True)
    (d / "L.csv").write_text(io_formats.matrix_csv_write(M), "utf-8")
    (d / "config.json").write_text(json.dumps({"m": 12, "n": 10, "r": 2, "sr": 1.0, "max_iter": 3}), "utf-8")
    codes = [
        cli.run(["rpca", "--config", str(d / "config.json"), "--input", str(d / "L.csv"),
                 "--truth", str(d / "L.csv"), "--out-dir", str(d)]),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.run(["eval", str(d / "X.csv"), str(d / "L.csv")]))
    if codes != [0, 0]:
        raise RuntimeError(f"warm-up CLI calls exited with {codes}")


class CompleteM200:
    """One masked-completion solve on 200 x 200 data; the prox-bound case."""

    name = "complete-m200"
    ops = 2  # program calls per repetition
    true_rank = 5
    # lam / nu = 28 sits above 2 * sqrt(m * sr) ~ 25, the README's rule.
    solver_config = spglr.SolverConfig(lam=1.4, nu=0.05, mu0=100.0, max_iter=500)
    svt_config = spglr.SvtConfig(tau=1.0, step=1.0, max_iter=500, tol=1e-6)

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self, rep):
        spec = spglr.TrialSpec(m=200, n=200, r=self.true_rank, sr=0.8, noise=NOISE,
                               seed=1000 * self.seed + rep)
        M, data = spglr.build_trial_data(spec)
        return M, data, spglr.CompletionLoss(data)

    def prepare(self, inputs):
        pass

    def run(self, inputs):
        M, data, loss = inputs
        rep = Rep(ops=self.ops)
        t0 = time.perf_counter()
        result = spglr.solve(loss, self.solver_config)
        t1 = time.perf_counter()
        baseline = spglr.svt_solve(data, self.svt_config)
        t2 = time.perf_counter()
        rep.spg_s, rep.spg_solves = t1 - t0, 1
        rep.svt_s, rep.svt_solves = t2 - t1, 1
        rep.wall_s = t2 - t0

        err = rms_error(result.X_final, M)
        svt_err = rms_error(baseline.X_final, M)
        rank = result.trace[-1].rank_estimate
        rep.add(solve_s=t1 - t0, ms_per_iter=1000.0 * (t1 - t0) / result.iterations,
                iterations=result.iterations, rmse=err, final_rank=rank, svt_rmse=svt_err)
        if rank != self.true_rank:
            rep.fail(f"final rank {rank} != {self.true_rank}")
        if not energy_nonincreasing([r.energy for r in result.trace]):
            rep.fail("energy increased along the trace")
        if not err < svt_err:
            rep.fail(f"spg rmse {err} does not beat svt rmse {svt_err}", ops=rep.ops)
        return rep


class McM60:
    """Monte Carlo sweeps of the criterion-7 configuration, SPG then SVT.

    The SVT arm is about 50 times cheaper per trial, so it sweeps four
    times as many consecutive seeds (the SPG arm's and the next 12) to
    give its rate a measurable duration."""

    name = "mc-m60"
    trials = 4
    svt_trials = 16
    ops = trials + svt_trials
    solver_config = spglr.SolverConfig(lam=0.75, nu=0.05, mu0=100.0, max_iter=500)
    svt_config = spglr.SvtConfig(tau=1.0, step=1.0, max_iter=500, tol=1e-6)

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self, rep):
        # The sweep generates its own trial data; set-up prepares the
        # spec and, as its measured unit, one problem instance.
        spec = spglr.TrialSpec(m=60, n=60, r=5, sr=0.8, noise=NOISE,
                               seed=1000 * self.seed + rep * self.svt_trials)
        _, data = spglr.build_trial_data(spec)
        spglr.CompletionLoss(data)
        return spec

    def prepare(self, inputs):
        pass

    def run(self, spec):
        rep = Rep(ops=self.ops)
        t0 = time.perf_counter()
        spg = spglr.monte_carlo(spec, "spg", trials=self.trials, solver_config=self.solver_config)
        t1 = time.perf_counter()
        svt = spglr.monte_carlo(spec, "svt", trials=self.svt_trials, svt_config=self.svt_config)
        t2 = time.perf_counter()
        rep.spg_s, rep.spg_solves = t1 - t0, self.trials
        rep.svt_s, rep.svt_solves = t2 - t1, self.svt_trials
        rep.wall_s = t2 - t0

        for problem in spg.failures + svt.failures:
            rep.fail(problem)
        for r in spg.results:
            rep.add(solve_s=r.runtime_s, ms_per_iter=1000.0 * r.runtime_s / r.iterations,
                    iterations=r.iterations, rmse=r.rmse, final_rank=r.rank)
        for r in svt.results:
            rep.add(svt_rmse=r.rmse)
        if not spg.median_rmse < svt.median_rmse:
            rep.fail(f"spg median rmse {spg.median_rmse} does not beat svt "
                     f"{svt.median_rmse}", ops=rep.ops)
        return rep


def video(seed, side=40, frames=60, rank=3, foreground=0.1):
    """A (side*side) x frames "video": a rank-`rank` background of
    nonnegative spatial patterns under varying gains, with a `foreground`
    share of pixels replaced by uniform intensities."""
    rng = np.random.default_rng(seed)
    patterns = rng.uniform(0.0, 1.0, size=(side * side, rank))
    gains = rng.uniform(0.1, 0.4, size=(frames, rank))
    background = patterns @ gains.T
    observed = background.copy()
    moving = rng.random(background.shape) < foreground
    observed[moving] = rng.uniform(0.0, 1.0, size=int(moving.sum()))
    return background, observed


class RpcaVideoCli:
    """`spglr rpca` then `spglr eval` through cli.run on a tall video matrix."""

    name = "rpca-video-cli"
    # The SVT arm converges in two iterations (about 30 ms), so it runs
    # several times per repetition to give its rate a measurable duration.
    svt_repeats = 8
    ops = 2 + svt_repeats
    true_rank = 3
    config = {"m": 1600, "n": 60, "r": 3, "sr": 1.0, "lambda": 2.5, "nu": 0.05,
              "mu0": 100.0, "max_iter": 500}
    # Roughly the spectral norm of the sparse foreground, so the l2
    # baseline shrinks its directions away.
    svt_config = spglr.SvtConfig(tau=5.0, step=1.0, max_iter=500, tol=1e-6)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = workdir / "rpca"
        self.reference = None

    def setup(self, rep):
        background, observed = video(self.seed)
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "video.csv").write_text(io_formats.matrix_csv_write(observed), "utf-8")
        (self.dir / "truth.csv").write_text(io_formats.matrix_csv_write(background), "utf-8")
        config_text = json.dumps(dict(self.config, seed=self.seed))
        (self.dir / "config.json").write_text(config_text, "utf-8")
        m, n = observed.shape
        rows, cols = np.divmod(np.arange(m * n), n)
        data = spglr.MaskedData(m, n, rows, cols, observed.ravel())
        return background, observed, data, config_text

    def prepare(self, inputs):
        """Solve in-process: the iterate X.csv must reproduce bit for bit."""
        background, observed, _, config_text = inputs
        cfg = io_formats.config_read(config_text).solver
        X = spglr.solve(spglr.RpcaLoss(observed), cfg).X_final
        self.reference = (X, spglr.rmse(X, background))

    def run(self, inputs):
        background, _, data, _ = inputs
        X_ref, rmse_ref = self.reference
        d = self.dir
        out = d / "out"
        for stale in ("X.csv", "E.csv", "trace.csv", "metrics.json"):
            (out / stale).unlink(missing_ok=True)
        rep = Rep(ops=self.ops)
        printed = io.StringIO()
        t0 = time.perf_counter()
        code = cli.run(["rpca", "--config", str(d / "config.json"), "--input", str(d / "video.csv"),
                        "--truth", str(d / "truth.csv"), "--out-dir", str(out)])
        t1 = time.perf_counter()
        with contextlib.redirect_stdout(printed):
            eval_code = cli.run(["eval", str(out / "X.csv"), str(d / "truth.csv")])
        t2 = time.perf_counter()
        baselines = [spglr.svt_solve(data, self.svt_config) for _ in range(self.svt_repeats)]
        t3 = time.perf_counter()
        rep.spg_s, rep.spg_solves = t1 - t0, 1
        rep.svt_s, rep.svt_solves = t3 - t2, self.svt_repeats
        rep.wall_s = t2 - t0

        if code != 0 or eval_code != 0:
            rep.fail(f"cli exit codes rpca={code} eval={eval_code}", ops=2)
            return rep
        metrics = json.loads((out / "metrics.json").read_text("utf-8"))
        X = parse_matrix_csv((out / "X.csv").read_text("utf-8"))
        evaluated = json.loads(printed.getvalue())
        err = rms_error(X, background)
        svt_err = rms_error(baselines[0].X_final, background)
        wall = metrics["wall_time_s"]
        rep.add(solve_s=wall, ms_per_iter=1000.0 * wall / metrics["iterations"],
                iterations=metrics["iterations"], rmse=err, final_rank=metrics["rank"],
                svt_rmse=svt_err)
        if metrics["rank"] != self.true_rank:
            rep.fail(f"final rank {metrics['rank']} != {self.true_rank}")
        if not energy_nonincreasing(parse_trace_energies((out / "trace.csv").read_text("utf-8"))):
            rep.fail("energy increased along trace.csv")
        if not bit_equal(X, X_ref):
            rep.fail("X.csv does not reproduce the in-process iterate bit for bit")
        if evaluated["rmse"] != rmse_ref or metrics["rmse"] != rmse_ref:
            rep.fail(f"eval rmse {evaluated['rmse']} / metrics.json rmse {metrics['rmse']} "
                     f"!= in-process {rmse_ref}")
        if not all(bit_equal(b.X_final, baselines[0].X_final) for b in baselines):
            rep.fail("repeated svt_solve calls disagree", ops=self.svt_repeats)
        if not err < svt_err:
            rep.fail(f"spg rmse {err} does not beat svt rmse {svt_err}", ops=rep.ops)
        return rep


WORKLOADS = {w.name: w for w in (CompleteM200, McM60, RpcaVideoCli)}


def summarize(reps):
    """End-to-end metrics pooled over the repetitions of one run."""
    pooled = {}
    for rep in reps:
        for name, values in rep.samples.items():
            pooled.setdefault(name, []).extend(values)
    timed = [rep for rep in reps if rep.spg_solves]
    med = statistics.median
    return {
        "solve_s": (med(pooled["solve_s"]), "s"),
        "ms_per_iter": (med(pooled["ms_per_iter"]), "ms"),
        "iterations": (med(pooled["iterations"]), "count"),
        "rmse": (med(pooled["rmse"]), "1"),
        "final_rank": (med(pooled["final_rank"]), "count"),
        "trials_per_s": (
            sum(r.spg_solves for r in timed) / sum(r.spg_s for r in timed), "1/s"),
        "svt_trials_per_s": (
            sum(r.svt_solves for r in timed) / sum(r.svt_s for r in timed), "1/s"),
        "svt_rmse": (med(pooled["svt_rmse"]), "1"),
        "pipeline_s": (med(r.wall_s for r in timed), "s"),
    }
