"""Log every truncated-prox call of the benchmark's solves, or compare two logs.

    python tools/route_log.py OUT.json [--src SRC] [--case PATTERN ...] [--max-iter K]
    python tools/route_log.py --compare A B

The first form imports spglr from SRC (default: this checkout's `src/`)
and runs, in this process and in order, the SPG and SVT solves of the
benchmark's workloads with the configs of `perfbench/workloads.py`:
complete-m200 trial seeds 1000-1001, mc-m60 trial seeds 5000-5015 and
the rpca-video-cli video of seed 7. Then it runs the SPG solves of the
under-regularized 200x200, the only config known to hold a route (see
`linalg._leading_svd`): complete-m200's trials at seeds 1000-1002 with
lam 0.75, nu 0.05, mu0 10 and 150 iterations, each about 0.6 s. Each
trial's data is built from its seed, as `spglr.run_trial` builds it, so
no solve runs in a worker process out of the log's sight. A case is
named `<workload>-<seed>-<spg|svt>`, the under-regularized ones
`underreg-m200-<seed>-spg`; `--case` keeps the cases that match any of
its shell-style patterns, and `--max-iter` caps every solve's max_iter.

The log records what its bits depend on besides the code: the numpy
version and the BLAS thread variables. For each solve it holds the
sha256 of X_final and the four prox counters. For each call of
`linalg._leading_svd` it holds the shape of W, k_min, the route the call
took ("gram", "subspace" or null for none), whether factors came back,
the change in each prox counter and the sha256 of the returned factors
(null when none came back).

The second form first prints each recorded setting that differs between
the two logs (a log written before logs recorded them has none), then,
for each solve that differs, its differing summary fields and its first
differing call on both sides, then a line of totals. The exit status is
0 when the solves agree and 1 otherwise.
"""

import os

# One BLAS thread, set before numpy loads, so that a log repeats bit for bit.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import fnmatch
import hashlib
import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CHECKOUT_SRC = ROOT / "src"
COUNTERS = ("calls", "fallbacks", "certificates", "sweeps")
COMPLETE_SEEDS = (1000, 1001)
MC_SEEDS = tuple(range(5000, 5016))
VIDEO_SEED = 7
UNDERREG_SEEDS = (1000, 1001, 1002)
# The keys of one call record, in the order the log stores them.
CALL_FIELDS = ("shape", "k_min", "route", "returned", "deltas", "factors")


def environment():
    """The settings a log's bits depend on besides the code."""
    return {"numpy": np.__version__, **{var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


def read_log(path):
    """(environment, solves) of a log; the environment is None in a log
    written before logs recorded it, which holds only the solves."""
    log = json.loads(Path(path).read_text("utf-8"))
    if isinstance(log, list):
        return None, log
    return log["environment"], log["solves"]


def digest(*arrays):
    """sha256 over the shapes and float64 bytes of `arrays`."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def cases(spglr, workloads):
    """(name, run, config) for every solve of the case set, in run order:
    run(config) solves the case's data, built here from its seed, and
    returns the SolveResult."""
    def completion(name, size, seed, solver_config, svt_config=None):
        # every completion case draws rank-5 trials at sampling rate 0.8
        spec = spglr.TrialSpec(m=size, n=size, r=5, sr=0.8, noise=workloads.NOISE, seed=seed)
        data = spglr.build_trial_data(spec)[1]
        yield (f"{name}-{seed}-spg",
               lambda cfg: spglr.solve(spglr.CompletionLoss(data), cfg), solver_config)
        if svt_config is not None:
            yield f"{name}-{seed}-svt", lambda cfg: spglr.svt_solve(data, cfg), svt_config

    complete, mc = workloads.CompleteM200, workloads.McM60
    for seed in COMPLETE_SEEDS:
        yield from completion(complete.name, 200, seed, complete.solver_config, complete.svt_config)
    for seed in MC_SEEDS:
        yield from completion(mc.name, 60, seed, mc.solver_config, mc.svt_config)
    video = workloads.RpcaVideoCli
    observed = workloads.video(VIDEO_SEED)[1]
    config = spglr.io_formats.config_read(json.dumps(dict(video.config, seed=VIDEO_SEED))).solver
    yield (f"{video.name}-{VIDEO_SEED}-spg",
           lambda cfg: spglr.solve(spglr.RpcaLoss(observed), cfg), config)
    m, n = observed.shape
    rows, cols = np.divmod(np.arange(m * n), n)
    data = spglr.MaskedData(m, n, rows, cols, observed.ravel())
    yield f"{video.name}-{VIDEO_SEED}-svt", lambda cfg: spglr.svt_solve(data, cfg), video.svt_config
    underreg = spglr.SolverConfig(lam=0.75, nu=0.05, mu0=10.0, max_iter=150)
    for seed in UNDERREG_SEEDS:
        yield from completion("underreg-m200", 200, seed, underreg)


@contextlib.contextmanager
def logging_calls(linalg, penalty, calls):
    """Append one record per _leading_svd call to `calls` while active.

    The route is seen through the two route functions _leading_svd
    looks up in linalg, and the call through the name penalty imported."""
    taken = []
    gram, subspace, leading = linalg._gram_triplets, linalg._subspace_triplets, penalty._leading_svd

    def route(inner, label):
        def traced(*args):
            taken.append(label)
            return inner(*args)
        return traced

    def logged(W, k_min, threshold, warm):
        before = [getattr(warm, c) for c in COUNTERS]
        taken.clear()
        factors = leading(W, k_min, threshold, warm)
        calls.append([list(W.shape), k_min, taken[0] if taken else None, factors is not None,
                      [getattr(warm, c) - b for c, b in zip(COUNTERS, before)],
                      None if factors is None else digest(*factors)])
        return factors

    linalg._gram_triplets = route(gram, "gram")
    linalg._subspace_triplets = route(subspace, "subspace")
    penalty._leading_svd = logged
    try:
        yield
    finally:
        linalg._gram_triplets, linalg._subspace_triplets = gram, subspace
        penalty._leading_svd = leading


def record(src, patterns, max_iter):
    """The log of every case matching `patterns`, as a list of solves."""
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import spglr
    import spglr.io_formats
    from perfbench import workloads
    from spglr import linalg, penalty

    warnings.filterwarnings("ignore", category=spglr.PenaltyCapAdvisory)
    solves = []
    for name, run, config in cases(spglr, workloads):
        if not any(fnmatch.fnmatchcase(name, p) for p in patterns):
            continue
        if max_iter is not None:
            config = replace(config, max_iter=max_iter)
        calls = []
        with logging_calls(linalg, penalty, calls):
            result = run(config)
        summary = {"X_final": digest(result.X_final),
                   **{f"prox_{c}": getattr(result, f"prox_{c}") for c in COUNTERS}}
        solves.append({"name": name, **summary, "calls": calls})
        print(f"{name}: {len(calls)} calls", flush=True)
    return solves


def compare(path_a, path_b):
    """Print how two logs differ; return True when their solves agree."""
    (env_a, solves_a), (env_b, solves_b) = read_log(path_a), read_log(path_b)
    if env_a != env_b and None in (env_a, env_b):
        print(f"environment: not recorded in {'A' if env_a is None else 'B'}")
    elif env_a != env_b:
        for key in dict.fromkeys([*env_a, *env_b]):
            if env_a.get(key) != env_b.get(key):
                print(f"environment: {key} {env_a.get(key)!r} vs {env_b.get(key)!r}")
    logs = [{s["name"]: s for s in solves} for solves in (solves_a, solves_b)]
    names = [*logs[0], *(name for name in logs[1] if name not in logs[0])]
    differing = calls = 0
    for name in names:
        if name not in logs[0] or name not in logs[1]:
            print(f"{name}: only in {'A' if name in logs[0] else 'B'}")
            differing += 1
            continue
        a, b = logs[0][name], logs[1][name]
        calls += max(len(a["calls"]), len(b["calls"]))
        fields = [k for k in a if k != "calls" and a[k] != b.get(k)]
        pairs = enumerate(zip(a["calls"], b["calls"]))
        first = next((i for i, (x, y) in pairs if x != y), None)
        if first is None and len(a["calls"]) != len(b["calls"]):
            first = min(len(a["calls"]), len(b["calls"]))
        if not fields and first is None:
            continue
        differing += 1
        print(f"{name}: differs" + "".join(f"; {k} {a[k]!r} vs {b.get(k)!r}" for k in fields))
        if first is None:
            continue
        for side, log in (("A", a["calls"]), ("B", b["calls"])):
            entry = dict(zip(CALL_FIELDS, log[first])) if first < len(log) else None
            print(f"  call {first} {side}: {entry}")
    print(f"{len(names)} solves, {calls} calls: "
          + ("identical" if not differing else f"{differing} solves differ"))
    return differing == 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="JSON file to write the log to")
    parser.add_argument("--src", default=str(CHECKOUT_SRC), help="source tree to import spglr from")
    parser.add_argument("--case", action="append", help="shell-style case pattern (repeatable)")
    parser.add_argument("--max-iter", type=int, help="cap on every solve's max_iter")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two logs")
    args = parser.parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare) else 1
    if args.out is None:
        parser.error("give OUT or --compare A B")
    solves = record(args.src, args.case or ["*"], args.max_iter)
    log = {"environment": environment(), "solves": solves}
    Path(args.out).write_text(json.dumps(log) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
