"""spglr benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. spglr is imported from ./src. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of a separate traced run with --trace 1. The line before it
records the environment. Details (samples, spans) go to perfbench/out/.
See perfbench/README.md for the workloads and metrics.
"""

import os

# Pin BLAS to one thread before anything imports numpy.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import glob
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 9
TRACED_RUNS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_spglr():
    """Import spglr from this checkout's src/ and nowhere else."""
    if not (SRC / "spglr" / "__init__.py").is_file():
        raise ImportError(f"no spglr package under {SRC}")
    sys.path.insert(0, str(SRC))
    import spglr

    if not Path(spglr.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"spglr resolved to {spglr.__file__}, not under {SRC}")
    warnings.filterwarnings("ignore", category=spglr.PenaltyCapAdvisory)
    return spglr


def blas_threads_in_use():
    """Thread count the bundled OpenBLAS reports, or None if not found."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest():
    """sha256 over src/ file paths and contents; identifies the code
    measured when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - t0, value


def guarded(workload, rep_index, inputs):
    """Run one repetition; an exception fails all of its calls."""
    from workloads import Rep

    try:
        return workload.run(inputs)
    except Exception:  # noqa: BLE001  (a failed repetition is counted, not fatal)
        traceback.print_exc(file=sys.stderr)
        rep = Rep(ops=workload.ops)
        rep.fail(f"repetition {rep_index} raised", ops=workload.ops)
        return rep


def end_to_end(workload, seconds):
    """Set up several times, then repeat until `seconds` have passed."""
    import workloads

    setup_times = [timed(workload.setup, 0)[0] for _ in range(SETUP_REPEATS)]
    workload.prepare(workload.setup(0))
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        inputs = workload.setup(len(reps))
        reps.append(guarded(workload, len(reps), inputs))
    measured_s = time.perf_counter() - start
    if not any(rep.samples for rep in reps):
        raise RuntimeError("no repetition produced a result")

    attempted = sum(rep.ops for rep in reps)
    failed = sum(rep.failed for rep in reps)
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    metrics.update(workloads.summarize(reps))
    metrics["ok_frac"] = (1.0 - failed / attempted, "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    details = {
        "setup_samples_s": setup_times,
        "measured_s": measured_s,
        "repetitions": [
            {"ops": r.ops, "failed": r.failed, "problems": r.problems, "samples": r.samples,
             "spg_s": r.spg_s, "svt_s": r.svt_s, "wall_s": r.wall_s}
            for r in reps
        ],
    }
    return attempted, failed, metrics, details


def per_layer(workload, span_path):
    """One untraced and TRACED_RUNS traced passes over set-up plus one
    repetition; call counts must agree exactly between traced passes."""
    import tracing

    workload.prepare(workload.setup(0))
    untraced_s, rep = timed(lambda: workload.run(workload.setup(0)))
    reps = [rep]
    tracers, traced_s = [], []
    for _ in range(TRACED_RUNS):
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            wall, rep = timed(lambda: workload.run(workload.setup(0)))
        tracers.append(tracer)
        traced_s.append(wall)
        reps.append(rep)

    attempted = sum(r.ops for r in reps)
    failed = sum(r.failed for r in reps)
    counts = [t.call_counts() for t in tracers]
    mismatched = sorted(k for k in set(counts[0]) | set(counts[-1])
                        if counts[0].get(k) != counts[-1].get(k))
    if mismatched:
        print(f"perfbench: call counts differ between traced runs: {mismatched}", file=sys.stderr)
        attempted += 1
        failed += 1

    metrics = tracing.summarize(tracers[0])
    overhead = statistics.median(traced_s) - untraced_s
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / untraced_s, "ratio")
    tracers[0].write_csv(span_path)
    details = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "call_counts": counts[0],
        "mismatched_counts": mismatched,
        "problems": [p for r in reps for p in r.problems],
        "spans_file": str(span_path.relative_to(ROOT)),
    }
    return attempted, failed, metrics, details


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        import_spglr()
    except ImportError as exc:
        print(f"perfbench: cannot import spglr: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workloads.warm_up(workdir)
        if args.trace:
            attempted, failed, metrics, details = per_layer(
                workload, OUT / f"spans-{args.workload}-seed{args.seed}.csv")
        else:
            attempted, failed, metrics, details = end_to_end(workload, args.seconds)
    except Exception:  # noqa: BLE001  (report and exit without a result line)
        traceback.print_exc(file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "details": details, "result": result}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n", "utf-8")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
