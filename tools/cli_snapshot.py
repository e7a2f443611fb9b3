"""Snapshot the CLI's outputs on the README command set, or compare two.

    python tools/cli_snapshot.py OUT_DIR [--src SRC] [--size N ...] [--max-iter K]
    python tools/cli_snapshot.py --compare A B

The first form imports spglr from SRC (default: this checkout's `src/`)
and runs, for each size N (default 60, the README example config, and
120, which takes the truncated prox path), the commands `synth`,
`solve --mask --truth`, synthetic `solve`, `solve --solver svt` (synthetic
and with `--mask --truth`), `solve --trials 3`, `rpca --truth` on a
rank-3 plus 10 % sparse N x N input, `inpaint` on a smooth N x N PGM,
and `ablate --trials 2 --mu0-list 10,100`.
Every output lands under OUT_DIR/mN/<command>/. `rpca --truth` also
runs on two thin inputs of the same kind (THIN_RPCA), into
OUT_DIR/thinMxN/rpca/: on 400 x 30 the prox starts from the short-side
Gram matrix, and on 1300 x 8 every prox declines the truncated route.
Synthetic `solve --solver svt` runs on a fully observed THIN_SVT input
with noise below SVT's default tau, into OUT_DIR/thinMxN/svt_synth/, so
that every SVT prox takes the Gram route. The inputs the tool makes
itself depend only on their shape, so two snapshots of different source
trees see the same files.

Each command runs under the "default" warning filter alone, and what it
warns goes to its own warnings.txt, one "Category: message" line per
warning shown, without the file and line, so that two source trees
compare equal. At one BLAS thread on two or more CPUs, `solve --trials 3`
and `ablate` run their trials in worker processes, so this file shows a
relay of the workers' warnings that loses or repeats one.

BLAS runs on one thread unless the environment sets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS or MKL_NUM_THREADS: the outputs repeat bit for bit only
at a fixed thread count. OUT_DIR/environment.json records the numpy
version and those three variables.

It also runs a fixed set of invalid `solve` commands (ERROR_CASES: the
README config at m = 60 with one key or flag wrong) and writes each
one's exit code, whether its --out-dir was created, and its stderr to
OUT_DIR/errors/<name>.txt; their configs go to OUT_DIR/errors/inputs/.

The second form first prints each recorded setting that differs between
the two environment.json files, or that a side has none ("not recorded"),
then walks both trees and prints one line per other file: identical,
differing, or present on one side only. `wall_time_s` in metrics.json and
`mean_runtime_s` in results.csv are ignored. For a differing trace.csv it
names each differing column and its largest relative difference, for a
differing X.csv, E.csv or M.csv the shape and the largest relative
entry difference, for a differing results.csv each differing cell by
data row and column with both values, and for a differing warnings.txt
or errors/*.txt each changed line on both sides. The exit status is 0
when every file but environment.json is identical and 1 otherwise.
"""

import os

# One BLAS thread, set before numpy loads, so that a snapshot repeats bit for bit.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

CHECKOUT_SRC = Path(__file__).resolve().parents[1] / "src"
# The settings file of a snapshot, which --compare reports apart from the outputs.
ENVIRONMENT = "environment.json"
IGNORED = {"metrics.json": "wall_time_s", "results.csv": "mean_runtime_s"}
# Matrix outputs whose differences --compare reports by entry.
MATRICES = {"X.csv", "E.csv", "M.csv"}
# Shapes of the thin rpca inputs, and of the thin synthetic SVT input.
THIN_RPCA = ((400, 30), (1300, 8))
THIN_SVT = (400, 30)

# name: (config changes, a None value drops the key; extra solve flags)
ERROR_CASES = {
    "nu_negative": ({"nu": -0.05}, []),
    "lambda_zero": ({"lambda": 0.0}, []),
    "unknown_key": ({"lamda": 0.75}, []),
    "rho_removed": ({"rho": 2.0}, []),
    "missing_sr": ({"sr": None}, []),
    "r_above_min_side": ({"r": 61}, []),
    "alpha_huge": ({"alpha": "huge"}, []),
    "max_iter_fraction": ({"max_iter": 2.5}, []),
    "solver_magic": ({"solver": "magic"}, []),
    "trials_zero": ({}, ["--trials", "0"]),
    "seed_negative": ({}, ["--seed", "-1"]),
    # rejected before any read, so the file need not exist
    "truth_without_mask": ({}, ["--truth", "no-such-truth.csv"]),
}


def readme_config(size, max_iter):
    return {
        "m": size, "n": size, "r": 5, "sr": 0.8,
        "var_a": 1e-4, "var_b": 0.1, "c": 0.1,
        "lambda": 0.75, "nu": 0.05, "mu0": 100.0,
        "max_iter": max_iter, "seed": 0,
    }


def _matrix_csv(X):
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in X)


def write_rpca_inputs(inputs, m, n):
    """Rank-3 background plus 10 % sparse outliers: L.csv and L_truth.csv."""
    rng = np.random.default_rng(m)
    truth = rng.standard_normal((m, 3)) @ rng.standard_normal((3, n))
    observed = truth.copy()
    hit = rng.random((m, n)) < 0.1
    observed[hit] += rng.uniform(-5.0, 5.0, int(hit.sum()))
    (inputs / "L.csv").write_text(_matrix_csv(observed), "utf-8")
    (inputs / "L_truth.csv").write_text(_matrix_csv(truth), "utf-8")


def smooth_pgm(size):
    """Binary 8-bit PGM of a smooth low-rank image."""
    t = np.linspace(0.0, 1.0, size)
    image = 0.5 + 0.25 * np.outer(np.sin(3.0 * t), np.cos(2.0 * t)) + 0.2 * np.outer(t, t)
    pixels = np.rint(255.0 * np.clip(image, 0.0, 1.0)).astype(np.uint8)
    return f"P5\n{size} {size}\n255\n".encode("ascii") + pixels.tobytes()


def environment():
    """The settings a snapshot's bits depend on besides the code."""
    return {"numpy": np.__version__, **{var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


def snapshot(out_dir, src, sizes, max_iter):
    """Run the command set for every size; return the failed commands."""
    sys.path.insert(0, str(src))
    from spglr import cli

    Path(out_dir).mkdir(parents=True, exist_ok=True)
    (Path(out_dir) / ENVIRONMENT).write_text(json.dumps(environment(), indent=1), "utf-8")

    failed = []

    def run(label, argv, out):
        with warnings.catch_warnings(record=True) as caught:
            warnings.resetwarnings()
            warnings.simplefilter("default")
            code = cli.run([*argv, "--out-dir", str(out)])
        out.mkdir(parents=True, exist_ok=True)
        (out / "warnings.txt").write_text(
            "".join(f"{w.category.__name__}: {w.message}\n" for w in caught), "utf-8")
        print(f"{label}: exit {code}", flush=True)
        if code != 0:
            failed.append(label)

    for size in sizes:
        root = Path(out_dir) / f"m{size}"
        inputs = root / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        config = inputs / "config.json"
        config.write_text(json.dumps(readme_config(size, max_iter)), "utf-8")
        write_rpca_inputs(inputs, size, size)
        (inputs / "image.pgm").write_bytes(smooth_pgm(size))
        mask = ["--mask", str(root / "synth" / "mask.csv"), "--truth", str(root / "synth" / "M.csv")]
        commands = {
            "synth": ["synth"],
            "solve_mask": ["solve", *mask],
            "solve_synth": ["solve"],
            "svt_synth": ["solve", "--solver", "svt"],
            "svt_mask": ["solve", "--solver", "svt", *mask],
            "trials": ["solve", "--trials", "3"],
            "rpca": ["rpca", "--input", str(inputs / "L.csv"), "--truth", str(inputs / "L_truth.csv")],
            "inpaint": ["inpaint", "--image", str(inputs / "image.pgm")],
            "ablate": ["ablate", "--trials", "2", "--mu0-list", "10,100"],
        }
        for name, argv in commands.items():
            run(f"m{size}/{name}", [*argv, "--config", str(config)], root / name)
    for m, n in THIN_RPCA:
        root = Path(out_dir) / f"thin{m}x{n}"
        inputs = root / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        config = inputs / "config.json"
        config.write_text(json.dumps({**readme_config(n, max_iter), "m": m}), "utf-8")
        write_rpca_inputs(inputs, m, n)
        run(f"{root.name}/rpca", ["rpca", "--input", str(inputs / "L.csv"),
                                  "--truth", str(inputs / "L_truth.csv"),
                                  "--config", str(config)], root / "rpca")
    m, n = THIN_SVT
    root = Path(out_dir) / f"thin{m}x{n}"
    config = root / "inputs" / "svt_config.json"
    config.parent.mkdir(parents=True, exist_ok=True)
    doc = {**readme_config(n, max_iter), "m": m, "sr": 1.0, "var_a": 1e-6, "c": 0.0}
    config.write_text(json.dumps(doc), "utf-8")
    run(f"{root.name}/svt_synth", ["solve", "--solver", "svt", "--config", str(config)],
        root / "svt_synth")
    snapshot_errors(Path(out_dir) / "errors", cli, max_iter)
    return failed


def snapshot_errors(root, cli, max_iter):
    """Run ERROR_CASES; write exit code, out-dir presence and stderr."""
    (root / "inputs").mkdir(parents=True, exist_ok=True)
    for name, (changes, flags) in ERROR_CASES.items():
        doc = {**readme_config(60, max_iter), **changes}
        config = root / "inputs" / f"{name}.json"
        config.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}), "utf-8")
        out = root / "out" / name
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.run(["solve", "--config", str(config), "--out-dir", str(out), *flags])
        created = "yes" if out.exists() else "no"
        (root / f"{name}.txt").write_text(
            f"exit {code}\nout-dir created: {created}\n{stderr.getvalue()}", "utf-8"
        )
        print(f"errors/{name}: exit {code}", flush=True)


def _relative(a, b):
    if a == b:
        return 0.0
    scale = max(abs(a), abs(b))
    return math.inf if scale == 0 or not math.isfinite(scale) else abs(a - b) / scale


def _csv_rows(data, drop=None):
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if drop is None or not rows or drop not in rows[0]:
        return rows
    j = rows[0].index(drop)
    return [row[:j] + row[j + 1:] for row in rows]


def _shape_difference(rows_a, rows_b):
    """How two CSV tables differ in header or row count, or None."""
    if rows_a[:1] != rows_b[:1]:
        return "header differs"
    if len(rows_a) != len(rows_b):
        return f"{len(rows_a) - 1} vs {len(rows_b) - 1} rows"
    return None


def trace_difference(a, b):
    """Describe how two trace.csv files differ, column by column."""
    rows_a, rows_b = _csv_rows(a), _csv_rows(b)
    shape = _shape_difference(rows_a, rows_b)
    if shape:
        return shape
    parts = []
    for j, column in enumerate(rows_a[0]):
        cells = [(ra[j], rb[j]) for ra, rb in zip(rows_a[1:], rows_b[1:]) if ra[j] != rb[j]]
        if not cells:
            continue
        try:
            worst = max(_relative(float(x), float(y)) for x, y in cells)
            parts.append(f"{column} ({len(cells)} rows, max rel {worst:.2e})")
        except ValueError:
            parts.append(f"{column} ({len(cells)} rows)")
    return ", ".join(parts)


def results_difference(a, b):
    """Name each differing results.csv cell by data row and column, with
    both values; None when only the ignored column differs."""
    rows_a, rows_b = (_csv_rows(data, IGNORED["results.csv"]) for data in (a, b))
    if rows_a == rows_b:
        return None
    return _shape_difference(rows_a, rows_b) or ", ".join(
        f"row {i} {column} ({x} vs {y})"
        for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1)
        for column, x, y in zip(rows_a[0], ra, rb)
        if x != y
    )


def matrix_difference(a, b):
    """The shape of two matrix CSVs and their largest entrywise relative
    difference."""
    try:
        A, B = (np.array([[float(v) for v in row] for row in _csv_rows(d)]) for d in (a, b))
    except ValueError:
        return "bytes differ"
    dims = ["x".join(map(str, M.shape)) for M in (A, B)]
    if A.shape != B.shape:
        return f"shape {dims[0]} vs {dims[1]}"
    worst = max(map(_relative, A.flat, B.flat), default=0.0)
    return f"shape {dims[0]}, max rel {worst:.2e}"


def compare_file(name, a, b):
    """None when a and b agree, up to the ignored timing fields."""
    if a == b:
        return None
    if name == "metrics.json":
        ma, mb = json.loads(a), json.loads(b)
        for m in (ma, mb):
            m.pop(IGNORED[name], None)
        if ma == mb:
            return None
        keys = sorted(k for k in ma.keys() | mb.keys() if ma.get(k) != mb.get(k))
        return "keys " + ", ".join(f"{k} ({ma.get(k)!r} vs {mb.get(k)!r})" for k in keys)
    if name == "results.csv":
        return results_difference(a, b)
    if name == "trace.csv":
        return trace_difference(a, b)
    if name in MATRICES:
        return matrix_difference(a, b)
    if name.endswith(".txt"):
        pairs = itertools.zip_longest(a.decode().splitlines(), b.decode().splitlines())
        return "; ".join(f"{x!r} vs {y!r}" for x, y in pairs if x != y)
    return "bytes differ"


def compare_environments(dir_a, dir_b):
    """Print each setting that differs between two snapshots, or the side
    that recorded none."""
    paths = [Path(d) / ENVIRONMENT for d in (dir_a, dir_b)]
    env_a, env_b = (json.loads(p.read_text("utf-8")) if p.is_file() else None for p in paths)
    if env_a != env_b and None in (env_a, env_b):
        print(f"environment: not recorded in {'A' if env_a is None else 'B'}")
    elif env_a != env_b:
        for key in dict.fromkeys([*env_a, *env_b]):
            if env_a.get(key) != env_b.get(key):
                print(f"environment: {key} {env_a.get(key)!r} vs {env_b.get(key)!r}")


def compare(dir_a, dir_b):
    """Print the differing settings, then one line per output file; return
    True when every output file agrees."""
    compare_environments(dir_a, dir_b)
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    files_a, files_b = ({p.relative_to(d) for p in d.rglob("*") if p.is_file()}
                        - {Path(ENVIRONMENT)} for d in (dir_a, dir_b))
    same = True
    for rel in sorted(files_a | files_b):
        if rel not in files_b or rel not in files_a:
            side = "A" if rel in files_a else "B"
            print(f"only in {side}: {rel}")
            same = False
            continue
        problem = compare_file(rel.name, (dir_a / rel).read_bytes(), (dir_b / rel).read_bytes())
        print(f"{'identical' if problem is None else 'differs'}: {rel}"
              + ("" if problem is None else f": {problem}"))
        same = same and problem is None
    return same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", nargs="?", help="directory to write a snapshot into")
    parser.add_argument("--src", default=str(CHECKOUT_SRC), help="source tree to import spglr from")
    parser.add_argument("--size", type=int, action="append", help="matrix size m = n (repeatable)")
    parser.add_argument("--max-iter", type=int, default=500, help="solver max_iter")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two snapshots")
    args = parser.parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare) else 1
    if args.out_dir is None:
        parser.error("give OUT_DIR or --compare A B")
    failed = snapshot(args.out_dir, args.src, args.size or [60, 120], args.max_iter)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
