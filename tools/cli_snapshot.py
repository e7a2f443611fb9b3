"""Snapshot the CLI's outputs on the README command set, or compare two.

    python tools/cli_snapshot.py OUT_DIR [--src SRC] [--size N ...] [--max-iter K]
    python tools/cli_snapshot.py --compare A B

The first form imports spglr from SRC (default: this checkout's `src/`)
and runs, for each size N (default 60, the README example config, and
120, which takes the truncated prox path), the commands `synth`,
`solve --mask --truth`, synthetic `solve`, `solve --solver svt` (synthetic
and with `--mask --truth`), `solve --trials 3`, `rpca --truth` on a
rank-3 plus 10 % sparse N x N input, and `inpaint` on a smooth N x N PGM.
Every output lands under OUT_DIR/mN/<command>/. One more `rpca --truth`
runs on a thin 400 x 30 input of the same kind (THIN_RPCA), whose prox
starts from the short-side Gram matrix, into OUT_DIR/thin400x30/rpca/.
The inputs the tool makes itself depend only on their shape, so two
snapshots of different source trees see the same files.

It also runs a fixed set of invalid `solve` commands (ERROR_CASES: the
README config at m = 60 with one key or flag wrong) and writes each
one's exit code, whether its --out-dir was created, and its stderr to
OUT_DIR/errors/<name>.txt; their configs go to OUT_DIR/errors/inputs/.

The second form walks both trees and prints one line per file: identical,
differing, or present on one side only. `wall_time_s` in metrics.json and
`mean_runtime_s` in results.csv are ignored. For a differing trace.csv it
names each differing column and its largest relative difference, and for
a differing errors/*.txt it prints each changed line on both sides. The exit
status is 0 when every file is identical and 1 otherwise.
"""

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

CHECKOUT_SRC = Path(__file__).resolve().parents[1] / "src"
IGNORED = {"metrics.json": "wall_time_s", "results.csv": "mean_runtime_s"}
# Shape of the thin rpca input.
THIN_RPCA = (400, 30)

# name: (config changes, a None value drops the key; extra solve flags)
ERROR_CASES = {
    "nu_negative": ({"nu": -0.05}, []),
    "lambda_zero": ({"lambda": 0.0}, []),
    "unknown_key": ({"lamda": 0.75}, []),
    "missing_sr": ({"sr": None}, []),
    "gamma_lo_above_hi": ({"gamma_lo": 9.0, "gamma_hi": 1.0}, []),
    "alpha_huge": ({"alpha": "huge"}, []),
    "max_iter_fraction": ({"max_iter": 2.5}, []),
    "solver_magic": ({"solver": "magic"}, []),
    "trials_zero": ({}, ["--trials", "0"]),
    "seed_negative": ({}, ["--seed", "-1"]),
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


def snapshot(out_dir, src, sizes, max_iter):
    """Run the command set for every size; return the failed commands."""
    sys.path.insert(0, str(src))
    from spglr import cli

    failed = []
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
        }
        for name, argv in commands.items():
            argv = [*argv, "--config", str(config), "--out-dir", str(root / name)]
            code = cli.run(argv)
            print(f"m{size}/{name}: exit {code}", flush=True)
            if code != 0:
                failed.append(f"m{size}/{name}")
    m, n = THIN_RPCA
    root = Path(out_dir) / f"thin{m}x{n}"
    inputs = root / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    config = inputs / "config.json"
    config.write_text(json.dumps({**readme_config(n, max_iter), "m": m}), "utf-8")
    write_rpca_inputs(inputs, m, n)
    code = cli.run(["rpca", "--input", str(inputs / "L.csv"),
                    "--truth", str(inputs / "L_truth.csv"),
                    "--config", str(config), "--out-dir", str(root / "rpca")])
    print(f"{root.name}/rpca: exit {code}", flush=True)
    if code != 0:
        failed.append(f"{root.name}/rpca")
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


def trace_difference(a, b):
    """Describe how two trace.csv files differ, column by column."""
    rows_a, rows_b = _csv_rows(a), _csv_rows(b)
    if rows_a[:1] != rows_b[:1]:
        return "header differs"
    if len(rows_a) != len(rows_b):
        return f"{len(rows_a) - 1} vs {len(rows_b) - 1} rows"
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
        if _csv_rows(a, IGNORED[name]) == _csv_rows(b, IGNORED[name]):
            return None
        return "rows differ"
    if name == "trace.csv":
        return trace_difference(a, b)
    if name.endswith(".txt"):
        pairs = itertools.zip_longest(a.decode().splitlines(), b.decode().splitlines())
        return "; ".join(f"{x!r} vs {y!r}" for x, y in pairs if x != y)
    return "bytes differ"


def compare(dir_a, dir_b):
    """Print one line per file; return True when every file agrees."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
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
