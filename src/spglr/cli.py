"""Command-line entry point.

Subcommands: synth (write ground truth + observations), solve (recover
from observations or run Monte Carlo trials), rpca (low-rank plus sparse
split of a full matrix), inpaint (masked image recovery), ablate (mu0
and alpha sweep), eval (metrics between two matrix files).

Exit codes: 0 success, 1 validation or usage error, 2 runtime failure.
All randomness derives from the config seed.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io_formats
from .experiments import build_trial_data, monte_carlo, observe, rmse, psnr, timed_solve
from .io_formats import ConfigError
from .linalg import DecompositionError, svd, rank_estimate
from .losses import RpcaLoss
from .solver import MajorizationError, solve
from .svt import SvtConfig


def main(argv=None):
    sys.exit(run(sys.argv[1:] if argv is None else argv))


def run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, DecompositionError, MajorizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spglr",
        description="Rank-penalized matrix recovery with a smoothed l1 loss.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write ground truth and noisy observations")
    _common_config_args(p)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("solve", help="recover a matrix from observations")
    _common_config_args(p)
    p.add_argument("--mask", help="observation CSV; omit to synthesize from config")
    p.add_argument("--truth", help="ground-truth CSV for metrics")
    p.add_argument("--trials", type=int, default=1, help="Monte Carlo repetitions")
    p.add_argument("--solver", choices=("spg", "svt"), help="override config solver")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("rpca", help="low-rank + sparse split of a full matrix")
    _common_config_args(p)
    p.add_argument("--input", required=True, help="observed matrix CSV")
    p.add_argument("--truth", help="ground-truth CSV for metrics")
    p.set_defaults(handler=_cmd_rpca)

    p = sub.add_parser("inpaint", help="masked recovery of a PGM image")
    _common_config_args(p)
    p.add_argument("--image", required=True, help="input PGM image")
    p.set_defaults(handler=_cmd_inpaint)

    p = sub.add_parser("ablate", help="sweep mu0 and the mu-schedule mode")
    _common_config_args(p)
    p.add_argument(
        "--mu0-list", default="10,100", help="comma-separated mu0 values to sweep"
    )
    p.add_argument("--trials", type=int, default=10, help="trials per sweep point")
    p.set_defaults(handler=_cmd_ablate)

    p = sub.add_parser("eval", help="metrics between two matrix CSV files")
    p.add_argument("recovered")
    p.add_argument("reference")
    p.set_defaults(handler=_cmd_eval)

    return parser


def _common_config_args(p):
    p.add_argument("--config", required=True, help="JSON configuration file")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    p.add_argument("--seed", type=int, help="override the config seed")


def _load_config(args):
    text = Path(args.config).read_text(encoding="utf-8")
    overrides = {}
    for item in args.override:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not KEY=VALUE")
        key, raw = item.split("=", 1)
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return io_formats.config_read(text, overrides)


def _out_dir(args):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _metrics_json(metrics):
    """Indented, key-sorted JSON text of `metrics`, newline-terminated."""
    # +/- infinity is not valid JSON; keep the documented "+inf" sentinel.
    clean = {}
    for key, value in metrics.items():
        if isinstance(value, float) and math.isinf(value):
            clean[key] = "+inf" if value > 0 else "-inf"
        else:
            clean[key] = value
    return json.dumps(clean, indent=2, sort_keys=True) + "\n"


def _svt_config(run_cfg):
    return SvtConfig(max_iter=run_cfg.solver.max_iter, tol=run_cfg.solver.step_tol)


def _cmd_synth(args):
    run_cfg = _load_config(args)
    out = _out_dir(args)
    M, data = build_trial_data(run_cfg.trial)
    (out / "M.csv").write_text(io_formats.matrix_csv_write(M), "utf-8")
    (out / "mask.csv").write_text(io_formats.mask_csv_write(data), "utf-8")
    return 0


def _cmd_solve(args):
    run_cfg = _load_config(args)
    choice = args.solver or run_cfg.solver_choice
    if args.trials < 1:
        raise ConfigError('"trials": must be at least 1')
    if args.mask is not None and args.trials != 1:
        raise ConfigError('"trials": must be 1 with --mask, which gives one observation set')
    if args.truth is not None and args.mask is None:
        raise ConfigError('"--truth": needs --mask; without it, solve synthesizes the truth')

    if args.mask is not None:
        text = Path(args.mask).read_text(encoding="utf-8")
        data = io_formats.mask_csv_read(text, run_cfg.trial.m, run_cfg.trial.n)
        truth = _read_truth(args.truth, (run_cfg.trial.m, run_cfg.trial.n))
    elif args.trials == 1:
        truth, data = build_trial_data(run_cfg.trial)
    out = _out_dir(args)
    if args.trials > 1:
        summary = monte_carlo(
            run_cfg.trial,
            solver_choice=choice,
            trials=args.trials,
            solver_config=run_cfg.solver,
            svt_config=_svt_config(run_cfg),
        )
        rows = [_summary_row(summary, run_cfg, run_cfg.solver.mu0, run_cfg.solver.alpha)]
        (out / "results.csv").write_text(io_formats.results_csv_write(rows), "utf-8")
        return 0

    result, wall = timed_solve(data, choice, run_cfg.solver, _svt_config(run_cfg))
    _write_solution(out, result, wall, choice, truth)
    return 0


def _read_matrix(path):
    """The matrix in CSV file `path`, or None when no path is given."""
    if not path:
        return None
    return io_formats.matrix_csv_read(Path(path).read_text(encoding="utf-8"))


def _read_truth(path, shape):
    """_read_matrix of the --truth file; ValueError unless it has `shape`,
    that of the input it scores."""
    truth = _read_matrix(path)
    if truth is not None and truth.shape != shape:
        raise ValueError(f"shape mismatch: --truth is {truth.shape[0]} x {truth.shape[1]}, "
                         f"the input {shape[0]} x {shape[1]}")
    return truth


def _write_run(out, result, wall, choice, X, truth, **extra):
    """trace.csv and metrics.json: the keys every run reports, rmse and
    psnr of X when a truth is given, and the `extra` keys."""
    (out / "trace.csv").write_text(io_formats.trace_csv_write(result.trace), "utf-8")
    metrics = {
        "solver": choice,
        "status": result.status,
        "iterations": result.iterations,
        "rank": result.rank,
        "stationarity_residual": result.stationarity_residual,
        "wall_time_s": wall,
        **extra,
    }
    if truth is not None:
        metrics["rmse"] = rmse(X, truth)
        metrics["psnr"] = psnr(X, truth)
    (out / "metrics.json").write_text(_metrics_json(metrics), "utf-8")


def _write_solution(out, result, wall, choice, truth, **extra):
    """X.csv, then the run files with the objective gap added."""
    (out / "X.csv").write_text(io_formats.matrix_csv_write(result.X_final), "utf-8")
    _write_run(out, result, wall, choice, result.X_final, truth,
               objective_gap=result.objective_gap, **extra)


def _cmd_rpca(args):
    run_cfg = _load_config(args)
    L = _read_matrix(args.input)
    truth = _read_truth(args.truth, L.shape)
    out = _out_dir(args)
    start = time.perf_counter()
    result = solve(RpcaLoss(L), run_cfg.solver)
    wall = time.perf_counter() - start
    (out / "E.csv").write_text(io_formats.matrix_csv_write(L - result.X_final), "utf-8")
    _write_solution(out, result, wall, "spg", truth, loss="rpca-l1")
    return 0


def _cmd_inpaint(args):
    run_cfg = _load_config(args)
    out = _out_dir(args)
    image = io_formats.pgm_read(Path(args.image).read_bytes())
    streams = np.random.SeedSequence(run_cfg.solver.seed).spawn(2)
    data = observe(image, run_cfg.trial.sr, run_cfg.trial.noise, *streams)
    (out / "observed.pgm").write_bytes(io_formats.pgm_write(data.observed_matrix()))
    result, wall = timed_solve(data, "spg", run_cfg.solver)
    (out / "recovered.pgm").write_bytes(io_formats.pgm_write(result.X_final))
    _write_run(out, result, wall, "spg", np.clip(result.X_final, 0.0, 1.0), image)
    return 0


def _cmd_ablate(args):
    run_cfg = _load_config(args)
    if args.trials < 1:
        raise ConfigError('"trials": must be at least 1')
    try:
        mu0_values = [float(tok) for tok in args.mu0_list.split(",") if tok.strip()]
        configs = [replace(run_cfg.solver, mu0=mu0) for mu0 in mu0_values]
    except ValueError as exc:
        raise ConfigError(f'"--mu0-list": bad value {args.mu0_list!r} ({exc})') from None
    if not configs:
        raise ConfigError('"--mu0-list": no values')
    out = _out_dir(args)

    rows = []
    for cfg in configs:
        for alpha in (0.8, math.inf):
            summary = monte_carlo(
                run_cfg.trial,
                solver_choice="spg",
                trials=args.trials,
                solver_config=replace(cfg, alpha=alpha),
            )
            rows.append(_summary_row(summary, run_cfg, cfg.mu0, alpha))
    (out / "results.csv").write_text(io_formats.results_csv_write(rows), "utf-8")
    return 0


def _summary_row(summary, run_cfg, mu0, alpha):
    """One results.csv row; its keys, in order, are the file's columns."""
    return {
        "solver": summary.solver,
        "mu0": float(mu0),
        "alpha": float(alpha),
        "m": run_cfg.trial.m,
        "n": run_cfg.trial.n,
        "r": run_cfg.trial.r,
        "sr": float(run_cfg.trial.sr),
        "trials": summary.trials,
        "mean_rmse": summary.mean_rmse,
        "median_rmse": summary.median_rmse,
        "mean_iterations": summary.mean_iterations,
        "mean_runtime_s": summary.mean_runtime_s,
    }


def _cmd_eval(args):
    recovered = _read_matrix(args.recovered)
    reference = _read_matrix(args.reference)
    metrics = {
        "rmse": rmse(recovered, reference),
        "psnr": psnr(recovered, reference),
        "rank": rank_estimate(svd(recovered).sigma),
    }
    print(_metrics_json(metrics), end="")
    return 0


if __name__ == "__main__":
    main()
