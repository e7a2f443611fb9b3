import json

import numpy as np
import pytest

import spglr
from spglr import linalg as linalg_module
from spglr import losses as losses_module
from spglr import penalty as penalty_module
from spglr.cli import run
from spglr.experiments import gen_low_rank
from spglr.io_formats import (
    config_read,
    mask_csv_read,
    matrix_csv_read,
    matrix_csv_write,
    pgm_write,
    trace_csv_read,
    trace_csv_write,
)

TOY = {
    "m": 1,
    "n": 1,
    "r": 1,
    "sr": 1.0,
    "lambda": 0.01,
    "nu": 0.1,
    "mu0": 1.0,
    "seed": 11,
}

SMALL = {
    "m": 14,
    "n": 12,
    "r": 2,
    "sr": 0.8,
    "lambda": 0.4,
    "nu": 0.05,
    "mu0": 10.0,
    "max_iter": 80,
    "var_a": 1e-4,
    "var_b": 0.1,
    "c": 0.1,
    "seed": 3,
}


# metrics.json keys every solve-like command writes; rmse and psnr need a
# ground truth.
RUN_KEYS = {
    "solver",
    "status",
    "iterations",
    "rank",
    "stationarity_residual",
    "wall_time_s",
}
SCORE_KEYS = {"rmse", "psnr"}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), "utf-8")
    return str(path)


def test_synth_outputs_and_determinism(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["synth", "--config", cfg, "--out-dir", str(out1)]) == 0
    assert run(["synth", "--config", cfg, "--out-dir", str(out2)]) == 0
    assert (out1 / "M.csv").read_bytes() == (out2 / "M.csv").read_bytes()
    assert (out1 / "mask.csv").read_bytes() == (out2 / "mask.csv").read_bytes()
    M = matrix_csv_read((out1 / "M.csv").read_text())
    assert M.shape == (14, 12)


def test_solve_toy_synthetic_metrics(tmp_path):
    cfg = write_config(tmp_path, TOY)
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out-dir", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["rmse"] < 1e-3
    assert metrics["rank"] == 1
    assert metrics["solver"] == "spg"
    assert (out / "X.csv").exists() and (out / "trace.csv").exists()


def test_solve_file_mode_deterministic_outputs(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    data_dir = tmp_path / "data"
    assert run(["synth", "--config", cfg, "--out-dir", str(data_dir)]) == 0
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = [
        "solve",
        "--config",
        cfg,
        "--mask",
        str(data_dir / "mask.csv"),
        "--truth",
        str(data_dir / "M.csv"),
    ]
    assert run(args + ["--out-dir", str(out1)]) == 0
    assert run(args + ["--out-dir", str(out2)]) == 0
    assert (out1 / "X.csv").read_bytes() == (out2 / "X.csv").read_bytes()
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    m1 = json.loads((out1 / "metrics.json").read_text())
    m2 = json.loads((out2 / "metrics.json").read_text())
    assert set(m1) == RUN_KEYS | SCORE_KEYS | {"objective_gap"}
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    assert m1 == m2
    records = trace_csv_read((out1 / "trace.csv").read_text())
    assert len(records) == m1["iterations"]


def test_solve_with_svt_flag(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "svt"
    assert run(["solve", "--config", cfg, "--out-dir", str(out), "--solver", "svt"]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["solver"] == "svt"


def test_solve_trials_writes_results_csv(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "mc"
    assert run(["solve", "--config", cfg, "--out-dir", str(out), "--trials", "3"]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 2  # header plus one summary row
    assert lines[0].startswith("solver,mu0,alpha")


def test_eval_identical_files(tmp_path, capsys):
    X = np.arange(6.0).reshape(2, 3)
    p = tmp_path / "X.csv"
    p.write_text(matrix_csv_write(X), "utf-8")
    assert run(["eval", str(p), str(p)]) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["rmse"] == 0.0
    assert metrics["psnr"] == "+inf"


def test_eval_differing_files(tmp_path, capsys):
    A = np.zeros((10, 10))
    B = np.full((10, 10), 0.1)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    pa.write_text(matrix_csv_write(A), "utf-8")
    pb.write_text(matrix_csv_write(B), "utf-8")
    assert run(["eval", str(pa), str(pb)]) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["rmse"] == pytest.approx(0.1)
    assert metrics["psnr"] == pytest.approx(20.0)


def test_config_validation_exit_code_and_message(tmp_path, capsys):
    cfg = write_config(tmp_path, {**SMALL, "nu": -0.5})
    assert run(["solve", "--config", cfg, "--out-dir", str(tmp_path / "x")]) == 1
    assert '"nu"' in capsys.readouterr().err


def test_unknown_config_key_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {**SMALL, "mystery": 1})
    assert run(["synth", "--config", cfg, "--out-dir", str(tmp_path / "x")]) == 1
    assert "mystery" in capsys.readouterr().err
    # the removed backtracking knobs are unknown keys, reported before any output
    for extra, key in [({"gamma_hi": 1e4}, "gamma_hi"),
                       ({"gamma_lo": 9.0, "gamma_hi": 1.0}, "gamma_hi"),
                       ({"rho": 2.0}, "rho")]:
        cfg = write_config(tmp_path, {**SMALL, **extra})
        out = tmp_path / "never"
        assert run(["solve", "--config", cfg, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f'error: unknown config key "{key}"\n'
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, key",
    [
        (["solve", "--seed", "-1"], '"seed"'),
        (["synth", "--seed", "-1"], '"seed"'),
        (["synth", "--override", "seed=-3"], '"seed"'),
        (["solve", "--trials", "0"], '"trials"'),
        (["ablate", "--trials", "0"], '"trials"'),
        (["ablate", "--mu0-list", "10,-1"], '"--mu0-list"'),
        (["ablate", "--mu0-list", "10,x"], '"--mu0-list"'),
        (["synth", "--override", "seed"], "KEY=VALUE"),
        (["ablate", "--mu0-list", ","], '"--mu0-list": no values'),
    ],
)
def test_bad_input_rejected_before_any_output(tmp_path, capsys, argv, key):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "never"
    assert run([*argv, "--config", cfg, "--out-dir", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_solve_with_mask_rejects_more_than_one_trial(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    data = tmp_path / "data"
    assert run(["synth", "--config", cfg, "--out-dir", str(data)]) == 0
    out = tmp_path / "never"
    argv = ["solve", "--config", cfg, "--mask", str(data / "mask.csv"), "--trials", "5"]
    assert run([*argv, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith('error: "trials": ')
    assert not out.exists()


@pytest.mark.parametrize("trials", ["1", "2"])
def test_solve_rejects_truth_without_mask(tmp_path, capsys, trials):
    # without --mask, solve synthesizes its own ground truth; the file is
    # never read, so it need not exist
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "never"
    argv = ["solve", "--config", cfg, "--truth", str(tmp_path / "T.csv"), "--trials", trials]
    assert run([*argv, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith('error: "--truth": ')
    assert not out.exists()


@pytest.mark.parametrize("key", ["mu0", "sr", "c"])
def test_integer_beyond_float_range_is_a_config_error(tmp_path, capsys, key):
    cfg = write_config(tmp_path, SMALL)
    argv = ["synth", "--config", cfg, "--out-dir", str(tmp_path / "x")]
    assert run([*argv, "--override", f"{key}=1{'0' * 400}"]) == 1
    assert capsys.readouterr().err.startswith(f'error: "{key}": ')


def test_missing_config_file_is_runtime_error(tmp_path):
    assert (
        run(["synth", "--config", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)])
        == 2
    )


def test_bad_usage_exit_code():
    assert run(["solve"]) == 1  # missing required flags
    assert run(["not-a-command"]) == 1


def test_override_applies_after_parse(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "o"
    assert (
        run(
            [
                "solve",
                "--config",
                cfg,
                "--out-dir",
                str(out),
                "--override",
                "nu=-1",
            ]
        )
        == 1
    )
    assert '"nu"' in capsys.readouterr().err
    assert (
        run(
            [
                "solve",
                "--config",
                cfg,
                "--out-dir",
                str(out),
                "--override",
                "alpha=inf",
                "--override",
                "max_iter=25",
            ]
        )
        == 0
    )
    records = trace_csv_read((out / "trace.csv").read_text())
    assert len(records) == 25


def test_seed_flag_changes_outputs(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run(["synth", "--config", cfg, "--out-dir", str(out1), "--seed", "99"]) == 0
    assert run(["synth", "--config", cfg, "--out-dir", str(out2)]) == 0
    assert (out1 / "M.csv").read_bytes() != (out2 / "M.csv").read_bytes()


def test_ablate_rows_per_pair(tmp_path):
    cfg = write_config(tmp_path, {**SMALL, "m": 10, "n": 10, "max_iter": 30})
    out = tmp_path / "ab"
    assert (
        run(
            [
                "ablate",
                "--config",
                cfg,
                "--out-dir",
                str(out),
                "--mu0-list",
                "5,10",
                "--trials",
                "2",
            ]
        )
        == 0
    )
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 5  # header + 2 mu0 values x 2 alpha modes
    alphas = [line.split(",")[2] for line in lines[1:]]
    assert alphas == ["0.8", "inf", "0.8", "inf"]


def write_rpca_inputs(tmp_path):
    """A 16x16 rank-2 matrix plus sparse corruption, its files and config."""
    rng = np.random.default_rng(12)
    truth = gen_low_rank(16, 16, 2, 12)
    S = np.zeros((16, 16))
    idx = rng.choice(256, 25, replace=False)
    S.flat[idx] = rng.uniform(-0.5, 0.5, 25)
    L = truth + S
    lpath = tmp_path / "L.csv"
    lpath.write_text(matrix_csv_write(L), "utf-8")
    tpath = tmp_path / "truth.csv"
    tpath.write_text(matrix_csv_write(truth), "utf-8")
    cfg = write_config(tmp_path, {**SMALL, "m": 16, "n": 16, "max_iter": 200})
    return L, str(lpath), str(tpath), cfg


def test_rpca_command(tmp_path):
    L, lpath, tpath, cfg = write_rpca_inputs(tmp_path)
    out = tmp_path / "rp"
    assert (
        run(
            [
                "rpca",
                "--config",
                cfg,
                "--input",
                lpath,
                "--truth",
                tpath,
                "--out-dir",
                str(out),
            ]
        )
        == 0
    )
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) == RUN_KEYS | SCORE_KEYS | {"objective_gap", "loss"}
    assert metrics["loss"] == "rpca-l1"
    assert metrics["rmse"] < 5e-3
    X = matrix_csv_read((out / "X.csv").read_text())
    E = matrix_csv_read((out / "E.csv").read_text())
    assert np.allclose(X + E, L, atol=1e-12)


def test_rpca_missing_truth_is_runtime_error(tmp_path):
    _, lpath, _, cfg = write_rpca_inputs(tmp_path)
    out = tmp_path / "rp"
    missing = str(tmp_path / "missing.csv")
    args = ["rpca", "--config", cfg, "--input", lpath, "--truth", missing]
    assert run(args + ["--out-dir", str(out)]) == 2
    # the truth is read before the solve, so a failed run leaves no solution
    assert not (out / "X.csv").exists()


@pytest.mark.parametrize("command", ["solve", "rpca"])
def test_truth_of_the_wrong_shape_is_rejected_before_the_solve(tmp_path, capsys, command):
    # a 12 x 20 truth for a 20 x 12 input: one error line and exit 1, with
    # no output written, as the check runs before the solve
    cfg = write_config(tmp_path, {**SMALL, "m": 20, "n": 12})
    data_dir = tmp_path / "data"
    assert run(["synth", "--config", cfg, "--out-dir", str(data_dir)]) == 0
    M = matrix_csv_read((data_dir / "M.csv").read_text())
    truth = tmp_path / "truth.csv"
    truth.write_text(matrix_csv_write(M.T), "utf-8")
    if command == "solve":
        args = ["--mask", str(data_dir / "mask.csv")]
    else:
        args = ["--input", str(data_dir / "M.csv")]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([command, "--config", cfg, "--truth", str(truth), "--out-dir", str(out)] + args) == 1
    assert capsys.readouterr().err == "error: shape mismatch: --truth is 12 x 20, the input 20 x 12\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "rpca"])
def test_cli_trace_equals_library_trace(tmp_path, command):
    # the CLI writes the trace of the same solve the library runs
    if command == "solve":
        cfg = write_config(tmp_path, SMALL)
        data_dir = tmp_path / "data"
        assert run(["synth", "--config", cfg, "--out-dir", str(data_dir)]) == 0
        mask, truth = data_dir / "mask.csv", data_dir / "M.csv"
        args = ["--mask", str(mask), "--truth", str(truth)]
        data = mask_csv_read(mask.read_text(), SMALL["m"], SMALL["n"])
        binding = spglr.CompletionLoss(data)
    else:
        L, lpath, tpath, cfg = write_rpca_inputs(tmp_path)
        args = ["--input", lpath, "--truth", tpath]
        binding = spglr.RpcaLoss(L)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out-dir", str(out)] + args) == 0
    with open(cfg, encoding="utf-8") as fh:
        result = spglr.solve(binding, config_read(fh.read()).solver)
    assert (out / "trace.csv").read_text() == trace_csv_write(result.trace)
    assert (out / "X.csv").read_text() == matrix_csv_write(result.X_final)


@pytest.mark.parametrize("command", ["solve", "rpca"])
def test_run_without_truth_reports_no_scores(tmp_path, command):
    if command == "solve":
        cfg = write_config(tmp_path, SMALL)
        data_dir = tmp_path / "data"
        assert run(["synth", "--config", cfg, "--out-dir", str(data_dir)]) == 0
        args, extra = ["--mask", str(data_dir / "mask.csv")], set()
    else:
        _, lpath, _, cfg = write_rpca_inputs(tmp_path)
        args, extra = ["--input", lpath], {"loss"}
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out-dir", str(out)] + args) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) == RUN_KEYS | {"objective_gap"} | extra


def test_decomposition_failure_is_runtime_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "X.csv"
    path.write_text(matrix_csv_write(np.eye(3)), "utf-8")

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(linalg_module, "_thin_svd", fail)
    assert run(["eval", str(path), str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: SVD failed on (3, 3) matrix")


def test_majorization_failure_is_runtime_error(tmp_path, monkeypatch, capsys):
    # A loss that adds 1 to every candidate's smoothed value, but not to
    # the value at an iterate, breaks the check at the first step.
    value_and_l1_at = losses_module._L1Loss.value_and_l1_at

    def inflated(self, r, mu):
        value, l1 = value_and_l1_at(self, r, mu)
        return value + 1.0, l1

    monkeypatch.setattr(losses_module._L1Loss, "value_at",
                        lambda self, r, mu: value_and_l1_at(self, r, mu)[0])
    monkeypatch.setattr(losses_module._L1Loss, "value_and_l1_at", inflated)
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: iteration 0: the smoothed loss exceeds its quadratic model")
    assert err.count("\n") == 1
    assert not (out / "X.csv").exists()
    # a Monte Carlo sweep records it per trial
    summary = spglr.monte_carlo(config_read(json.dumps(SMALL)).trial, trials=2,
                                solver_config=spglr.SolverConfig(max_iter=5))
    assert summary.results == []
    assert [f.split(": ", 1)[0] for f in summary.failures] == ["trial seed 3", "trial seed 4"]
    assert all(": iteration 0: " in f for f in summary.failures)


@pytest.mark.parametrize(
    "command, shape, routed",
    [
        ("solve", (14, 12), False),
        # the first prox tries the subspace route, whose sweep SVD kernel fails
        ("solve", (100, 100), True),
        ("rpca", (16, 16), False),
        # the first prox tries the Gram route, whose eigh fails
        ("rpca", (400, 30), True),
    ],
)
def test_decomposition_failure_inside_a_solve_exits_2(
    tmp_path, monkeypatch, capsys, command, shape, routed
):
    m, n = shape
    cfg = write_config(tmp_path, {**SMALL, "m": m, "n": n, "max_iter": 5})
    args = []
    if command == "rpca":
        path = tmp_path / "L.csv"
        path.write_text(matrix_csv_write(gen_low_rank(m, n, 2, 12)), "utf-8")
        args = ["--input", str(path)]
    fallbacks = []
    leading_svd = penalty_module._leading_svd

    def recording(W, k_min, threshold, warm):
        factors = leading_svd(W, k_min, threshold, warm)
        fallbacks.append(warm.fallbacks)
        return factors

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(penalty_module, "_leading_svd", recording)
    monkeypatch.setattr(linalg_module, "_eigh", fail)
    monkeypatch.setattr(linalg_module, "_thin_svd", fail)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out-dir", str(out), *args]) == 2
    assert capsys.readouterr().err.startswith(f"error: SVD failed on ({m}, {n}) matrix")
    # one prox ran, on the full SVD directly or after its route failed
    assert fallbacks == [int(routed)]
    assert not (out / "X.csv").exists()


def test_inpaint_command(tmp_path):
    u = np.linspace(0.1, 0.9, 24)
    v = np.linspace(0.2, 1.0, 24)
    img = np.clip(
        0.6 * np.outer(u, v)
        + 0.4 * np.outer(np.sin(np.linspace(0, 3, 24)) ** 2, np.cos(np.linspace(0, 2, 24)) ** 2),
        0.0,
        1.0,
    )
    ipath = tmp_path / "in.pgm"
    ipath.write_bytes(pgm_write(img))
    cfg = write_config(
        tmp_path,
        {
            "m": 24,
            "n": 24,
            "r": 2,
            "sr": 0.75,
            "lambda": 0.4,
            "nu": 0.05,
            "max_iter": 150,
            "var_a": 1e-4,
            "var_b": 0.05,
            "c": 0.05,
            "seed": 1,
        },
    )
    out = tmp_path / "ip"
    assert run(["inpaint", "--config", cfg, "--image", str(ipath), "--out-dir", str(out)]) == 0
    assert (out / "observed.pgm").exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) == RUN_KEYS | SCORE_KEYS
    assert metrics["psnr"] > 30.0
    from spglr.io_formats import pgm_read

    rec = pgm_read((out / "recovered.pgm").read_bytes())
    assert rec.shape == (24, 24)


@pytest.mark.parametrize("sample, named", [(b"-5", "b'-5'"), (b"1.5", "b'1.5'")],
                         ids=["negative", "fraction"])
def test_inpaint_rejects_a_pgm_sample_outside_0_maxval(tmp_path, capsys, sample, named):
    ipath = tmp_path / "in.pgm"
    ipath.write_bytes(b"P2\n2 2\n255\n0 10\n" + sample + b" 20\n")
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "ip"
    assert run(["inpaint", "--config", cfg, "--image", str(ipath), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: PGM sample {named} is not an integer in [0, 255]")
    assert not (out / "metrics.json").exists()
