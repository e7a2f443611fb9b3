import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_snapshot.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("cli_snapshot", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_snapshots_compare_identical(tmp_path, capsys):
    tool = load_tool()
    for side in ("a", "b"):
        assert tool.main([str(tmp_path / side), "--size", "12", "--max-iter", "15"]) == 0
    capsys.readouterr()
    assert tool.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    lines = capsys.readouterr().out.splitlines()
    # 4 inputs and 33 outputs, each thin rpca's 3 inputs and 5 outputs,
    # the thin SVT's config and 4 outputs, then each error case's config
    # and record; every command's outputs include its warnings.txt
    assert len(lines) == 37 + 8 * len(tool.THIN_RPCA) + 5 + 2 * len(tool.ERROR_CASES)
    assert sum("m12/ablate/results.csv" in line for line in lines) == 1
    assert sum("thin400x30/rpca/" in line for line in lines) == 5
    assert sum("thin1300x8/rpca/" in line for line in lines) == 5
    assert sum("thin400x30/svt_synth/" in line for line in lines) == 4
    assert sum(line.endswith("/warnings.txt") for line in lines) == 9 + len(tool.THIN_RPCA) + 1
    assert all(line.startswith("identical: ") for line in lines)
    # a warning is recorded by its category and message, with no path
    warned = (tmp_path / "a" / "thin400x30" / "rpca" / "warnings.txt").read_text("utf-8")
    assert warned.startswith("PenaltyCapAdvisory: nu=0.05 is at or above lam / L_f = ")
    assert warned.count("\n") == 1 and ".py" not in warned

    # each snapshot records its numpy version and BLAS thread variables;
    # --compare prints a differing setting, or a side with none, but does
    # not count it as a differing file
    env = json.loads((tmp_path / "b" / "environment.json").read_text("utf-8"))
    assert env == tool.environment() and list(env) == ["numpy", *tool.BLAS_THREAD_VARS]
    assert env["numpy"] == np.__version__
    (tmp_path / "b" / "environment.json").write_text(
        json.dumps({**env, "OPENBLAS_NUM_THREADS": "2"}), "utf-8")
    assert tool.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"environment: OPENBLAS_NUM_THREADS {env['OPENBLAS_NUM_THREADS']!r} vs '2'"
    assert all(line.startswith("identical: ") for line in lines[1:])
    (tmp_path / "b" / "environment.json").unlink()
    assert tool.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "environment: not recorded in B"

    # a changed trace cell is reported by its column
    trace = tmp_path / "b" / "m12" / "solve_mask" / "trace.csv"
    header, first, *rest = trace.read_text("utf-8").splitlines()
    cells = first.split(",")
    col = header.split(",").index("energy")
    cells[col] = repr(float(cells[col]) * (1 + 1e-12))
    trace.write_text("\n".join([header, ",".join(cells), *rest]) + "\n", "utf-8")
    assert tool.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out
    assert "differs: m12/solve_mask/trace.csv: energy (1 rows, max rel 1.00e-12)" in out

    # a changed matrix entry is reported with the shape and the largest
    # relative entry difference
    M = tmp_path / "b" / "m12" / "synth" / "M.csv"
    first, *rest = M.read_text("utf-8").splitlines()
    cells = first.split(",")
    cells[0] = repr(float(cells[0]) * (1 + 1e-9))
    M.write_text("\n".join([",".join(cells), *rest]) + "\n", "utf-8")
    assert tool.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out
    assert "differs: m12/synth/M.csv: shape 12x12, max rel 1.00e-09\n" in out

    # a changed results.csv cell is reported by its row and column, with
    # both values
    results = tmp_path / "b" / "m12" / "ablate" / "results.csv"
    header, first, second, *rest = results.read_text("utf-8").splitlines()
    cells = second.split(",")
    col = header.split(",").index("mean_rmse")
    old, cells[col] = cells[col], "0.5"
    results.write_text("\n".join([header, first, ",".join(cells), *rest]) + "\n", "utf-8")
    assert tool.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out
    assert f"differs: m12/ablate/results.csv: row 2 mean_rmse ({old} vs 0.5)\n" in out

    # an error record holds the exit code, whether --out-dir was made, and
    # stderr; a changed message is printed on both sides
    record = tmp_path / "b" / "errors" / "seed_negative.txt"
    assert record.read_text("utf-8").splitlines()[:2] == ["exit 1", "out-dir created: no"]
    record.write_text("exit 1\nout-dir created: yes\nerror: changed\n", "utf-8")
    assert tool.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out
    assert ("differs: errors/seed_negative.txt: 'out-dir created: no' vs "
            "'out-dir created: yes'; 'error: \"seed\": must be nonnegative' vs "
            "'error: changed'") in out


def test_snapshot_pins_blas_threads_unless_set():
    # the tool sets each BLAS thread variable to 1 before numpy loads, and
    # keeps a value the environment already holds
    script = (f"import importlib.util, json\n"
              f"spec = importlib.util.spec_from_file_location('cli_snapshot', {str(TOOL)!r})\n"
              f"tool = importlib.util.module_from_spec(spec)\n"
              f"spec.loader.exec_module(tool)\n"
              f"print(json.dumps(tool.environment()))\n")
    names = load_tool().BLAS_THREAD_VARS
    env = {k: v for k, v in os.environ.items() if k not in names}
    out = subprocess.run([sys.executable, "-c", script], env={**env, "MKL_NUM_THREADS": "2"},
                         capture_output=True, text=True, check=True).stdout
    recorded = json.loads(out)
    assert [recorded[var] for var in names] == ["1", "1", "2"]
