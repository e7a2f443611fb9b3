import importlib.util
from pathlib import Path

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
    # 4 inputs and 23 outputs, the thin rpca's 3 inputs and 4 outputs,
    # then each error case's config and record
    assert len(lines) == 27 + 7 + 2 * len(tool.ERROR_CASES)
    assert sum("thin400x30/rpca/" in line for line in lines) == 4
    assert all(line.startswith("identical: ") for line in lines)

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
