import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "price_table.py"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_tool(monkeypatch):
    # loading the tool pins BLAS threads in os.environ; the test undoes it
    for var in BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("price_table", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_price_table_prints_each_operation_beside_its_price(monkeypatch, capsys):
    tool = load_tool(monkeypatch)
    monkeypatch.setattr(tool, "FULL", [(40, 30)])
    monkeypatch.setattr(tool, "GRAM", [(40, 30)])
    monkeypatch.setattr(tool, "SWEEP", [((40, 30), 8)])
    monkeypatch.setattr(tool, "CERTIFICATE", [((40, 30), 10)])
    monkeypatch.setattr(tool, "GRAM_CALL", [((400, 30), 9)])
    assert tool.main(["--repeat", "1"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["operation", "shape", "b/k", "measured", "priced", "ratio"]
    ops = ["full SVD", "Gram + eigh", "one sweep", "certificate", "Gram call"]
    assert [line[:12].strip() for line in lines] == ops
    # every row but the unpriced eigh ends in measured, priced and their ratio
    for line in [lines[0], *lines[2:]]:
        measured, priced, ratio = map(float, line.split()[-3:])
        assert measured > 0
        assert ratio == pytest.approx(priced / measured, rel=0.02, abs=0.01)
    # the Gram call took the eigenpairs directly, with no sweep
    assert "sweeps" not in lines[-1]
