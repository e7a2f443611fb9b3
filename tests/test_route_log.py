import importlib.util
import json
import os
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "route_log.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("route_log", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_route_logs_compare_clean_and_a_doctored_call_is_reported(tmp_path, capsys):
    tool = load_tool()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert tool.main([str(path), "--case", "mc-m60-5000-spg", "--max-iter", "20"]) == 0
    capsys.readouterr()
    assert tool.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "1 solves, 20 calls: identical\n"

    # the log records the numpy version and the BLAS thread variables
    log = json.loads(b.read_text("utf-8"))
    assert log["environment"] == {
        "numpy": np.__version__, **{var: os.environ[var] for var in tool.BLAS_THREAD_VARS}}

    # every call of the 60 x 60 solve takes the subspace route, and the
    # counter deltas of its calls add up to the solve's counters
    (solve,) = log["solves"]
    calls = [dict(zip(tool.CALL_FIELDS, call)) for call in solve["calls"]]
    assert {call["route"] for call in calls} == {"subspace"}
    assert all(call["shape"] == [60, 60] for call in calls)
    totals = [sum(call["deltas"][j] for call in calls) for j in range(4)]
    assert totals == [solve[f"prox_{c}"] for c in tool.COUNTERS]

    # a doctored call is reported by its index, on both sides, and a
    # doctored counter by its name and both values
    solve["calls"][3][2] = "gram"
    solve["prox_sweeps"] += 1
    b.write_text(json.dumps(log), "utf-8")
    assert tool.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    sweeps = solve["prox_sweeps"]
    assert out[0] == f"mc-m60-5000-spg: differs; prox_sweeps {sweeps - 1} vs {sweeps}"
    assert out[1].startswith("  call 3 A: {'shape': [60, 60], 'k_min': ")
    assert "'route': 'subspace'" in out[1] and "'route': 'gram'" in out[2]
    assert out[-1] == "1 solves, 20 calls: 1 solves differ"


def test_compare_prints_a_changed_environment_first_and_reads_older_logs(tmp_path, capsys):
    tool = load_tool()
    a, b, old = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "old.json"
    assert tool.main([str(a), "--case", "mc-m60-5000-spg", "--max-iter", "5"]) == 0
    log = json.loads(a.read_text("utf-8"))
    log["environment"].update(numpy="1.0.0", OMP_NUM_THREADS="2")
    b.write_text(json.dumps(log), "utf-8")
    # a log written before logs recorded their environment holds only the solves
    old.write_text(json.dumps(log["solves"]), "utf-8")
    capsys.readouterr()
    # the settings differ, the solves do not
    assert tool.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"environment: numpy {np.__version__!r} vs '1.0.0'",
        f"environment: OMP_NUM_THREADS {os.environ['OMP_NUM_THREADS']!r} vs '2'",
        "1 solves, 5 calls: identical",
    ]
    solves = log["solves"]
    solves[0]["prox_calls"] += 1
    old.write_text(json.dumps(solves), "utf-8")
    assert tool.main(["--compare", str(old), str(a)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "environment: not recorded in A"
    assert out[1].startswith("mc-m60-5000-spg: differs; prox_calls ")
    assert tool.main(["--compare", str(old), str(old)]) == 0
    assert capsys.readouterr().out == "1 solves, 5 calls: identical\n"


def test_under_regularized_case_logs_the_route_hold(tmp_path):
    # the 200 x 200 at lam 0.75 takes the subspace route until a warm call
    # fails its certificate near iteration 70; the hold then sends every
    # later call at that rank to the Gram route
    tool = load_tool()
    path = tmp_path / "log.json"
    assert tool.main([str(path), "--case", "underreg-m200-1000-spg", "--max-iter", "75"]) == 0
    (solve,) = json.loads(path.read_text("utf-8"))["solves"]
    assert solve["name"] == "underreg-m200-1000-spg" and solve["prox_calls"] == 75
    calls = [dict(zip(tool.CALL_FIELDS, call)) for call in solve["calls"]]
    routes = [call["route"] for call in calls]
    held = routes.index("gram")
    assert calls[held - 1]["route"] == "subspace" and not calls[held - 1]["returned"]
    assert set(routes[:held]) == {"subspace"} and set(routes[held:]) == {"gram"}
    assert all(call["returned"] for call in calls[held:])
