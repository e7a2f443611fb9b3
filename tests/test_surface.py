"""The package namespace exports exactly its public names, the solver
configs have exactly their settable fields, and no function in `src/`
outlives its last caller there.

Helpers that only the package itself and unit tests use are imported
from their modules, not from `spglr`. Adding a name or a config knob
means editing this file.
"""

import ast
import dataclasses
import importlib
from collections import Counter
from pathlib import Path

import spglr

PUBLIC = {
    "CompletionLoss", "DecompositionError", "GmmNoiseParams", "IterationRecord",
    "MaskedData", "McSummary", "PenaltyCapAdvisory", "RpcaLoss", "SolveResult",
    "SolverConfig", "SvdFactors", "SvtConfig", "TrialResult", "TrialSpec",
    "build_trial_data", "d_vector", "energy", "gmm_noise", "monte_carlo",
    "prox_matrix", "prox_vector", "rank_estimate", "rmse", "solve",
    "stationarity_residual", "svd", "svt_solve",
}

# Each helper by the module that defines it.
MODULE_ONLY = {
    "as_matrix": "linalg",
    "frobenius_norm": "linalg",
    "capped_surrogate": "penalty",
    "update_mu": "solver",
    "MajorizationError": "solver",
    "gen_low_rank": "experiments",
    "psnr": "experiments",
    "run_trial": "experiments",
    "sample_mask": "experiments",
}

# The functions with no reference in src/ that stay, each with its reason.
UNREFERENCED = {
    # perfbench/tracing.py lists it in ENTRY_POINTS
    "linalg.frobenius_norm",
    # perfbench/tracing.py lists it in ENTRY_POINTS; the checked twin of
    # the _capped_surrogate the solver calls
    "penalty.capped_surrogate",
    # the reader of the trace codec, which cli writes with trace_csv_write
    "io_formats.trace_csv_read",
}


def test_all_lists_the_27_public_names_once():
    assert len(spglr.__all__) == 27
    assert len(set(spglr.__all__)) == len(spglr.__all__)
    assert set(spglr.__all__) == PUBLIC
    for name in spglr.__all__:
        assert getattr(spglr, name).__module__.startswith("spglr."), name


def test_helpers_are_importable_only_from_their_modules():
    for name, module in MODULE_ONLY.items():
        assert not hasattr(spglr, name), name
        helper = getattr(importlib.import_module(f"spglr.{module}"), name)
        assert helper.__module__ == f"spglr.{module}"


def test_solver_configs_have_exactly_their_fields():
    solver_fields = [f.name for f in dataclasses.fields(spglr.SolverConfig)]
    assert solver_fields == [
        "mu0", "alpha", "sigma_exp", "lam", "nu",
        "max_iter", "step_tol", "mu_stop", "seed",
    ]
    svt_fields = [f.name for f in dataclasses.fields(spglr.SvtConfig)]
    assert svt_fields == ["tau", "step", "max_iter", "tol"]


def referenced_names(node):
    """How often each name appears as a Name or an Attribute under `node`."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced_functions(source):
    """`module.name` or `module.Class.name` of every module-level function
    and method, properties included, in the package at `source` whose name
    appears as no name or attribute in the package outside its own def,
    less dunders and the names in spglr.__all__."""
    trees = {path.stem: ast.parse(path.read_text("utf-8")) for path in sorted(source.glob("*.py"))}
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{module}.{node.name}", node))
            elif isinstance(node, ast.ClassDef):
                defs += [(f"{module}.{node.name}.{item.name}", item)
                         for item in node.body if isinstance(item, ast.FunctionDef)]
    everywhere = sum(map(referenced_names, trees.values()), Counter())
    return {key for key, node in defs
            if not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in spglr.__all__
            and everywhere[node.name] == referenced_names(node)[node.name]}


def test_every_function_in_src_has_a_caller_there_or_a_reason():
    source = Path(spglr.__file__).resolve().parent
    assert unreferenced_functions(source) == UNREFERENCED
