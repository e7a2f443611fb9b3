"""The package namespace exports exactly its public names, and the solver
configs have exactly their settable fields.

Helpers that only the package itself and unit tests use are imported
from their modules, not from `spglr`. Adding a name or a config knob
means editing this file.
"""

import dataclasses
import importlib

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
