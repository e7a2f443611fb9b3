"""The benchmark's per-layer tracer still hooks into the solver.

perfbench/tracing.py wraps spglr's module globals and subclasses the loss
classes from outside the package; a refactor of either can silently
break `perfbench/run.py --trace 1`, so a small traced solve runs here.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import spglr
from spglr.experiments import gen_low_rank

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def completion_20x16():
    spec = spglr.TrialSpec(
        m=20, n=16, r=2, sr=0.8, noise=spglr.GmmNoiseParams(1e-4, 0.1, 0.1), seed=5
    )
    _, data = spglr.build_trial_data(spec)
    return lambda: spglr.CompletionLoss(data)


def rpca_20x20():
    rng = np.random.default_rng(12)
    L = gen_low_rank(20, 20, 2, 12)
    L.flat[rng.choice(400, 40, replace=False)] += rng.uniform(-0.5, 0.5, 40)
    return lambda: spglr.RpcaLoss(L)


def traced_solve(make_binding, cfg):
    tracer = tracing.Tracer()
    # Both the binding and solve are looked up inside the block, where the
    # tracer has rebound them.
    with tracing.instrument(tracer):
        result = spglr.solve(make_binding(), cfg)
    return result, tracer


@pytest.mark.parametrize("make_data", [completion_20x16, rpca_20x20], ids=["completion", "rpca"])
def test_traced_solve_matches_untraced_and_records_loss_spans(make_data):
    make_binding = make_data()
    cfg = spglr.SolverConfig(lam=0.4, nu=0.05, max_iter=40)
    plain = spglr.solve(make_binding(), cfg)
    traced, tracer = traced_solve(make_binding, cfg)
    assert np.array_equal(traced.X_final, plain.X_final)
    assert traced.trace == plain.trace
    counts = tracer.call_counts()
    assert counts["solver.solve"] == 1
    assert counts["solver.iterations"] == plain.iterations
    assert counts["penalty.prox"] == plain.prox_calls
    assert counts["losses.residuals"] >= plain.prox_calls
    _, again = traced_solve(make_binding, cfg)
    assert again.call_counts() == counts
