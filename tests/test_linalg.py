import numpy as np
import pytest

from spglr import linalg as linalg_module
from spglr.linalg import (
    as_matrix,
    frobenius_norm,
    rank_estimate,
    svd,
)

from oracles import random_orthogonal


def test_svd_identity():
    f = svd(np.eye(2))
    assert np.allclose(f.sigma, [1.0, 1.0])


def test_svd_diagonal():
    f = svd(np.diag([3.0, 1.0]))
    assert np.allclose(f.sigma, [3.0, 1.0])
    # factors are signed permutations on a diagonal input
    assert np.allclose(np.abs(f.U), np.eye(2), atol=1e-12)
    assert np.allclose(np.abs(f.V), np.eye(2), atol=1e-12)


def test_svd_reconstruction_5x4():
    rng = np.random.default_rng(0)
    W = rng.standard_normal((5, 4))
    f = svd(W)
    assert np.linalg.norm((f.U * f.sigma) @ f.V.T - W) <= 1e-8 * max(1.0, np.linalg.norm(W))


@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (7, 3), (50, 40), (40, 50), (12, 12)])
def test_svd_contract_random_shapes(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    W = rng.standard_normal(shape)
    f = svd(W)
    k = min(shape)
    assert f.U.shape == (shape[0], k)
    assert f.sigma.shape == (k,)
    assert f.V.shape == (shape[1], k)
    assert np.all(np.diff(f.sigma) <= 0) and np.all(f.sigma >= 0)
    assert np.linalg.norm(f.U.T @ f.U - np.eye(k)) <= 1e-10 * k
    assert np.linalg.norm(f.V.T @ f.V - np.eye(k)) <= 1e-10 * k
    assert np.linalg.norm((f.U * f.sigma) @ f.V.T - W) <= 1e-8 * max(1.0, np.linalg.norm(W))


def test_sigma_invariant_under_orthogonal_factors():
    rng = np.random.default_rng(3)
    W = rng.standard_normal((6, 5))
    Q = random_orthogonal(6, rng)
    P = random_orthogonal(5, rng)
    s0 = svd(W).sigma
    s1 = svd(Q @ W @ P.T).sigma
    assert np.max(np.abs(s0 - s1)) <= 1e-10


def test_frobenius_examples():
    assert frobenius_norm(np.zeros((3, 2))) == 0.0
    assert frobenius_norm(np.ones((2, 2))) == pytest.approx(2.0, abs=1e-15)
    assert frobenius_norm(np.diag([3.0, 4.0])) == pytest.approx(5.0, abs=1e-15)


@pytest.mark.parametrize(
    "bad",
    [np.array([1.0, 2.0]), np.full((2, 2), np.nan), np.array([[np.inf, 0.0]])],
)
def test_as_matrix_rejects(bad):
    with pytest.raises(ValueError):
        as_matrix(bad)


def test_as_matrix_rejects_empty():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 3)))


def test_rank_estimate():
    assert rank_estimate(np.array([1.0, 1e-12, 0.0])) == 1
    assert rank_estimate(np.zeros(4)) == 0
    assert rank_estimate(np.array([5.0, 3.0, 2.0])) == 3
    assert rank_estimate(np.array([])) == 0


def test_predictor_route_table_at_the_first_rank_5_block():
    # the choice of _route for a rank-5 iterate's first block under the
    # prior pace, before a solve has run a call of its own
    def route(m, n):
        return linalg_module._route(m, n, 5 + linalg_module._BLOCK_PAD, linalg_module._PRIOR_PACE)

    # small and narrow inputs keep the full SVD; 1300 x 8 has no room for the block
    assert [route(40, 40), route(60, 60), route(1300, 8)] == [None] * 3
    assert [route(80, 80), route(120, 100), route(200, 200)] == ["subspace"] * 3
    assert [route(1600, 60), route(60, 1600), route(400, 30)] == ["gram"] * 3
    # blocks of 47 and 97, about the ranks of SVT's iterates on 120 x 120 and
    # 200 x 200 completions, and of 17 on 60 x 60, where eigh's gain is lost
    # to per-call costs
    blocks = [(120, 47), (200, 97), (60, 17)]
    routes = [linalg_module._route(p, p, b, linalg_module._PRIOR_PACE) for p, b in blocks]
    assert routes == ["gram", "gram", None]
