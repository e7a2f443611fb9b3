import warnings

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


@pytest.mark.parametrize("shape", [(1, 37), (37, 1), (1, 1), (60, 60), (200, 200)])
def test_loop_norms_equal_numpy_norms_bit_for_bit(shape):
    # the solve loop takes Frobenius norms as the square root of a dot
    # product, and the largest column norm from the largest column sum of
    # squares; both must be np.linalg.norm's values exactly
    rng = np.random.default_rng(sum(shape))
    for scale in (1e-150, 1e-8, 1.0, 1e8, 1e150):
        A = scale * rng.standard_normal(shape)
        for M in (A, A.T, np.asfortranarray(A), A[:, ::2]):
            assert linalg_module._frobenius(M) == float(np.linalg.norm(M))
            expected = float(np.linalg.norm(M, axis=0).max(initial=0.0))
            assert linalg_module._largest_column_norm(M) == expected
    assert linalg_module._frobenius(np.zeros(shape)) == 0.0
    assert linalg_module._largest_column_norm(np.zeros((shape[0], 0))) == 0.0


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
    # the first route _routes allows for a block, by default a rank-5
    # iterate's first one
    def route(m, n, b=5 + linalg_module._BLOCK_PAD):
        return (linalg_module._routes(m, n, b) or (None,))[0]

    # small and narrow inputs keep the full SVD; 1300 x 8 has no room for the block
    assert [route(40, 40), route(1300, 8)] == [None] * 2
    assert [route(60, 60), route(80, 80), route(120, 100), route(200, 200)] == ["subspace"] * 4
    assert [route(1600, 60), route(60, 1600), route(400, 30)] == ["gram"] * 3
    # blocks of 47 and 97, about the ranks of SVT's iterates on 120 x 120 and
    # 200 x 200 completions, and of 17 on 60 x 60, where eigh's gain is lost
    # to per-call costs and the sweeps of a wide block cost more than it saves
    blocks = [(120, 47), (200, 97), (60, 17)]
    assert [route(p, p, b) for p, b in blocks] == ["gram", "gram", None]
    # the blocks of the benchmark's solves, either way round: SPG's and SVT's
    # on complete-m200 and mc-m60, the rpca-video-cli matrix and the thin
    # inputs of the CLI snapshot
    table = [
        ((200, 200), range(5, 11), "subspace"),
        ((200, 200), range(95, 110), "gram"),
        ((60, 60), range(5, 11), "subspace"),
        ((60, 60), range(11, 21), None),
        ((1600, 60), range(5, 13), "gram"),
        ((400, 30), range(5, 11), "gram"),
        ((1300, 8), range(5, 11), None),
    ]
    for (m, n), blocks, expected in table:
        assert {route(m, n, b) for b in blocks} == {expected}
        assert {route(n, m, b) for b in blocks} == {expected}


def spread_columns(shape, seed):
    """A Gaussian matrix whose columns fall from 1 to 1e-10 in norm, as a
    power product's do."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * np.geomspace(1.0, 1e-10, shape[1])


def spd(p, seed, shift=1.0):
    B = np.random.default_rng(seed).standard_normal((p, p))
    return B @ B.T + shift * np.eye(p)


@pytest.mark.parametrize("shape", [(60, 10), (200, 10), (60, 8), (1600, 8)])
def test_q_factor_kernel_equals_numpy_qr_bit_for_bit(shape):
    # the truncated routes take Q from the LAPACK gufuncs behind
    # np.linalg.qr; a numpy build that changes them must fail here
    for seed in range(3):
        for Y in (spread_columns(shape, seed), np.random.default_rng(seed).standard_normal(shape)):
            before = Y.copy()
            assert np.array_equal(linalg_module._q_factor(Y), np.linalg.qr(Y)[0])
            assert np.array_equal(Y, before)
            F = np.asfortranarray(Y)
            assert np.array_equal(linalg_module._q_factor(F), np.linalg.qr(F)[0])


# the subspace route's small solves, and the full SVDs of the benchmark's
# 60 x 60, 200 x 200 and 1600 x 60 inputs
@pytest.mark.parametrize("shape", [(60, 10), (200, 10), (60, 60), (200, 200), (1600, 60)])
def test_thin_svd_kernel_equals_numpy_svd_bit_for_bit(shape):
    for seed in range(3):
        A = spread_columns(shape, seed)
        for M in (A, A.T, np.asfortranarray(A)):
            expected = np.linalg.svd(M, full_matrices=False)
            got = linalg_module._thin_svd(M)
            assert all(np.array_equal(g, e) for g, e in zip(got, expected, strict=True))
        # svd of the tall or square A gives np.linalg.svd's factors, and of
        # the wide A.T the same factors swapped
        U, s, Vh = np.linalg.svd(A, full_matrices=False)
        assert all(np.array_equal(g, e) for g, e in zip(svd(A), (U, s, Vh.T), strict=True))
        if shape[0] > shape[1]:
            assert all(np.array_equal(g, e) for g, e in zip(svd(A.T), (Vh.T, s, U), strict=True))


# up to SVT's 200 x 200 Gram matrices on complete-m200
@pytest.mark.parametrize("p", [8, 60, 200])
def test_eigh_kernel_equals_numpy_eigh_bit_for_bit(p):
    # descending: np.linalg.eigh's pairs reversed
    for seed in range(3):
        A = spd(p, seed, shift=0.0)
        values, vectors = np.linalg.eigh(A)
        got = linalg_module._eigh(A)
        assert all(np.array_equal(g, e)
                   for g, e in zip(got, (values[::-1], vectors[:, ::-1]), strict=True))


@pytest.mark.parametrize("p", [60, 200])
def test_cholesky_kernel_equals_numpy_cholesky_bit_for_bit(p):
    for seed in range(3):
        A = spd(p, seed)
        assert np.array_equal(linalg_module._cholesky(A), np.linalg.cholesky(A))


def test_kernel_failures_raise_linalg_error_with_no_warning():
    # LAPACK flags a failure as an invalid value, which the kernels turn
    # into LinAlgError, as numpy.linalg does; no floating-point warning
    # escapes, so _norm_below reads a failed Cholesky as "not proven"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        not_definite = spd(60, 0) - 1e3 * np.eye(60)
        with pytest.raises(np.linalg.LinAlgError):
            linalg_module._cholesky(not_definite)
        G = spd(60, 1)
        top = np.linalg.eigvalsh(G)[-1]
        assert not linalg_module._norm_below(G, 0.99 * np.sqrt(top))
        assert linalg_module._norm_below(G, 1.01 * np.sqrt(top))
        A = spread_columns((60, 10), 0)
        A[3, 4] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            linalg_module._thin_svd(A)
        S = spd(8, 0)
        S[2, 1] = S[1, 2] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            linalg_module._eigh(S)
