import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spglr.losses import CompletionLoss, MaskedData, RpcaLoss

from oracles import central_difference_gradient, huber_grad_reference, huber_reference


def make_completion(rng, m=5, n=6, frac=0.6):
    total = m * n
    count = max(1, int(frac * total))
    flat = np.sort(rng.choice(total, count, replace=False))
    ri, ci = flat // n, flat % n
    vals = rng.standard_normal(count)
    return MaskedData(m, n, ri, ci, vals)


def scalar_term(s, mu):
    """(smoothed value, derivative) of one residual s, via a 1x1 binding."""
    loss = RpcaLoss(np.zeros((1, 1)))
    r = np.array([[s]])
    return loss.value_at(r, mu), float(loss.gradient_at(r, mu)[0, 0])


def test_huber_examples():
    assert scalar_term(2.0, 0.5)[0] == 2.0
    assert scalar_term(0.2, 0.5)[0] == pytest.approx(0.29)
    assert scalar_term(0.5, 0.5)[0] == pytest.approx(0.5)  # continuous at the branch point
    assert scalar_term(-0.5, 0.5)[0] == pytest.approx(0.5)


def test_huber_grad_examples():
    assert scalar_term(2.0, 0.5)[1] == 1.0
    assert scalar_term(0.2, 0.5)[1] == pytest.approx(0.4)
    assert scalar_term(0.0, 0.5)[1] == 0.0
    assert scalar_term(-2.0, 0.5)[1] == -1.0


def test_masked_data_validation():
    with pytest.raises(ValueError, match="duplicate"):
        MaskedData(2, 2, np.array([0, 0]), np.array([1, 1]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="out of range"):
        MaskedData(2, 2, np.array([2]), np.array([0]), np.array([1.0]))
    for empty in (np.array([], dtype=int), []):  # [] reads as float64
        with pytest.raises(ValueError, match="^at least one observed entry is required$"):
            MaskedData(2, 2, empty, empty, [])
    # a float or bool index is rejected, not cast to a position
    for ri, ci in [([0.5], [1]), ([0], [1.7]), ([True], [0]), ([1], [False])]:
        with pytest.raises(ValueError, match="^row_idx and col_idx must hold integers$"):
            MaskedData(2, 2, ri, ci, [1.0])
    with pytest.raises(ValueError, match="finite"):
        MaskedData(2, 2, np.array([0]), np.array([0]), np.array([np.nan]))
    with pytest.raises(ValueError, match="rows and cols must be positive"):
        MaskedData(0, 2, np.array([0]), np.array([0]), np.array([1.0]))
    with pytest.raises(ValueError, match="must be 1-D"):
        MaskedData(2, 2, np.array([[0]]), np.array([[0]]), np.array([[1.0]]))
    with pytest.raises(ValueError, match="equal length"):
        MaskedData(2, 2, np.array([0, 1]), np.array([0]), np.array([1.0]))
    with pytest.raises(TypeError, match="CompletionLoss expects MaskedData"):
        CompletionLoss(np.ones((2, 2)))
    # a bool or a float shape is rejected when built, not later by
    # observed_matrix or the residual gather; numpy integers pass
    one = (np.array([0]), np.array([1]), np.array([1.0]))
    for rows, cols, name in [(2.5, 3, "rows"), (True, 3, "rows"), (3, 2.0, "cols"),
                             (3, np.float64(2.0), "cols"), (3, False, "cols")]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            MaskedData(rows, cols, *one)
    data = MaskedData(np.int64(3), np.int32(2), *one)
    assert data.flat_idx.dtype == np.int64
    assert CompletionLoss(data).residuals(np.zeros((3, 2))).tolist() == [-1.0]


@st.composite
def observation_sets(draw):
    """(rows, cols, row-major positions, values): distinct positions in
    shuffled order, 1 x n, n x 1, fully observed or any shape, and half
    the time one position repeated at any index."""
    kind = draw(st.sampled_from(["1xn", "nx1", "full", "any"]))
    m = 1 if kind == "1xn" else draw(st.integers(1, 12))
    n = 1 if kind == "nx1" else draw(st.integers(1, 12))
    order = draw(st.permutations(range(m * n)))
    count = m * n if kind == "full" else draw(st.integers(1, m * n))
    flat = list(order[:count])
    if draw(st.booleans()):
        flat.insert(draw(st.integers(0, count)), flat[draw(st.integers(0, count - 1))])
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=len(flat), max_size=len(flat)))
    return m, n, flat, values


@given(observation_sets())
@settings(max_examples=300, deadline=None)
def test_duplicate_check_agrees_with_a_set_of_positions(case):
    m, n, flat, values = case
    ri, ci = [p // n for p in flat], [p % n for p in flat]
    arrays = np.array(ri), np.array(ci), np.array(values)
    if len(set(zip(ri, ci))) < len(flat):
        with pytest.raises(ValueError, match=r"^duplicate observed positions$"):
            MaskedData(m, n, *arrays)
        return
    data = MaskedData(m, n, *arrays)
    # stored in input order, bit for bit
    assert data.row_idx.tolist() == ri and data.col_idx.tolist() == ci
    assert data.flat_idx.tolist() == flat
    assert np.array_equal(bits(data.values), bits(np.array(values)))


def test_completion_value_examples():
    data = MaskedData(2, 2, np.array([0, 1]), np.array([0, 1]), np.array([1.0, 2.0]))
    loss = CompletionLoss(data)
    X = np.zeros((2, 2))
    assert loss.value(X, 0.0) == pytest.approx(3.0)
    assert loss.value(X, 0.5) == pytest.approx(3.0)  # both residuals exceed mu
    assert loss.value(data.observed_matrix(), 0.5) == pytest.approx(2 * 0.25)


@pytest.mark.parametrize("kind", ["completion", "rpca"])
def test_completion_constants(kind):
    if kind == "completion":
        data = MaskedData(3, 3, np.array([0, 1, 2, 0]), np.array([0, 1, 2, 2]),
                          np.array([1.0, 2.0, 3.0, 4.0]))
        loss = CompletionLoss(data)
    else:
        loss = RpcaLoss(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert loss.n_terms == 4
    assert loss.kappa == 2.0
    assert loss.loss_lipschitz_Lf == pytest.approx(2.0)


def test_completion_gradient_examples():
    data = MaskedData(1, 1, np.array([0]), np.array([0]), np.array([2.0]))
    loss = CompletionLoss(data)
    assert loss.gradient(np.zeros((1, 1)), 0.5)[0, 0] == -1.0
    assert np.array_equal(loss.gradient(np.array([[2.0]]), 0.5), np.zeros((1, 1)))


def binding_2x3(kind):
    if kind == "completion":
        return CompletionLoss(MaskedData(2, 3, np.array([0]), np.array([0]), np.array([1.0])))
    return RpcaLoss(np.ones((2, 3)))


@pytest.mark.parametrize("kind", ["completion", "rpca"])
def test_shape_mismatch_rejected(kind):
    loss = binding_2x3(kind)
    with pytest.raises(ValueError, match="shape mismatch"):
        loss.value(np.zeros((3, 2)), 0.1)


@pytest.mark.parametrize("kind", ["completion", "rpca"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_value_and_gradient_reject_non_finite_x(kind, bad):
    loss = binding_2x3(kind)
    X = np.zeros((2, 3))
    X[1, 2] = bad  # off the completion mask too
    with pytest.raises(ValueError, match="finite"):
        loss.value(X, 0.1)
    with pytest.raises(ValueError, match="finite"):
        loss.gradient(X, 0.1)


@pytest.mark.parametrize("kind", ["completion", "rpca"])
def test_residual_forms_match_public_methods(kind):
    rng = np.random.default_rng(3)
    loss = binding_2x3(kind)
    X = rng.standard_normal(loss.shape)
    r = loss.residuals(X)
    for mu in (0.0, 0.1, 10.0):
        assert loss.value_at(r, mu) == loss.value(X, mu)
        assert loss.value_and_l1_at(r, mu) == (loss.value(X, mu), loss.value(X, 0.0))
    assert np.array_equal(loss.gradient_at(r, 0.1), loss.gradient(X, 0.1))


@pytest.mark.parametrize("kind", ["completion", "rpca"])
def test_gradient_matches_finite_differences(kind):
    rng = np.random.default_rng(9)
    if kind == "completion":
        loss = CompletionLoss(make_completion(rng))
    else:
        loss = RpcaLoss(rng.standard_normal((5, 6)))
    mu = 0.1
    X = rng.standard_normal(loss.shape)
    G = loss.gradient(X, mu)
    G_fd = central_difference_gradient(lambda Z: loss.value(Z, mu), X)
    rel = np.linalg.norm(G - G_fd) / max(1.0, np.linalg.norm(G_fd))
    assert rel < 1e-5


@pytest.mark.parametrize("kind", ["completion", "rpca"])
def test_smoothing_gap_bound_and_tightness(kind):
    rng = np.random.default_rng(14)
    if kind == "completion":
        loss = CompletionLoss(make_completion(rng))
        zero_residual_point = loss.data.observed_matrix()
    else:
        L = rng.standard_normal((4, 5))
        loss = RpcaLoss(L)
        zero_residual_point = L.copy()
    for mu in (1.0, 0.1, 0.01):
        for _ in range(30):
            X = rng.standard_normal(loss.shape) * 2.0
            gap = loss.value(X, mu) - loss.value(X, 0.0)
            assert 0.0 <= gap <= loss.kappa * mu * (1 + 1e-12)
        # all residuals zero puts every term at its maximal gap mu/2
        gap = loss.value(zero_residual_point, mu) - loss.value(zero_residual_point, 0.0)
        assert gap >= 0.9 * loss.kappa * mu
        assert gap == pytest.approx(loss.kappa * mu)


def test_smoothed_loss_convexity():
    rng = np.random.default_rng(23)
    loss = CompletionLoss(make_completion(rng))
    mu = 0.3
    for _ in range(50):
        X = rng.standard_normal(loss.shape)
        Y = rng.standard_normal(loss.shape)
        t = float(rng.uniform())
        lhs = loss.value(t * X + (1 - t) * Y, mu)
        rhs = t * loss.value(X, mu) + (1 - t) * loss.value(Y, mu)
        assert lhs <= rhs + 1e-10


def test_gradient_lipschitz_in_x():
    rng = np.random.default_rng(31)
    loss = CompletionLoss(make_completion(rng))
    for mu in (1.0, 0.1, 0.01):
        for _ in range(30):
            X = rng.standard_normal(loss.shape)
            Y = rng.standard_normal(loss.shape)
            num = np.linalg.norm(loss.gradient(X, mu) - loss.gradient(Y, mu))
            den = np.linalg.norm(X - Y)
            assert num <= (1.0 / mu) * den * (1 + 1e-12)


def test_gradient_norm_bounded_by_lf():
    rng = np.random.default_rng(37)
    loss = RpcaLoss(rng.standard_normal((6, 4)))
    for mu in (1.0, 0.01):
        for scale in (0.01, 1.0, 100.0):
            X = rng.standard_normal(loss.shape) * scale
            assert np.linalg.norm(loss.gradient(X, mu)) <= loss.loss_lipschitz_Lf + 1e-12


def test_gradient_consistency_as_mu_vanishes():
    # at a point with every residual nonzero the gradient approaches the
    # entrywise sign pattern
    rng = np.random.default_rng(41)
    data = make_completion(rng, m=4, n=4, frac=0.8)
    loss = CompletionLoss(data)
    X = data.observed_matrix() + 1.0  # residuals all 1.0 on the mask
    signs = np.zeros(loss.shape)
    signs[data.row_idx, data.col_idx] = 1.0
    for mu in (1e-1, 1e-3, 1e-6):
        G = loss.gradient(X, mu)
        if mu < 1.0:
            assert np.array_equal(G, signs)


def test_rpca_value_and_gradient_at_zero():
    L = np.array([[1.0, -2.0], [0.5, 0.0]])
    loss = RpcaLoss(L)
    assert loss.value(np.zeros((2, 2)), 0.0) == pytest.approx(3.5)
    # gradient points from X toward matching L
    G = loss.gradient(np.zeros((2, 2)), 0.1)
    assert G[0, 0] == -1.0 and G[0, 1] == 1.0


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def random_binding(kind, rng, m=7, n=13):
    if kind == "completion":
        return CompletionLoss(make_completion(rng, m=m, n=n, frac=0.6))
    return RpcaLoss(rng.standard_normal((m, n)))


def reference_gradient(loss, r, mu):
    """The gradient matrix scattered through the 2-D (row, col) index."""
    g = huber_grad_reference(r, mu)
    if isinstance(loss, RpcaLoss):
        return g
    G = np.zeros(loss.shape)
    G[loss.data.row_idx, loss.data.col_idx] = g
    return G


def tube_residuals(case, shape, mu, rng):
    signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    if case == "inside":
        return mu * rng.uniform(-0.99, 0.99, shape)
    if case == "outside":
        return mu * signs * rng.uniform(1.01, 10.0, shape)
    if case == "boundary":
        return mu * signs
    return np.zeros(shape)


@pytest.mark.parametrize("kind", ["completion", "rpca"])
@pytest.mark.parametrize("mu", [1e-8, 1e-2, 1e3])
@pytest.mark.parametrize("case", ["inside", "outside", "boundary", "zero"])
def test_kernel_matches_two_branch_reference(kind, mu, case):
    rng = np.random.default_rng(61)
    loss = random_binding(kind, rng)
    r = tube_residuals(case, loss.residuals(np.zeros(loss.shape)).shape, mu, rng)
    expected = float(np.sum(huber_reference(r, mu)))
    assert loss.value_at(r, mu) == pytest.approx(expected, rel=1e-13, abs=0.0)
    assert np.array_equal(bits(loss.gradient_at(r, mu)), bits(reference_gradient(loss, r, mu)))


@pytest.mark.parametrize("kind", ["completion", "rpca"])
def test_value_and_gradient_at_reject_nan_mu(kind):
    loss = binding_2x3(kind)
    r = loss.residuals(np.zeros(loss.shape))
    with pytest.raises(ValueError, match="mu must be positive, got nan"):
        loss.value_at(r, math.nan)
    with pytest.raises(ValueError, match="mu must be positive, got nan"):
        loss.gradient_at(r, math.nan)


@pytest.mark.parametrize("kind", ["completion", "rpca"])
def test_value_and_gradient_at_reject_negative_mu(kind):
    loss = binding_2x3(kind)
    r = loss.residuals(np.zeros(loss.shape))
    with pytest.raises(ValueError, match="mu must be nonnegative, got -0.5"):
        loss.value_at(r, -0.5)
    with pytest.raises(ValueError, match="mu must be positive, got -0.5"):
        loss.gradient_at(r, -0.5)


@pytest.mark.parametrize("kind", ["completion", "rpca"])
def test_gradient_at_rejects_zero_mu(kind):
    loss = binding_2x3(kind)
    r = loss.residuals(np.zeros(loss.shape))
    with pytest.raises(ValueError, match="mu must be positive, got 0.0"):
        loss.gradient_at(r, 0.0)


@pytest.mark.parametrize("shape", [(7, 13), (13, 7)])
@pytest.mark.parametrize("layout", ["C", "F", "transposed"])
def test_completion_flat_index_matches_2d_fancy_index(shape, layout):
    rng = np.random.default_rng(64)
    loss = CompletionLoss(make_completion(rng, m=shape[0], n=shape[1], frac=0.5))
    data = loss.data
    X = rng.standard_normal(shape)
    if layout == "F":
        X = np.asfortranarray(X)
    elif layout == "transposed":
        X = np.ascontiguousarray(X.T).T
    assert not X.flags.c_contiguous or layout == "C"
    r = loss.residuals(X)
    assert np.array_equal(bits(r), bits(X[data.row_idx, data.col_idx] - data.values))
    mu = 0.3
    assert np.array_equal(bits(loss.gradient(X, mu)), bits(reference_gradient(loss, r, mu)))
    M = np.zeros(shape)
    M[data.row_idx, data.col_idx] = data.values
    assert np.array_equal(bits(data.observed_matrix()), bits(M))


def test_masked_data_flat_index_is_read_only():
    rng = np.random.default_rng(65)
    data = make_completion(rng, m=4, n=7)
    assert np.array_equal(data.flat_idx, data.row_idx * 7 + data.col_idx)
    assert not data.flat_idx.flags.writeable
    with pytest.raises(ValueError):
        data.flat_idx[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.flat_idx = np.arange(data.values.size)
