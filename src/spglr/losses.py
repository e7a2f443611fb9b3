"""Smoothed elementwise absolute-value losses.

One l1 loss with two constructors: masked completion, which measures
|X_ij - M_ij| over an observed index set, and full decomposition, which
measures |X - L| over every entry. Each residual term is smoothed by the
quadratic-inside-the-tube function

    smooth(s, mu) = |s|                 if |s| > mu,
                    s^2/(2 mu) + mu/2   otherwise,

so the smoothed loss is convex, differentiable, within
(n_terms / 2) * mu of the exact loss, and has a (1/mu)-Lipschitz
gradient. It is evaluated as an l1 term plus a tube term,

    smooth(s, mu) = |s| + max(mu - |s|, 0)^2 / (2 mu),

which needs no branch per entry, and whose tube term is a nonnegative
sum, so the smoothed loss is never below the exact one in floating
point either.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix
from .solver import check_field_types


def _check_positive(mu):
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")


def _tube(a, mu, out=None):
    """max(mu - a, 0) for a = |s|: how far each term sits inside the tube."""
    return np.maximum(np.subtract(mu, a, out=out), 0.0, out=out)


def _clip_grad(s, mu):
    """Derivative of the smoothed term: clip(s, -mu, mu) / mu, which is
    sign(s) outside the tube and s / mu inside."""
    g = np.maximum(s, -mu)
    np.minimum(g, mu, out=g)
    g /= mu
    return g


@dataclass(frozen=True)
class MaskedData:
    """Observed entries of an m x n matrix: index arrays plus values.

    rows and cols are integers, not bools, by the rule of the config
    fields (see solver.check_type), and so are the entries of row_idx and
    col_idx. Indices must be in range and pairwise
    distinct; at least one entry is required. Arrays are stored in input
    order and frozen after construction. `flat_idx` is row_idx * cols +
    col_idx, the position of each entry in the row-major flattened
    matrix, kept from the duplicate check, which sorts a copy of it and
    compares neighbours.
    """

    rows: int
    cols: int
    row_idx: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    flat_idx: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_field_types(self)
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be positive")
        ri, ci = np.asarray(self.row_idx), np.asarray(self.col_idx)
        # an empty list reads as float64, for the count check below to name
        if any(idx.size and idx.dtype.kind not in "iu" for idx in (ri, ci)):
            raise ValueError("row_idx and col_idx must hold integers")
        ri, ci = ri.astype(np.int64, copy=False), ci.astype(np.int64, copy=False)
        vals = np.asarray(self.values, dtype=np.float64)
        if not (ri.ndim == ci.ndim == vals.ndim == 1):
            raise ValueError("row_idx, col_idx, values must be 1-D")
        if not (ri.size == ci.size == vals.size):
            raise ValueError("row_idx, col_idx, values must have equal length")
        if ri.size < 1:
            raise ValueError("at least one observed entry is required")
        if np.any(ri < 0) or np.any(ri >= self.rows):
            raise ValueError("row index out of range")
        if np.any(ci < 0) or np.any(ci >= self.cols):
            raise ValueError("column index out of range")
        if not np.isfinite(vals).all():
            raise ValueError("observed values must be finite")
        flat = ri * self.cols + ci
        ordered = np.sort(flat)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("duplicate observed positions")
        for name, arr in (
            ("row_idx", ri), ("col_idx", ci), ("values", vals), ("flat_idx", flat)
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def observed_matrix(self):
        """Dense matrix with observed values filled in, zeros elsewhere."""
        M = np.zeros((self.rows, self.cols))
        M.ravel()[self.flat_idx] = self.values
        return M


class _L1Loss:
    """Smoothed sum over the bound terms of |X_ij - target_ij|.

    Every quantity the solver needs is a function of the residual vector
    r = X[index] - target, so `value_at` and `gradient_at` take r and the
    solver computes it once per candidate with `residuals`. `residuals`,
    `value` and `gradient` take a matrix X and validate it; the `_at`
    methods trust their r but check mu. `flat_idx` holds the row-major
    positions of the terms of a masked binding, or is None when every
    entry is a term.
    """

    def __init__(self, shape, target, flat_idx):
        self.shape = shape
        self._target = target
        self._flat_idx = flat_idx
        self.n_terms = target.size
        self.kappa = self.n_terms / 2.0
        self.loss_lipschitz_Lf = math.sqrt(self.n_terms)

    def residuals(self, X):
        X = as_matrix(X)
        if X.shape != self.shape:
            raise ValueError(f"shape mismatch: {X.shape} vs {self.shape}")
        if self._flat_idx is None:
            return X - self._target
        r = np.take(X, self._flat_idx)
        r -= self._target
        return r

    def value(self, X, mu):
        """Smoothed loss for mu > 0; the exact absolute loss at mu = 0."""
        return self.value_at(self.residuals(X), mu)

    def gradient(self, X, mu):
        """Gradient of the smoothed loss; zero off the bound terms."""
        return self.gradient_at(self.residuals(X), mu)

    def value_at(self, r, mu):
        """`value` at the iterate whose residual vector is r."""
        return self.value_and_l1_at(r, mu)[0]

    def value_and_l1_at(self, r, mu):
        """(value_at(r, mu), value_at(r, 0)): the smoothed loss and its l1
        part, the exact loss, from one pass over |r|."""
        if mu < 0:
            raise ValueError(f"mu must be nonnegative, got {mu}")
        if mu != 0:
            _check_positive(mu)
        a = np.abs(r)
        l1 = float(a.sum())
        if mu == 0:
            return l1, l1
        t = _tube(a, mu, out=a)
        return l1 + float(np.vdot(t, t)) / (2.0 * mu), l1

    def gradient_at(self, r, mu):
        """`gradient` at the iterate whose residual vector is r."""
        _check_positive(mu)
        g = _clip_grad(r, mu)
        if self._flat_idx is None:
            return g
        G = np.zeros(self.shape)
        G.ravel()[self._flat_idx] = g
        return G


class CompletionLoss(_L1Loss):
    """Masked absolute-deviation loss sum over observed (i, j) of |X_ij - M_ij|."""

    def __init__(self, data):
        if not isinstance(data, MaskedData):
            raise TypeError("CompletionLoss expects MaskedData")
        self.data = data
        super().__init__((data.rows, data.cols), data.values, data.flat_idx)


class RpcaLoss(_L1Loss):
    """Full absolute-deviation loss sum over all (i, j) of |X_ij - L_ij|."""

    def __init__(self, L):
        self.L = as_matrix(L)
        super().__init__(self.L.shape, self.L, None)
