"""Time the operations the route prices in spglr.linalg._prices are fitted
to, and print each beside the model's price.

    python tools/price_table.py [--src SRC] [--repeat 5]

spglr is imported from SRC (default: this checkout's `src/`). BLAS is pinned
to one thread before numpy loads. Each time is the best of --repeat runs of
a loop long enough to take LOOP_S (0.2 s), in microseconds, at the shapes
the `_prices` comment names:

  full SVD      linalg.svd, Gaussian input;
  Gram + eigh   C = W W^T on the wide orientation and its full eigh,
                linalg._gram_basis (unpriced: the eigh term is half the full
                SVD's square term);
  one sweep     one sweep of linalg._subspace_triplets on a warm call:
                linalg._rayleigh_ritz with _POWER_STEPS power steps from a
                block W V of b columns, V orthonormal, and the residual
                test, against _prices' sweep;
  filter step   the QR-only step a warm call of linalg._subspace_triplets
                runs before its first Rayleigh-Ritz step:
                linalg._filter_step with _POWER_STEPS power steps from the
                same block, against _prices' filter_step;
  certificate   the subspace route's proof for k = b - 5 kept triplets:
                the residual, its short-side Gram and the Cholesky, priced
                as the subspace price at one certificate per call less the
                price at none;
  Gram call     a whole cold call of linalg._gram_triplets, which takes
                the eigenpairs of C (k values above the threshold), against
                the Gram price for a block of b = k + 5 at the prior pace of
                0 sweeps and 1 certificate;
  warm Gram call  a whole warm call of linalg._gram_triplets on W moved by
                1e-3 of its norm, from the block of b columns a cold call on
                W kept (k = b - 5 values above the threshold): Rayleigh-Ritz
                steps on C in place of its full eigh, against the same Gram
                price, which does not model them.

One line per operation and shape: measured, priced and their ratio.
"""

import os

# Pin BLAS to one thread before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import math
import sys
import timeit
from pathlib import Path

import numpy as np

CHECKOUT_SRC = Path(__file__).resolve().parents[1] / "src"
FULL = [(40, 40), (60, 60), (80, 80), (120, 120), (200, 200), (500, 500),
        (1600, 60), (400, 30), (1300, 8)]
GRAM = [(60, 60), (120, 120), (200, 200), (1600, 60), (400, 30), (1300, 8)]
# (shape, b) for a sweep and a filter step, and for a certificate on k = b - 5 triplets
SWEEP = [((40, 40), 10), ((60, 60), 10), ((80, 80), 10), ((200, 200), 10), ((500, 500), 10),
         ((1600, 60), 8), ((400, 30), 8), ((1300, 8), 5), ((60, 60), 20), ((120, 120), 48),
         ((200, 200), 48)]
CERTIFICATE = [((60, 60), 10), ((200, 200), 10), ((1600, 60), 10)]
# (shape, k) for a whole Gram call
GRAM_CALL = [((60, 60), 5), ((200, 200), 5), ((120, 120), 42), ((200, 200), 100),
             ((1600, 60), 3), ((400, 30), 9), ((1300, 8), 2)]
# (shape, b) for a warm Gram call
WARM_GRAM_CALL = [((1600, 60), 8), ((400, 30), 8)]


# Seconds each timed loop takes at least; its call count doubles until it does.
LOOP_S = 0.2


def best_us(fn, repeat):
    """Best per-call time of fn in microseconds over `repeat` timed loops."""
    timer = timeit.Timer(fn)
    number = 1
    while timer.timeit(number) < LOOP_S:
        number *= 2
    return 1e6 * min(timer.repeat(repeat, number)) / number


def spectral(shape, k, seed=0):
    """A matrix with k singular values in [2, 10] and a tail below 0.5."""
    rng = np.random.default_rng(seed)
    m, n = shape
    p = min(m, n)
    sigma = np.r_[np.geomspace(10.0, 2.0, k), 0.5 * 0.97 ** np.arange(p - k)]
    U = np.linalg.qr(rng.standard_normal((m, p)))[0]
    V = np.linalg.qr(rng.standard_normal((n, p)))[0]
    return (U * sigma) @ V.T


def rows(linalg, repeat):
    """(operation, shape, b or k, measured us, priced us or None) per line."""
    prices, prior = linalg._prices, linalg._PRIOR_PACE
    rng = np.random.default_rng(1)
    for m, n in FULL:
        W = rng.standard_normal((m, n))
        priced = prices(m, n, 1, prior)[0]
        yield "full SVD", (m, n), "", best_us(lambda: linalg.svd(W), repeat), priced
    for m, n in GRAM:
        W = rng.standard_normal((min(m, n), max(m, n)))
        yield "Gram + eigh", (m, n), "", best_us(lambda: linalg._gram_basis(W @ W.T), repeat), None
    for (m, n), b in SWEEP:
        W = rng.standard_normal((m, n))
        Y = W @ np.linalg.qr(rng.standard_normal((n, b)))[0]
        k = b - linalg._BLOCK_PAD

        def sweep():
            U, s, P, Z = linalg._rayleigh_ritz(W, Y, linalg._POWER_STEPS)
            linalg._largest_column_norm(Z[:, :k] - U[:, :k] * s[:k])

        yield "one sweep", (m, n), b, best_us(sweep, repeat), prices(m, n, b, prior)[3]
    for (m, n), b in SWEEP:
        W = rng.standard_normal((m, n))
        Y = W @ np.linalg.qr(rng.standard_normal((n, b)))[0]

        def filter_step():
            linalg._filter_step(W, Y, linalg._POWER_STEPS)

        yield "filter step", (m, n), b, best_us(filter_step, repeat), prices(m, n, b, prior)[4]
    for (m, n), b in CERTIFICATE:
        k = b - linalg._BLOCK_PAD
        W = spectral((m, n), k)
        P = np.linalg.svd(W, full_matrices=False)[2][:k].T
        Y = W @ P

        def certificate():
            R = W - Y @ P.T
            linalg._norm_below(R.T @ R if m >= n else R @ R.T, 1.0)

        pace = {**prior, "subspace": (0.0, 1.0, 1)}
        priced = prices(m, n, b, pace)[2] - prices(m, n, b, {**pace, "subspace": (0.0, 0.0, 1)})[2]
        yield "certificate", (m, n), b, best_us(certificate, repeat), priced
    for (m, n), k in GRAM_CALL:
        W = spectral((m, n), k)

        def gram_call():
            if linalg._gram_triplets(W, 0, 1.0, linalg.ProxWarmStart(0)) is None:
                raise RuntimeError(f"the Gram route fell back on {m} x {n}, k = {k}")

        priced = prices(m, n, k + linalg._BLOCK_PAD, prior)[1]
        yield "Gram call", (m, n), k, best_us(gram_call, repeat), priced
    for (m, n), b in WARM_GRAM_CALL:
        W = spectral((m, n), b - linalg._BLOCK_PAD)
        moved = W + 1e-3 * np.linalg.norm(W) / math.sqrt(W.size) * rng.standard_normal(W.shape)
        warm = linalg.ProxWarmStart(0)
        linalg._gram_triplets(W, 0, 1.0, warm)
        block = warm.gram
        wide = moved if m <= n else moved.T
        if linalg._gram_ritz(wide, wide @ wide.T, block, 0, 1.0, warm) is None:
            raise RuntimeError(f"the warm Gram call took the full eigh on {m} x {n}")

        def warm_gram_call():
            warm.gram = block
            linalg._gram_triplets(moved, 0, 1.0, warm)

        priced = prices(m, n, b, prior)[1]
        yield "warm Gram call", (m, n), b, best_us(warm_gram_call, repeat), priced


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", type=Path, default=CHECKOUT_SRC)
    p.add_argument("--repeat", type=int, default=5)
    args = p.parse_args(argv)
    sys.path.insert(0, str(args.src))
    from spglr import linalg

    print(f"{'operation':<14} {'shape':>9} {'b/k':>4} {'measured':>9} {'priced':>9} {'ratio':>6}")
    for op, (m, n), size, measured, priced in rows(linalg, args.repeat):
        line = f"{op:<14} {f'{m}x{n}':>9} {size:>4} {measured:9.1f}"
        if priced is not None:
            line += f" {priced:9.1f} {priced / measured:6.2f}"
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
