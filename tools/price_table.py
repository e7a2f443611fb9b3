"""Time the operations the route prices in spglr.linalg._prices are fitted
to, and print each beside the model's price.

    python tools/price_table.py [--src SRC] [--repeat 5]

spglr is imported from SRC (default: this checkout's `src/`). BLAS is pinned
to one thread before numpy loads. Each time is the best of --repeat runs of
a loop long enough to take 0.2 s, in microseconds, at the shapes the
`_prices` comment names:

  full SVD      linalg.svd, Gaussian input;
  Gram + eigh   linalg._gram_basis on the wide orientation (unpriced: the
                eigh term is half the full SVD's square term);
  one sweep     one Rayleigh-Ritz step of linalg._certified_triplets from
                an orthonormal block of b columns, its residual test and
                the QR of the next block, against _prices' sweep;
  certificate   the subspace route's proof for k = b - 5 kept triplets:
                the residual, its short-side Gram and the Cholesky, priced
                as the subspace price at one certificate per call less the
                price at none;
  Gram call     a whole Gram-route call of linalg._certified_triplets that
                takes the eigenpairs of C directly (k values above the
                threshold, block b = k + 5), against the Gram price at the
                prior pace of 0 sweeps and 1 certificate.

One line per operation and shape: measured, priced and their ratio.
"""

import os

# Pin BLAS to one thread before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
import timeit
from pathlib import Path

import numpy as np

CHECKOUT_SRC = Path(__file__).resolve().parents[1] / "src"
FULL = [(40, 40), (60, 60), (80, 80), (120, 120), (200, 200), (500, 500),
        (1600, 60), (400, 30), (1300, 8)]
GRAM = [(60, 60), (120, 120), (200, 200), (1600, 60), (400, 30), (1300, 8)]
# (shape, b) for a sweep, and for a certificate on k = b - 5 triplets
SWEEP = [((60, 60), 8), ((80, 80), 8), ((200, 200), 8), ((1600, 60), 8), ((400, 30), 8),
         ((1300, 8), 5), ((120, 120), 48), ((200, 200), 48)]
CERTIFICATE = [((60, 60), 10), ((200, 200), 10), ((1600, 60), 10)]
# (shape, k) for a whole Gram call on the direct path
GRAM_CALL = [((60, 60), 5), ((200, 200), 5), ((120, 120), 42), ((200, 200), 100),
             ((1600, 60), 3), ((400, 30), 9), ((1300, 8), 2)]


def best_us(fn, repeat):
    """Best per-call time of fn in microseconds over `repeat` timed loops."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
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
        yield "Gram + eigh", (m, n), "", best_us(lambda: linalg._gram_basis(W), repeat), None
    for (m, n), b in SWEEP:
        W = rng.standard_normal((m, n))
        Q = np.linalg.qr(rng.standard_normal((m, b)))[0]
        k = b - linalg._BLOCK_PAD

        def sweep():
            P, s, Ht = np.linalg.svd(W.T @ Q, full_matrices=False)
            U = Q @ Ht.T
            Y = W @ P
            np.linalg.norm(Y[:, :k] - U[:, :k] * s[:k], axis=0).max(initial=0.0)
            np.linalg.qr(Y)

        yield "one sweep", (m, n), b, best_us(sweep, repeat), prices(m, n, b, prior)[3]
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
        W, b = spectral((m, n), k), k + linalg._BLOCK_PAD
        start = np.empty((n, 0))

        def gram_call():
            warm = linalg.ProxWarmStart(0)
            if linalg._certified_triplets(W, 0, 1.0, warm, start, b, None, True) is None:
                raise RuntimeError(f"the Gram route fell back on {m} x {n}, k = {k}")
            return warm.sweeps

        op = "Gram call" + (f" ({gram_call()} sweeps)" if gram_call() else "")
        yield op, (m, n), k, best_us(gram_call, repeat), prices(m, n, b, prior)[1]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", type=Path, default=CHECKOUT_SRC)
    p.add_argument("--repeat", type=int, default=5)
    args = p.parse_args(argv)
    sys.path.insert(0, str(args.src))
    from spglr import linalg

    print(f"{'operation':<12} {'shape':>9} {'b/k':>4} {'measured':>9} {'priced':>9} {'ratio':>6}")
    for op, (m, n), size, measured, priced in rows(linalg, args.repeat):
        line = f"{op:<12} {f'{m}x{n}':>9} {size:>4} {measured:9.1f}"
        if priced is not None:
            line += f" {priced:9.1f} {priced / measured:6.2f}"
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
