"""Per-layer tracing of spglr, recorded entirely from the benchmark's side.

`instrument(tracer)` rebinds, for the duration of a `with` block, the
module globals through which one spglr layer calls another (`svd`,
`as_matrix`, `prox_matrix_with_spectrum`, the loss classes, the codec
functions, `solve`, `svt_solve`, the experiment helpers and `cli.run`)
to wrappers that record one span per call. The loss classes are replaced
by subclasses whose methods record spans around the inherited ones.
Nothing in spglr itself changes, and an uninstrumented run executes
none of this code.

A span is (name, start, end, parent). Spans are kept in memory and
written out once, after the run. A span's self time is its duration
minus the time its child spans cover; a layer's self time is the sum
over the spans named after it.
"""

import contextlib
import functools
import time
from collections import Counter

import spglr
from spglr import cli, experiments, io_formats, linalg, losses, penalty, solver, svt

LAYERS = (
    "cli",
    "io_formats",
    "experiments",
    "svt",
    "solver",
    "penalty",
    "losses",
    "linalg",
)
MODULES = (spglr, cli, io_formats, experiments, svt, solver, penalty, losses, linalg)

# The functions the workloads reach in one layer from another, by their
# defining module. prox_matrix_with_spectrum is recorded as "prox".
ENTRY_POINTS = {
    linalg: ("svd", "as_matrix", "frobenius_norm", "rank_estimate"),
    penalty: ("prox_matrix_with_spectrum", "capped_surrogate", "d_vector"),
    solver: ("solve",),
    svt: ("svt_solve",),
    experiments: ("monte_carlo", "run_trial", "build_trial_data", "rmse", "psnr"),
    io_formats: (
        "matrix_csv_read",
        "matrix_csv_write",
        "trace_csv_write",
        "config_from_dict",
        "check_config_keys",
    ),
    cli: ("run",),
}
SPAN_ALIASES = {"penalty.prox_matrix_with_spectrum": "penalty.prox"}

# linalg.svd recurses through its own global for wide inputs; leaving
# that one binding alone records one span per decomposition.
KEEP_ORIGINAL = {(linalg, "svd")}


class Tracer:
    """Span store for one traced run, plus counters fed by call hooks."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.counters = Counter()
        self._stack = []

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def call_counts(self):
        """Calls per span name plus the hook counters; deterministic."""
        counts = Counter(self.names)
        counts.update(self.counters)
        return dict(sorted(counts.items()))

    def write_csv(self, path):
        """One line per span: id, parent id, name, start and end in seconds."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,name,start_s,end_s\n")
            for i, name in enumerate(self.names):
                out.write(
                    f"{i},{self.parents[i]},{name},"
                    f"{self.starts[i] - t0!r},{self.ends[i] - t0!r}\n"
                )


def _svd_flops(W):
    """Model flop count of a thin SVD with both factors (R-SVD,
    Golub & Van Loan, Matrix Computations, 4th ed., sec. 8.6)."""
    m, n = W.shape
    m, n = max(m, n), min(m, n)
    return 4 * m * n * n + 22 * n ** 3


def _after_svd(tracer, args, result):
    tracer.counters["linalg.svd.flop"] += _svd_flops(args[0])


def _after_solve(tracer, args, result):
    tracer.counters["solver.iterations"] += result.iterations
    tracer.counters["solver.mu_resets"] += sum(rec.mu_reset for rec in result.trace)


def _after_svt(tracer, args, result):
    tracer.counters["svt.iterations"] += result.iterations


def _after_read(tracer, args, result):
    tracer.counters["io_formats.bytes_read"] += len(args[0])


def _after_write(tracer, args, result):
    tracer.counters["io_formats.bytes_written"] += len(result)


HOOKS = {
    "linalg.svd": _after_svd,
    "solver.solve": _after_solve,
    "svt.svt_solve": _after_svt,
    "io_formats.matrix_csv_read": _after_read,
    "io_formats.matrix_csv_write": _after_write,
    "io_formats.trace_csv_write": _after_write,
}


def _traced(tracer, name, fn):
    after = HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


class _TracedLoss:
    """Records spans around the loss methods the solver calls."""

    _tracer = None

    def residuals(self, X):
        idx = self._tracer.open("losses.residuals")
        try:
            return super().residuals(X)
        finally:
            self._tracer.close(idx)

    def value(self, X, mu):
        idx = self._tracer.open("losses.value")
        try:
            return super().value(X, mu)
        finally:
            self._tracer.close(idx)

    def gradient(self, X, mu):
        idx = self._tracer.open("losses.gradient")
        try:
            return super().gradient(X, mu)
        finally:
            self._tracer.close(idx)


def traced_losses(tracer):
    """Subclasses of the two loss bindings that record into `tracer`."""

    class TracedCompletionLoss(_TracedLoss, losses.CompletionLoss):
        _tracer = tracer

    class TracedRpcaLoss(_TracedLoss, losses.RpcaLoss):
        _tracer = tracer

    return TracedCompletionLoss, TracedRpcaLoss


def _replacements(tracer):
    """Map id(original object) -> (original, traced stand-in)."""
    table = {}
    for module, names in ENTRY_POINTS.items():
        layer = module.__name__.rsplit(".", 1)[-1]
        for fname in names:
            span = f"{layer}.{fname}"
            original = getattr(module, fname)
            table[id(original)] = (original, _traced(tracer, SPAN_ALIASES.get(span, span), original))
    completion, rpca = traced_losses(tracer)
    table[id(losses.CompletionLoss)] = (losses.CompletionLoss, completion)
    table[id(losses.RpcaLoss)] = (losses.RpcaLoss, rpca)
    return table


@contextlib.contextmanager
def instrument(tracer):
    """Rebind every spglr global that names an entry point, then restore."""
    table = _replacements(tracer)
    saved = []
    try:
        for module in MODULES:
            for name, value in list(vars(module).items()):
                entry = table.get(id(value))
                if entry is None or entry[0] is not value or (module, name) in KEEP_ORIGINAL:
                    continue
                saved.append((module, name, value))
                setattr(module, name, entry[1])
        yield tracer
    finally:
        for module, name, value in reversed(saved):
            setattr(module, name, value)


def summarize(tracer):
    """Per-layer metrics from one traced run, as {name: (value, unit)}.

    `*.calls_per_iter` counts calls made inside SPG solves per SPG
    iteration; every `*.s` and `*.self_s` is a total over the traced run.
    """
    n = len(tracer.names)
    names = tracer.names
    dur = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    child = [0.0] * n
    in_solve = [False] * n
    for i in range(n):
        p = tracer.parents[i]
        if p >= 0:
            child[p] += dur[i]
            in_solve[i] = in_solve[p] or names[p] == "solver.solve"

    total = Counter()
    self_by_name = Counter()
    calls = Counter()
    calls_in_solve = Counter()
    self_by_layer = Counter()
    for i, name in enumerate(names):
        total[name] += dur[i]
        self_s = dur[i] - child[i]
        self_by_name[name] += self_s
        self_by_layer[name.split(".", 1)[0]] += self_s
        calls[name] += 1
        if in_solve[i]:
            calls_in_solve[name] += 1

    c = tracer.counters
    iters = c["solver.iterations"]
    per_iter = (lambda k: calls_in_solve[k] / iters) if iters else (lambda k: 0.0)
    prox_in_solve = calls_in_solve["penalty.prox"]
    read_s = sum(v for k, v in total.items() if k.startswith("io_formats.") and k.endswith("_read"))
    write_s = sum(v for k, v in total.items() if k.startswith("io_formats.") and k.endswith("_write"))

    metrics = {
        "solver.iterations": (iters, "count"),
        "linalg.svd.calls": (calls["linalg.svd"], "count"),
        "linalg.svd.calls_per_iter": (per_iter("linalg.svd"), "count"),
        "linalg.svd.s": (total["linalg.svd"], "s"),
        "linalg.svd.gflop_computed": (c["linalg.svd.flop"] / 1e9, "Gflop"),
        "linalg.as_matrix.calls_per_iter": (per_iter("linalg.as_matrix"), "count"),
        "penalty.prox.calls": (calls["penalty.prox"], "count"),
        "penalty.prox.self_s": (self_by_name["penalty.prox"], "s"),
        "solver.line_search.rejections": (prox_in_solve - iters, "count"),
        "solver.line_search.accept_ratio": (iters / prox_in_solve if prox_in_solve else 0.0, "ratio"),
        "solver.mu_resets": (c["solver.mu_resets"], "count"),
        "losses.value.calls_per_iter": (per_iter("losses.value"), "count"),
        "losses.residuals.calls_per_iter": (per_iter("losses.residuals"), "count"),
        "losses.value.s": (total["losses.value"], "s"),
        "losses.gradient.s": (total["losses.gradient"], "s"),
        "experiments.build_trial_data.s": (total["experiments.build_trial_data"], "s"),
        "svt.svt_solve.s": (total["svt.svt_solve"], "s"),
        "svt.iterations": (c["svt.iterations"], "count"),
        "io_formats.read.s": (read_s, "s"),
        "io_formats.write.s": (write_s, "s"),
        "io_formats.bytes_read": (c["io_formats.bytes_read"], "B"),
        "io_formats.bytes_written": (c["io_formats.bytes_written"], "B"),
        "io_formats.write_MB_per_s": (
            c["io_formats.bytes_written"] / 1e6 / write_s if write_s else 0.0,
            "MB/s",
        ),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_by_layer[layer], "s")
    metrics["trace.spans"] = (n, "count")
    return metrics
