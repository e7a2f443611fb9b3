"""File formats: matrix CSV, observation triplets, PGM images, trace and
results CSV, and the JSON run configuration.

Reals are written with Python's shortest round-tripping repr, so matrix
and trace files reproduce their float64 sources bit for bit.
"""

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .experiments import GmmNoiseParams, TrialSpec
from .losses import MaskedData
from .linalg import as_matrix
from .solver import IterationRecord, SolverConfig


class ConfigError(ValueError):
    """Configuration document violates the schema; message names the key."""


def _fmt(x):
    return repr(float(x))


# ---------------------------------------------------------------------------
# matrix CSV

def matrix_csv_write(X):
    """One row per line, comma separated, bit-exact round trip."""
    X = as_matrix(X)
    return "\n".join(",".join(_fmt(v) for v in row) for row in X) + "\n"


def matrix_csv_read(text):
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split(",")
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise ValueError(
                f"line {lineno}: expected {width} columns, got {len(tokens)}"
            )
        try:
            rows.append([float(tok) for tok in tokens])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-numeric token ({exc})") from None
    if not rows:
        raise ValueError("empty matrix file")
    return as_matrix(rows)


# ---------------------------------------------------------------------------
# observation triplets

MASK_HEADER = "i,j,value"


def mask_csv_write(data):
    lines = [MASK_HEADER]
    for i, j, v in zip(data.row_idx, data.col_idx, data.values):
        lines.append(f"{int(i)},{int(j)},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def mask_csv_read(text, rows, cols):
    """Parse triplets back into MaskedData for a known shape.

    Range checks, duplicate rejection, and the at-least-one-entry rule
    are enforced by the MaskedData constructor.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != MASK_HEADER:
        raise ValueError(f"expected header {MASK_HEADER!r}")
    ri, ci, vals = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split(",")
        if len(tokens) != 3:
            raise ValueError(f"line {lineno}: expected 3 columns, got {len(tokens)}")
        try:
            ri.append(int(tokens[0]))
            ci.append(int(tokens[1]))
            vals.append(float(tokens[2]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad token ({exc})") from None
    if not ri:
        raise ValueError("mask file contains no observations")
    return MaskedData(rows, cols, np.array(ri), np.array(ci), np.array(vals))


# ---------------------------------------------------------------------------
# PGM images

def pgm_write(X):
    """Binary 8-bit PGM; pixels are round(255 * clamp(x, 0, 1))."""
    X = as_matrix(X)
    pixels = np.rint(255.0 * np.clip(X, 0.0, 1.0)).astype(np.uint8)
    header = f"P5\n{X.shape[1]} {X.shape[0]}\n255\n".encode("ascii")
    return header + pixels.tobytes()


def pgm_read(data):
    """Read P2 or P5 PGM into a matrix scaled to [0, 1]."""
    magic, pos = _pgm_token(data, 0)
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"not a PGM file (magic {magic!r})")
    fields = []
    for _ in range(3):
        tok, pos = _pgm_token(data, pos)
        try:
            fields.append(int(tok))
        except ValueError:
            raise ValueError(f"malformed PGM header field {tok!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ValueError(f"bad PGM dimensions {width}x{height}")
    if not 0 < maxval <= 65535:
        raise ValueError(f"bad PGM maxval {maxval}")
    count = width * height
    if magic == b"P2":
        tokens = data[pos:].split()
        if len(tokens) < count:
            raise ValueError(f"truncated PGM payload: {len(tokens)} of {count} pixels")
        pixels = np.array([int(t) for t in tokens[:count]], dtype=np.float64)
    else:
        pos += 1  # single whitespace byte after maxval
        bytes_per = 1 if maxval < 256 else 2
        payload = data[pos : pos + count * bytes_per]
        if len(payload) < count * bytes_per:
            raise ValueError(
                f"truncated PGM payload: {len(payload)} of {count * bytes_per} bytes"
            )
        dtype = np.uint8 if bytes_per == 1 else np.dtype(">u2")
        pixels = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    if np.any(pixels > maxval):
        raise ValueError("PGM pixel exceeds maxval")
    return (pixels / maxval).reshape(height, width)


def _pgm_token(data, pos):
    """Next whitespace-delimited header token, skipping # comments."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise ValueError("truncated PGM header")
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


# ---------------------------------------------------------------------------
# trace CSV

# The columns are IterationRecord's fields, in order. Each cell is written
# and parsed by its field's declared type, whatever the value's own type.
_TRACE_FIELDS = fields(IterationRecord)
TRACE_COLUMNS = tuple(f.name for f in _TRACE_FIELDS)
_CELL_FORMAT = {int: str, float: _fmt, bool: lambda flag: "true" if flag else "false"}
_CELL_PARSE = {int: int, float: float, bool: lambda token: token == "true"}


def trace_csv_write(records):
    lines = [",".join(TRACE_COLUMNS)]
    for rec in records:
        cells = (_CELL_FORMAT[f.type](getattr(rec, f.name)) for f in _TRACE_FIELDS)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def trace_csv_read(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != ",".join(TRACE_COLUMNS):
        raise ValueError("bad trace header")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        tok = line.split(",")
        if len(tok) != len(TRACE_COLUMNS):
            raise ValueError(f"line {lineno}: expected {len(TRACE_COLUMNS)} columns")
        cells = {}
        for f, cell in zip(_TRACE_FIELDS, tok):
            if f.type is bool and cell not in ("true", "false"):
                raise ValueError(f"line {lineno}: bad {f.name} flag {cell!r}")
            cells[f.name] = _CELL_PARSE[f.type](cell)
        records.append(IterationRecord(**cells))
    return records


# ---------------------------------------------------------------------------
# results CSV (experiment summaries)

RESULTS_COLUMNS = (
    "solver",
    "mu0",
    "alpha",
    "m",
    "n",
    "r",
    "sr",
    "trials",
    "mean_rmse",
    "median_rmse",
    "mean_iterations",
    "mean_runtime_s",
)


def results_csv_write(rows):
    """Rows are dicts keyed by RESULTS_COLUMNS; floats use repr formatting."""
    lines = [",".join(RESULTS_COLUMNS)]
    for row in rows:
        cells = []
        for col in RESULTS_COLUMNS:
            v = row[col]
            cells.append(_fmt(v) if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON configuration

# Config keys are SolverConfig's fields, with lam spelled "lambda".
_SOLVER_DEFAULTS = {
    "lambda" if f.name == "lam" else f.name: f.default for f in fields(SolverConfig)
}
_DATA_KEYS = ("m", "n", "r", "sr")
_NOISE_DEFAULTS = {"var_a": 0.0, "var_b": 0.0, "c": 0.0}
_ALL_KEYS = (
    set(_SOLVER_DEFAULTS) | set(_DATA_KEYS) | set(_NOISE_DEFAULTS) | {"solver"}
)


@dataclass
class RunConfig:
    solver: SolverConfig
    trial: TrialSpec
    solver_choice: str


def config_read(text, overrides=None):
    """Parse and validate a JSON run configuration.

    Solver and noise keys have documented defaults; the data keys m, n,
    r, sr are required. Unknown keys are rejected. "inf" (or a JSON
    Infinity) is accepted for alpha. The optional `overrides` dict
    replaces keys of the parsed document before it is validated.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    doc.update(overrides or {})
    check_config_keys(doc)
    return config_from_dict(doc)


def check_config_keys(doc):
    """Reject unknown keys and report missing required data keys."""
    unknown = sorted(set(doc) - _ALL_KEYS)
    if unknown:
        raise ConfigError(f'unknown config key "{unknown[0]}"')
    missing = sorted(k for k in _DATA_KEYS if k not in doc)
    if missing:
        raise ConfigError(f'"{missing[0]}": required key is missing')


def config_from_dict(doc):
    """Validate a parsed config dict, overrides already applied."""
    m = _as_int(doc, "m", minimum=1)
    n = _as_int(doc, "n", minimum=1)
    r = _as_int(doc, "r", minimum=1)
    if r > min(m, n):
        raise ConfigError('"r": must not exceed min(m, n)')
    sr = _as_number(doc, "sr", None)
    if not 0 < sr <= 1:
        raise ConfigError('"sr": must lie in (0, 1]')

    solver_cfg = SolverConfig(
        mu0=_positive(doc, "mu0"),
        alpha=_parse_alpha(doc.get("alpha", _SOLVER_DEFAULTS["alpha"])),
        rho=_positive(doc, "rho", strict_above=1.0),
        sigma_exp=_positive(doc, "sigma_exp", strict_above=1.0),
        gamma_lo=_positive(doc, "gamma_lo"),
        gamma_hi=_positive(doc, "gamma_hi"),
        lam=_positive(doc, "lambda"),
        nu=_positive(doc, "nu"),
        max_iter=_as_int(doc, "max_iter", minimum=1),
        step_tol=_positive(doc, "step_tol"),
        mu_stop=_positive(doc, "mu_stop"),
        seed=_as_int(doc, "seed"),
    )
    if solver_cfg.gamma_lo > solver_cfg.gamma_hi:
        raise ConfigError('"gamma_lo": must not exceed gamma_hi')

    var_a = _as_number(doc, "var_a", _NOISE_DEFAULTS["var_a"])
    var_b = _as_number(doc, "var_b", _NOISE_DEFAULTS["var_b"])
    c = _as_number(doc, "c", _NOISE_DEFAULTS["c"])
    if var_a < 0:
        raise ConfigError('"var_a": must be nonnegative')
    if var_b < 0:
        raise ConfigError('"var_b": must be nonnegative')
    if not 0 <= c <= 1:
        raise ConfigError('"c": must lie in [0, 1]')
    noise = GmmNoiseParams(var_a=var_a, var_b=var_b, c=c)

    solver_choice = doc.get("solver", "spg")
    if solver_choice not in ("spg", "svt"):
        raise ConfigError('"solver": must be "spg" or "svt"')

    trial = TrialSpec(m=m, n=n, r=r, sr=sr, noise=noise, seed=solver_cfg.seed)
    return RunConfig(solver=solver_cfg, trial=trial, solver_choice=solver_choice)


def _parse_alpha(value):
    if isinstance(value, str):
        if value.strip().lower() == "inf":
            return math.inf
        raise ConfigError('"alpha": must be a positive number or "inf"')
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError('"alpha": must be a positive number or "inf"')
    if math.isnan(value) or value <= 0:
        raise ConfigError('"alpha": must be a positive number or "inf"')
    return float(value)


def _as_number(doc, key, default):
    if key not in doc:
        if default is None:
            raise ConfigError(f'"{key}": required key is missing')
        return default
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f'"{key}": must be a number')
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(f'"{key}": must be finite')
    return float(v)


def _as_int(doc, key, minimum=None):
    if key not in doc:
        if key in _SOLVER_DEFAULTS:
            return _SOLVER_DEFAULTS[key]
        raise ConfigError(f'"{key}": required key is missing')
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f'"{key}": must be an integer')
    if minimum is not None and v < minimum:
        raise ConfigError(f'"{key}": must be at least {minimum}')
    return v


def _positive(doc, key, strict_above=0.0):
    v = _as_number(doc, key, _SOLVER_DEFAULTS[key])
    if not v > strict_above:
        bound = "positive" if strict_above == 0.0 else f"greater than {strict_above:g}"
        raise ConfigError(f'"{key}": must be {bound}')
    return v
