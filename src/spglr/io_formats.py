"""File formats: matrix CSV, observation triplets, PGM images, trace and
results CSV, and the JSON run configuration.

Reals are written with Python's shortest round-tripping repr, so matrix
and trace files reproduce their float64 sources bit for bit.
"""

import json
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .experiments import GmmNoiseParams, TrialSpec
from .losses import MaskedData
from .linalg import as_matrix
from .solver import IterationRecord, SolverConfig


class ConfigError(ValueError):
    """Configuration document violates the schema; message names the key."""


def _fmt(x):
    return repr(float(x))


def _csv_rows(text):
    """(line number, cells) for each non-blank line of `text`, split at
    commas and numbered by physical line. Every row must have as many
    cells as the first; a reader with a header checks it before pulling
    the next row."""
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ValueError(f"line {lineno}: expected {width} columns, got {len(cells)}")
        yield lineno, cells


# ---------------------------------------------------------------------------
# matrix CSV

def matrix_csv_write(X):
    """One row per line, comma separated, bit-exact round trip."""
    X = as_matrix(X)
    return "\n".join(",".join(map(repr, row.tolist())) for row in X) + "\n"


def matrix_csv_read(text):
    rows = []
    for lineno, cells in _csv_rows(text):
        try:
            rows.append([float(tok) for tok in cells])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-numeric token ({exc})") from None
    if not rows:
        raise ValueError("empty matrix file")
    return as_matrix(rows)


# ---------------------------------------------------------------------------
# observation triplets

MASK_HEADER = "i,j,value"


# Triplets converted to Python numbers per batch, as matrix_csv_write does
# per row, so a write never holds every entry's numbers beside its lines.
_MASK_BATCH = 4096


def mask_csv_write(data):
    lines = [MASK_HEADER]
    for start in range(0, data.values.size, _MASK_BATCH):
        batch = slice(start, start + _MASK_BATCH)
        triplets = zip(data.row_idx[batch].tolist(), data.col_idx[batch].tolist(),
                       data.values[batch].tolist())
        lines.extend(f"{i},{j},{v!r}" for i, j, v in triplets)
    return "\n".join(lines) + "\n"


def mask_csv_read(text, rows, cols):
    """Parse triplets back into MaskedData for a known shape.

    Range checks, duplicate rejection, and the at-least-one-entry rule
    are enforced by the MaskedData constructor.
    """
    lines = _csv_rows(text)
    if ",".join(next(lines, (0, ()))[1]).strip() != MASK_HEADER:
        raise ValueError(f"expected header {MASK_HEADER!r}")
    ri, ci, vals = [], [], []
    for lineno, (i, j, v) in lines:
        try:
            ri.append(int(i))
            ci.append(int(j))
            vals.append(float(v))
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
        tokens = data[pos:].split()[:count]
        if len(tokens) < count:
            raise ValueError(f"truncated PGM payload: {len(tokens)} of {count} pixels")
        for tok in tokens:
            if not tok.isdigit():
                raise ValueError(f"PGM sample {tok!r} is not an integer in [0, {maxval}]")
        pixels = np.array([int(t) for t in tokens], dtype=np.float64)
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
    over = pixels > maxval
    if np.any(over):
        raise ValueError(f"PGM sample {pixels[over][0]:.0f} exceeds maxval {maxval}")
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
    lines = _csv_rows(text)
    if tuple(next(lines, (0, ()))[1]) != TRACE_COLUMNS:
        raise ValueError("bad trace header")
    records = []
    for lineno, row in lines:
        cells = {}
        for f, cell in zip(_TRACE_FIELDS, row):
            if f.type is bool and cell not in ("true", "false"):
                raise ValueError(f"line {lineno}: bad {f.name} flag {cell!r}")
            try:
                cells[f.name] = _CELL_PARSE[f.type](cell)
            except ValueError:
                raise ValueError(f"line {lineno}: bad {f.name} value {cell!r}") from None
        records.append(IterationRecord(**cells))
    return records


# ---------------------------------------------------------------------------
# results CSV (experiment summaries)

def results_csv_write(rows):
    """One line per row dict, under a header of the first row's keys.

    Every row must have the same keys in the same order; the caller that
    builds the rows owns the columns. Floats use repr formatting.
    """
    if not rows:
        raise ValueError("results CSV needs at least one row")
    columns = list(rows[0])
    lines = [",".join(columns)]
    for row in rows:
        if list(row) != columns:
            raise ValueError(f"results row keys {list(row)} differ from the header {columns}")
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row.values()))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON configuration

# The config keys are the fields of SolverConfig (lam spelled "lambda"),
# GmmNoiseParams and TrialSpec's data fields, plus "solver". The data
# fields are TrialSpec's fields without a default, less the noise; they
# are the required keys. The codec checks each value's type against its
# field's declared type; each range belongs to the dataclass that owns
# the field.
_SPELLING = {"lam": "lambda"}
_SOLVER_FIELDS = fields(SolverConfig)
_NOISE_FIELDS = fields(GmmNoiseParams)
_DATA_FIELDS = tuple(
    f for f in fields(TrialSpec) if f.default is MISSING and f.type is not GmmNoiseParams
)
_KEY_FIELDS = {
    _SPELLING.get(f.name, f.name): f for f in _SOLVER_FIELDS + _NOISE_FIELDS + _DATA_FIELDS
}
_TYPE_RULES = {int: ((int,), "must be an integer"), float: ((int, float), "must be a number")}


@dataclass
class RunConfig:
    solver: SolverConfig
    trial: TrialSpec
    solver_choice: str


def config_read(text, overrides=None):
    """Parse and validate a JSON run configuration.

    Solver and noise keys default to their dataclass defaults; the data
    keys m, n, r, sr are required. Unknown keys are rejected. A real may
    be given as "inf" (or a JSON Infinity), which only alpha accepts.
    The optional `overrides` dict replaces keys of the parsed document
    before it is validated.
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
    unknown = sorted(set(doc) - set(_KEY_FIELDS) - {"solver"})
    if unknown:
        raise ConfigError(f'unknown config key "{unknown[0]}"')
    missing = sorted(f.name for f in _DATA_FIELDS if f.name not in doc)
    if missing:
        raise ConfigError(f'"{missing[0]}": required key is missing')


def config_from_dict(doc):
    """Validate a parsed config dict, overrides already applied.

    A ValueError from an owning dataclass starts with the field name; it
    is re-raised as a ConfigError that starts with the quoted key.
    """
    values = {
        f.name: _typed(key, f.type, doc[key]) for key, f in _KEY_FIELDS.items() if key in doc
    }

    def pick(group):
        return {f.name: values[f.name] for f in group if f.name in values}

    try:
        solver_cfg = SolverConfig(**pick(_SOLVER_FIELDS))
        noise = GmmNoiseParams(**pick(_NOISE_FIELDS))
        trial = TrialSpec(**pick(_DATA_FIELDS), noise=noise, seed=solver_cfg.seed)
    except ValueError as exc:
        name, _, rule = str(exc).partition(" ")
        raise ConfigError(f'"{_SPELLING.get(name, name)}": {rule}') from None

    solver_choice = doc.get("solver", "spg")
    if solver_choice not in ("spg", "svt"):
        raise ConfigError('"solver": must be "spg" or "svt"')
    return RunConfig(solver=solver_cfg, trial=trial, solver_choice=solver_choice)


def _typed(key, ftype, value):
    """`value` as a `ftype`; a float field also takes the string "inf"."""
    if ftype is float and isinstance(value, str) and value.strip().lower() == "inf":
        return math.inf
    accepted, rule = _TYPE_RULES[ftype]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f'"{key}": {rule}')
    try:
        return ftype(value)
    except OverflowError:
        raise ConfigError(f'"{key}": {rule} within the float range') from None
