import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spglr import io_formats
from spglr.experiments import GmmNoiseParams, TrialSpec
from spglr.io_formats import (
    ConfigError,
    config_read,
    mask_csv_read,
    mask_csv_write,
    matrix_csv_read,
    matrix_csv_write,
    pgm_read,
    pgm_write,
    results_csv_write,
    trace_csv_read,
    trace_csv_write,
    TRACE_COLUMNS,
)
from spglr.losses import MaskedData
from spglr.solver import IterationRecord, SolverConfig
from spglr.svt import SvtConfig, svt_solve

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


# ---------------------------------------------------------------------------
# matrix CSV


def test_matrix_csv_scalar_round_trip():
    assert matrix_csv_write(np.array([[2.5]])) == "2.5\n"
    assert matrix_csv_read("2.5\n").tolist() == [[2.5]]


def test_matrix_csv_identity_bit_exact():
    X = np.eye(2)
    assert np.array_equal(matrix_csv_read(matrix_csv_write(X)), X)


def test_matrix_csv_random_bit_exact():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 40)) * np.exp(rng.uniform(-30, 30, (50, 40)))
    assert np.array_equal(matrix_csv_read(matrix_csv_write(X)), X)


@given(hnp.arrays(np.float64, (3, 4), elements=finite_floats))
@settings(max_examples=50, deadline=None)
def test_matrix_csv_round_trip_property(X):
    assert np.array_equal(matrix_csv_read(matrix_csv_write(X)), X)


# The writers' byte contract: each real is repr(float(v)) of its float64.
HARD_REALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, -3.3e-320,
              2.2250738585072014e-308, 1e16, 1e-5, 1e22, 1.7976931348623157e308,
              -1.7976931348623157e308, 0.1, 1 / 3, 9007199254740993.0, 123456789.0]


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def reference_matrix_csv(X):
    return "\n".join(",".join(repr(float(v)) for v in row) for row in X) + "\n"


def reference_mask_csv(data):
    lines = [f"{int(i)},{int(j)},{repr(float(v))}"
             for i, j, v in zip(data.row_idx, data.col_idx, data.values)]
    return "\n".join(["i,j,value", *lines]) + "\n"


def hard_matrix(rng, shape):
    """HARD_REALS first, then finite doubles drawn as random bit patterns."""
    patterns = rng.integers(0, 2**64, size=shape[0] * shape[1], dtype=np.uint64)
    X = patterns.view(np.float64)
    X = np.where(np.isfinite(X), X, 1.5)
    X[: len(HARD_REALS)] = HARD_REALS
    return X.reshape(shape)


# 70 x 70 gives mask_csv_write more than one batch of triplets.
@pytest.mark.parametrize("shape", [(6, 7), (1, 40), (40, 1), (70, 70)])
def test_writers_match_per_element_repr_and_read_back_bit_exact(shape):
    rng = np.random.default_rng(sum(shape))
    X = hard_matrix(rng, shape)
    text = matrix_csv_write(X)
    assert text == reference_matrix_csv(X)
    assert np.array_equal(bits(matrix_csv_read(text)), bits(X))

    m, n = shape
    order = rng.permutation(m * n)
    data = MaskedData(m, n, order // n, order % n, X.ravel()[order])
    text = mask_csv_write(data)
    assert text == reference_mask_csv(data)
    back = mask_csv_read(text, m, n)
    assert back.row_idx.tolist() == data.row_idx.tolist()
    assert back.col_idx.tolist() == data.col_idx.tolist()
    assert np.array_equal(bits(back.values), bits(data.values))


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                  elements=finite_floats))
@settings(max_examples=100, deadline=None)
def test_matrix_csv_write_matches_per_element_repr(X):
    assert matrix_csv_write(X) == reference_matrix_csv(X)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_matrix_csv_write_rejects_non_finite(bad):
    X = np.ones((3, 2))
    X[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        matrix_csv_write(X)


def test_matrix_csv_errors():
    with pytest.raises(ValueError, match="columns"):
        matrix_csv_read("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="non-numeric"):
        matrix_csv_read("1.0,zebra\n")
    with pytest.raises(ValueError, match="empty"):
        matrix_csv_read("\n\n")


# ---------------------------------------------------------------------------
# mask CSV


def make_mask(rng, m=9, n=7, count=20):
    flat = np.sort(rng.choice(m * n, count, replace=False))
    return MaskedData(m, n, flat // n, flat % n, rng.standard_normal(count))


def test_mask_csv_single_triplet():
    data = MaskedData(3, 3, np.array([1]), np.array([2]), np.array([1.25]))
    text = mask_csv_write(data)
    assert text.splitlines()[0] == "i,j,value"
    back = mask_csv_read(text, 3, 3)
    assert back.row_idx.tolist() == [1] and back.col_idx.tolist() == [2]
    assert back.values.tolist() == [1.25]


def test_mask_csv_round_trip_set_equality():
    rng = np.random.default_rng(1)
    data = make_mask(rng)
    back = mask_csv_read(mask_csv_write(data), data.rows, data.cols)
    orig = {(i, j): v for i, j, v in zip(data.row_idx, data.col_idx, data.values)}
    rt = {(i, j): v for i, j, v in zip(back.row_idx, back.col_idx, back.values)}
    assert orig == rt


def test_mask_csv_rejects_empty_and_bad_rows():
    with pytest.raises(ValueError, match="no observations"):
        mask_csv_read("i,j,value\n", 3, 3)
    with pytest.raises(ValueError, match="header"):
        mask_csv_read("a,b,c\n0,0,1.0\n", 3, 3)
    with pytest.raises(ValueError, match="out of range"):
        mask_csv_read("i,j,value\n5,0,1.0\n", 3, 3)
    with pytest.raises(ValueError, match="duplicate"):
        mask_csv_read("i,j,value\n0,0,1.0\n0,0,2.0\n", 3, 3)
    with pytest.raises(ValueError, match="bad token"):
        mask_csv_read("i,j,value\n0,0,fish\n", 3, 3)


@pytest.mark.parametrize("seed", range(6))
def test_mask_csv_read_rejects_one_repeated_line_in_shuffled_triplets(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    count = int(rng.integers(1, m * n + 1))
    order = rng.permutation(m * n)[:count]
    lines = [f"{p // n},{p % n},{float(v)!r}"
             for p, v in zip(order.tolist(), rng.standard_normal(count))]
    text = "\n".join(["i,j,value", *lines]) + "\n"
    assert mask_csv_read(text, m, n).flat_idx.tolist() == order.tolist()
    lines.insert(int(rng.integers(0, count + 1)), lines[int(rng.integers(0, count))])
    with pytest.raises(ValueError, match=r"^duplicate observed positions$"):
        mask_csv_read("\n".join(["i,j,value", *lines]) + "\n", m, n)


# ---------------------------------------------------------------------------
# PGM


def test_pgm_single_white_pixel():
    img = pgm_read(b"P5\n1 1\n255\n\xff")
    assert img.shape == (1, 1) and img[0, 0] == 1.0


def test_pgm_zero_image_exact_round_trip():
    X = np.zeros((4, 6))
    assert np.array_equal(pgm_read(pgm_write(X)), X)


def test_pgm_quantization_bound():
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 1, (16, 23))
    back = pgm_read(pgm_write(X))
    assert back.shape == X.shape
    assert np.max(np.abs(back - X)) <= 1.0 / 510.0


@given(hnp.arrays(np.float64, (5, 5), elements=st.floats(0.0, 1.0)))
@settings(max_examples=50, deadline=None)
def test_pgm_quantization_property(X):
    back = pgm_read(pgm_write(X))
    assert np.max(np.abs(back - X)) <= 1.0 / 510.0


def test_pgm_ascii_variant_with_comments():
    text = b"P2\n# a comment\n3 2\n# another\n4\n0 1 2\n3 4 0\n"
    img = pgm_read(text)
    assert img.shape == (2, 3)
    assert img[0, 1] == pytest.approx(0.25)
    assert img[1, 1] == 1.0


def test_pgm_sixteen_bit_read():
    payload = (np.array([0, 32768], dtype=">u2")).tobytes()
    img = pgm_read(b"P5\n2 1\n65535\n" + payload)
    assert img[0, 1] == pytest.approx(32768 / 65535)


def test_pgm_malformed_inputs():
    with pytest.raises(ValueError, match="magic"):
        pgm_read(b"P6\n1 1\n255\n\x00")
    with pytest.raises(ValueError, match="truncated"):
        pgm_read(b"P5\n2 2\n255\n\x00\x00")
    with pytest.raises(ValueError, match="maxval"):
        pgm_read(b"P5\n1 1\n0\n\x00")
    with pytest.raises(ValueError, match="truncated"):
        pgm_read(b"P5\n2 2")
    with pytest.raises(ValueError, match="malformed PGM header field b'x'"):
        pgm_read(b"P5\nx 1\n255\n\x00")
    with pytest.raises(ValueError, match="bad PGM dimensions 0x1"):
        pgm_read(b"P5\n0 1\n255\n")
    with pytest.raises(ValueError, match="truncated PGM payload: 3 of 4 pixels"):
        pgm_read(b"P2\n2 2\n255\n0 1 2\n")
    with pytest.raises(ValueError, match="exceeds maxval"):
        pgm_read(b"P2\n1 1\n4\n9\n")


@pytest.mark.parametrize("payload, message", [
    (b"-5 10", r"PGM sample b'-5' is not an integer in \[0, 255\]"),
    (b"0 1.5", r"PGM sample b'1.5' is not an integer in \[0, 255\]"),
    (b"0 +7", r"PGM sample b'\+7' is not an integer"),
    (b"256 0", "PGM sample 256 exceeds maxval 255"),
], ids=["negative", "fraction", "signed", "above_maxval"])
def test_pgm_ascii_sample_outside_0_maxval_or_not_an_integer(payload, message):
    with pytest.raises(ValueError, match=message):
        pgm_read(b"P2\n2 1\n255\n" + payload + b"\n")


def test_pgm_write_clamps():
    X = np.array([[-0.5, 2.0]])
    back = pgm_read(pgm_write(X))
    assert back[0, 0] == 0.0 and back[0, 1] == 1.0


# ---------------------------------------------------------------------------
# trace CSV


def sample_records():
    return [
        IterationRecord(0, 10.0, 1.0, 5.5, 6.25, 5.125, 0.125, 3, False),
        IterationRecord(1, 10.0 / 2**1.5, 0.5, 5.0, 5.5, 4.75, 0.06251, 2, True),
    ]


def test_trace_csv_round_trip():
    records = sample_records()
    text = trace_csv_write(records)
    assert text.splitlines()[0] == ",".join(TRACE_COLUMNS)
    back = trace_csv_read(text)
    assert back == records


def test_trace_csv_header_and_flag_errors():
    with pytest.raises(ValueError, match="header"):
        trace_csv_read("k,mu\n")
    text = trace_csv_write(sample_records()).replace("true", "yes")
    with pytest.raises(ValueError, match="mu_reset"):
        trace_csv_read(text)


def test_trace_columns_are_iteration_record_fields():
    assert TRACE_COLUMNS == tuple(f.name for f in fields(IterationRecord))


def test_trace_cells_follow_declared_field_types():
    # SVT records its step as gamma_k; an integer step still writes a float
    data = MaskedData(2, 2, np.array([0, 1]), np.array([0, 1]), np.array([1.0, 2.0]))
    records = svt_solve(data, SvtConfig(step=1, max_iter=2)).trace
    assert type(records[0].gamma_k) is int
    rows = [line.split(",") for line in trace_csv_write(records).splitlines()[1:]]
    col = TRACE_COLUMNS.index("gamma_k")
    assert [row[col] for row in rows] == ["1.0"] * len(records)
    back = trace_csv_read(trace_csv_write(records))
    assert all(type(rec.gamma_k) is float for rec in back)


def trace_with_blank_line(last_row):
    """A two-record trace with a blank line before its second record,
    which `last_row` rewrites; that record sits on physical line 4."""
    header, first, second = trace_csv_write(sample_records()).splitlines()
    return "\n".join([header, "", first, last_row(second)]) + "\n"


@pytest.mark.parametrize(
    "read, text, message",
    [
        (matrix_csv_read, "1.0,2.0\n\n3.0,4.0\n5.0\n", "line 4: expected 2 columns, got 1"),
        (matrix_csv_read, "1.0,2.0\n\n3.0,4.0\n5.0,x\n", "line 4: non-numeric token"),
        (
            lambda text: mask_csv_read(text, 3, 3),
            "i,j,value\n\n0,0,1.0\n1,1\n",
            "line 4: expected 3 columns, got 2",
        ),
        (
            lambda text: mask_csv_read(text, 3, 3),
            "i,j,value\n\n0,0,1.0\n1,1,x\n",
            "line 4: bad token",
        ),
        (
            trace_csv_read,
            trace_with_blank_line(lambda row: row.rsplit(",", 1)[0]),
            f"line 4: expected {len(TRACE_COLUMNS)} columns, got {len(TRACE_COLUMNS) - 1}",
        ),
        (
            trace_csv_read,
            trace_with_blank_line(lambda row: row.replace("true", "yes")),
            "line 4: bad mu_reset flag 'yes'",
        ),
        (
            trace_csv_read,
            trace_with_blank_line(lambda row: "x" + row[row.index(","):]),
            "line 4: bad k value 'x'",
        ),
        (
            trace_csv_read,
            trace_with_blank_line(lambda row: ",".join(["1", "ten", *row.split(",")[2:]])),
            "line 4: bad mu_k value 'ten'",
        ),
    ],
    ids=[
        "matrix_width", "matrix_token", "mask_width", "mask_token",
        "trace_width", "trace_flag", "trace_int", "trace_float",
    ],
)
def test_csv_readers_name_the_physical_line_of_a_bad_row(read, text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        read(text)


def test_results_csv_columns():
    # the header is the rows' keys, in order; a row with other keys is refused
    rows = [{"solver": "spg", "mu0": 10.0, "m": 8}, {"solver": "svt", "mu0": math.inf, "m": 9}]
    assert results_csv_write(rows) == "solver,mu0,m\nspg,10.0,8\nsvt,inf,9\n"
    for other in ({"solver": "svt", "mu0": 1.0}, {"mu0": 1.0, "solver": "svt", "m": 9}):
        with pytest.raises(ValueError, match="differ from the header"):
            results_csv_write([rows[0], other])
    with pytest.raises(ValueError, match="at least one row"):
        results_csv_write([])


# ---------------------------------------------------------------------------
# config


MINIMAL = '{"m": 8, "n": 6, "r": 2, "sr": 0.8}'


def test_config_minimal_applies_defaults():
    cfg = config_read(MINIMAL)
    assert cfg.solver.mu0 == 10.0
    assert cfg.solver.alpha == 0.8
    assert cfg.solver.lam == 0.1
    assert cfg.solver.nu == 0.05
    assert cfg.solver.max_iter == 500
    assert cfg.solver == SolverConfig()
    assert cfg.trial.m == 8 and cfg.trial.n == 6
    assert cfg.trial.noise.c == 0.0
    assert cfg.solver_choice == "spg"


def test_config_alpha_inf():
    cfg = config_read('{"m": 4, "n": 4, "r": 1, "sr": 1.0, "alpha": "inf"}')
    assert math.isinf(cfg.solver.alpha)


def test_config_negative_nu_names_key():
    with pytest.raises(ConfigError, match='"nu"'):
        config_read('{"m": 4, "n": 4, "r": 1, "sr": 1.0, "nu": -0.5}')


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        config_read('{"m": 4, "n": 4, "r": 1, "sr": 1.0, "typo_key": 3}')
    # the removed backtracking bounds are unknown keys; the first in sorted
    # order is named
    for extra, key in [
        ('"gamma_lo": 9.0', "gamma_lo"),
        ('"gamma_hi": 1.0', "gamma_hi"),
        ('"gamma_lo": 9.0, "gamma_hi": 1.0', "gamma_hi"),
    ]:
        with pytest.raises(ConfigError, match=f'^unknown config key "{key}"$'):
            config_read('{"m": 4, "n": 4, "r": 1, "sr": 0.5, %s}' % extra)


def test_config_missing_required_key():
    with pytest.raises(ConfigError, match='"sr"'):
        config_read('{"m": 4, "n": 4, "r": 1}')


def test_config_rank_bound_checked():
    with pytest.raises(ConfigError, match='"r"'):
        config_read('{"m": 4, "n": 4, "r": 9, "sr": 0.5}')


# One row per config key: a value of the wrong type, then a value of the
# right type outside the key's range. max_iter 2.5, alpha "huge", c 1.2 and
# solver "magic" are the cases test_config_bad_types_and_values held.
KEY_CASES = {
    "mu0": ("10", math.inf),
    "alpha": ("huge", -1.0),
    "sigma_exp": (None, 1.0),
    "lambda": ("x", math.nan),
    "nu": ("0.05", -0.5),
    "max_iter": (2.5, 0),
    "step_tol": ("1e-6", 0.0),
    "mu_stop": (False, -1e-6),
    "seed": ("3", -1),
    "var_a": ("x", -1.0),
    "var_b": ("x", math.inf),
    "c": ("x", 1.2),
    "m": (8.0, 0),
    "n": (True, 0),
    "r": ("2", 9),
    "sr": ("x", 0.0),
    "solver": (3, "magic"),
}


def build_owner(field, value):
    """Give `value` to the dataclass that owns `field`, as the codec does."""
    if field in {f.name for f in fields(SolverConfig)}:
        SolverConfig(**{field: value})
    elif field in {f.name for f in fields(GmmNoiseParams)}:
        GmmNoiseParams(**{field: value})
    else:
        TrialSpec(**{"m": 8, "n": 6, "r": 2, "sr": 0.8, field: value}, noise=GmmNoiseParams())


@pytest.mark.parametrize("key", sorted([*io_formats._KEY_FIELDS, "solver"]))
def test_config_key_type_and_range(key):
    values = list(KEY_CASES[key])
    if key in io_formats._KEY_FIELDS and io_formats._KEY_FIELDS[key].type is float:
        values.append(10**400)  # an integer beyond the float range
    for value in values:
        with pytest.raises(ConfigError, match=f'^"{key}": ') as from_codec:
            config_read(MINIMAL, {key: value})
        if key == "solver":
            continue  # the solver choice is the codec's own key
        field = "lam" if key == "lambda" else key
        with pytest.raises(ValueError, match=f"^{field} ") as from_owner:
            build_owner(field, value)
        # the codec states no rule of its own: it only puts the key in front
        assert str(from_codec.value) == f'"{key}": ' + str(from_owner.value).split(" ", 1)[1]
        if value == 10**400:
            assert str(from_codec.value) == f'"{key}": must be finite'


def test_config_bad_types_and_values():
    with pytest.raises(ConfigError, match="invalid JSON"):
        config_read("{nope")
    with pytest.raises(ConfigError, match="JSON object"):
        config_read("[1, 2]")


def test_config_svt_choice():
    cfg = config_read('{"m": 4, "n": 4, "r": 1, "sr": 0.5, "solver": "svt"}')
    assert cfg.solver_choice == "svt"


def test_config_overrides_apply_before_validation():
    cfg = config_read(MINIMAL, {"lambda": 0.5, "alpha": "inf"})
    assert cfg.solver.lam == 0.5 and math.isinf(cfg.solver.alpha)
    with pytest.raises(ConfigError, match='"nu"'):
        config_read(MINIMAL, {"nu": -1})
    with pytest.raises(ConfigError, match="unknown config key"):
        config_read(MINIMAL, {"typo_key": 3})
