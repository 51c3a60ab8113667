"""The column path of `fitts3d classify` against the per-Pose oracle.

fitts3d.poses reads, classifies and writes a pose file by column;
tests/pose_oracle.py keeps the per-Pose path it replaced. On every valid
file `fitts3d classify` must write the oracle's bytes and read_poses
return its Pose tuples; on every malformed file the column reader,
read_poses and the CLI must raise (or print) the oracle's error: its
type, text, line and column, for the first bad row of the file.
"""

import contextlib
import io
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fitts3d import poses, trial_io
from fitts3d.cli import main
from fitts3d.errors import ParseError, SchemaError
from pose_oracle import (BOUNDARY_ROWS, CLASSIFY_HEADER, edge_pose_rows,
                         pose_file_text, reference_classify,
                         reference_read_poses)

_EDGE_TOKENS = ("45", "-45", "135", "-135", "180", "-180.0", "360", "-360",
                "405.5", "-1000", "-0.0", "0", "1.50", "1_0", " 1.0",
                "1.0 ", "+3", "1e1", "1E-3")
_BAD_TOKENS = ("x", "", " ", "nan", "NaN", "inf", "-inf", "1e999", "1__0",
               "0x10", "1.0.0", "--1")

_finite = st.floats(allow_nan=False, allow_infinity=False)
_value = st.one_of(_finite.map(repr), st.integers(-10**6, 10**6).map(str),
                   st.sampled_from(_EDGE_TOKENS))
_width = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(repr),
    st.sampled_from(("5", "1_0", "4.00", " 2.5", "1e-3")))
_tolerance = st.one_of(st.floats(min_value=0.0, allow_infinity=False).map(repr),
                       st.sampled_from(("0", "-0.0", "2.5", "45", "7.50")))


def _valid_row():
    return st.tuples(st.lists(_value, min_size=12, max_size=12), _width,
                     _tolerance).map(lambda t: ",".join([*t[0], t[1], t[2]]))


def _bad_row():
    """A row with at least one fault: a bad token in any column, a W_cm
    <= 0, an omega_deg < 0, too few or too many fields, or a blank line."""
    faulty_field = st.tuples(st.lists(_value, min_size=14, max_size=14),
                             st.integers(0, 13), st.sampled_from(_BAD_TOKENS))
    bad_width = st.tuples(st.lists(_value, min_size=12, max_size=12),
                          st.sampled_from(("0", "-0.0", "-1", "-1e-300")), _tolerance)
    bad_tolerance = st.tuples(st.lists(_value, min_size=12, max_size=12), _width,
                              st.sampled_from(("-0.5", "-1e-300", "-90")))
    wrong_count = (st.lists(_value, min_size=1, max_size=20)
                   .filter(lambda v: len(v) != 14))
    return st.one_of(
        faulty_field.map(lambda t: ",".join(t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:])),
        bad_width.map(lambda t: ",".join([*t[0], t[1], t[2]])),
        bad_tolerance.map(lambda t: ",".join([*t[0], t[1], t[2]])),
        wrong_count.map(",".join),
        st.just(""))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("poses")


def _write(workdir, rows, newline="\n", final_newline=True):
    """workdir/poses.csv, overwritten with a pose file of rows."""
    text = pose_file_text(rows, newline)
    if not final_newline:
        text = text[:-len(newline)]
    path = workdir / "poses.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


def _outcome(fn, path):
    """("ok", repr of what fn returned), or the error's type, text, line
    and column."""
    try:
        return "ok", repr(fn(path))
    except (ParseError, SchemaError) as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))


def _classify(path):
    """(exit code, stdout, stderr) of `fitts3d classify path`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["classify", str(path)])
    return rc, out.getvalue(), err.getvalue()


def _assert_agrees(path):
    expected = _outcome(reference_read_poses, path)
    assert _outcome(trial_io.read_poses, path) == expected
    rc, out, err = _classify(path)
    if expected[0] == "ok":
        assert (rc, out, err) == (0, reference_classify(path), "")
        assert _outcome(poses.read_pose_columns, path)[0] == "ok"
    else:
        assert _outcome(poses.read_pose_columns, path) == expected
        assert (rc, out) == (1, "")
        assert err == f"error: {expected[1]}\n"


@settings(max_examples=200, deadline=None)
@given(st.lists(_valid_row(), max_size=12), st.sampled_from(("\n", "\r\n")),
       st.booleans())
# signed zeros, "1_0", a leading space, angles past 360 and values one
# millionth outside their bounds, in a CRLF file
@example(["0,0,0,0,0,0,2.5,0,0,92.5,-87.5,2.5,5.0,2.5",
          "1.50,-0.0,0,190,-180,-180.0,1.50,2.5,0,0,0,0,5,0",
          " 1.0,1_0,0,405.5,-45,135,1,10,0,45,-0.0,721.25,1_0,7.50",
          "0,0,0,0,0,0,3,4.000001,0,2.5000001,0,0,10,2.5"], "\r\n", True)
def test_valid_files_classify_as_the_oracle_does(workdir, rows, newline,
                                                 final_newline):
    path = _write(workdir, rows, newline, final_newline)
    assert _outcome(reference_read_poses, path)[0] == "ok"
    _assert_agrees(path)


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.lists(_valid_row(), max_size=4), _bad_row(),
                 st.lists(st.one_of(_valid_row(), _bad_row()), max_size=4))
       .map(lambda t: [*t[0], t[1], *t[2]])
       .filter(lambda rows: rows != [""]),  # a blank line alone ends the file
       st.sampled_from(("\n", "\r\n")))
# rows of 13 and 15 numbers, 28 fields in all
@example(["0,0,0,0,0,0,0,0,0,0,0,5,1", "0,0,0,0,0,0,0,0,0,0,0,0,0,5,1"], "\n")
# a bad number before a later field-count error, and the reverse
@example(["0,0,0,0,0,0,0,0,0,0,0,0,x,1", "1,2,3"], "\n")
@example(["1,2,3", "0,0,0,0,0,0,0,0,0,0,0,0,x,1"], "\r\n")
# non-finite values, alone and before a later fault of another kind
@example(["0,0,0,nan,0,0,0,0,0,0,0,0,5,1"], "\n")
@example(["0,0,0,0,0,0,0,0,0,0,0,0,5,1", "0,0,0,0,0,0,inf,0,0,0,0,0,5,1"], "\r\n")
@example(["0,0,0,0,0,0,0,0,0,0,0,1e999,5,1"], "\n")
# W_cm and omega_deg at and beyond their bounds, a blank line, each
# before a later fault of another kind
@example(["0,0,0,nan,0,0,0,0,0,0,0,0,5,1", "1,2"], "\n")
@example(["0,0,0,0,0,0,0,0,0,0,0,-inf,5,1", "0,0,0,0,0,0,0,0,0,0,0,0,0,1"], "\n")
@example(["0,0,0,0,0,0,0,0,0,0,0,0,1e999,1", "x"], "\n")
@example(["0,0,0,0,0,0,0,0,0,0,0,0,-0.0,1", "0,0,0,0,0,0,0,0,0,0,0,0,5,-1"], "\n")
@example(["0,0,0,0,0,0,0,0,0,0,0,0,5,-1e-300", "0,0,0,0,0,0,0,0,0,0,0,0,0,1"], "\n")
@example(["0,0,0,0,0,0,0,0,0,0,0,0,5,1", "", "0,0,0,0,0,0,0,0,0,0,0,0,5,-1"], "\r\n")
# the field checks come before W_cm and omega_deg within a row
@example(["0,0,0,0,0,0,0,0,0,0,0,0,-1,x"], "\n")
@example(["0,0,0,0,0,0,0,0,0,0,0,0,0,-1"], "\n")
def test_malformed_files_raise_the_oracles_first_error(workdir, rows, newline):
    _assert_agrees(_write(workdir, rows, newline))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_seeded_edge_files_classify_as_the_oracle_does(workdir, seed, newline):
    _assert_agrees(_write(workdir, edge_pose_rows(seed), newline))


def test_boundary_rows_count_as_successes(workdir):
    lines = _classify(_write(workdir, BOUNDARY_ROWS))[1].splitlines()
    assert lines[0] == CLASSIFY_HEADER
    assert [line[-5:] for line in lines[1:]] == ["1,1,1"] * 4 + ["0,0,0"]


def test_values_whose_sum_overflows_are_valid(workdir):
    # each finite, so no row is bad though the sum the reader checks
    # first is infinite
    path = _write(workdir, ["1e308," * 13 + "1e308", "1e308," * 12 + "5,0"])
    assert sum(v for col in poses.read_pose_columns(path) for v in col) == math.inf
    _assert_agrees(path)


@pytest.mark.parametrize("text", ["", "ox,oy\n", "\n" + pose_file_text([])])
def test_bad_headers_raise_the_oracles_schema_error(tmp_path, text):
    path = tmp_path / "poses.csv"
    path.write_text(text, encoding="utf-8")
    assert _outcome(reference_read_poses, path)[0] is SchemaError
    _assert_agrees(path)


def test_header_only_file_has_empty_columns(workdir):
    path = _write(workdir, [])
    assert poses.read_pose_columns(path) == [[] for _ in poses.POSE_COLUMNS]
    _assert_agrees(path)
