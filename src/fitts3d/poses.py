"""Pose-pair files and the per-value success rules that classify them.

Pose file format: UTF-8, comma separated, `.` decimal point, this header:

    ox,oy,oz,orx,ory,orz,tx,ty,tz,trx,try,trz,W_cm,omega_deg

object position and per-axis rotation, target position and rotation,
then the target width W_cm (> 0) and the rotational tolerance omega_deg
(>= 0); every value finite. read_pose_columns parses a file into its 14
columns of floats, and classified_csv classifies them, one column at a
time, into the text `fitts3d classify` writes: the 14 values in
shortest round-trip form, rotations wrapped to (-180, 180], then
trans_success,rot_success,combined_success.

The rules are stated once, per value: wrap_angle_deg,
symmetry_reduced_delta_deg, translation_ok (the W/2 test) and
rotation_ok (the omega test). tasks classifies Pose objects with them.
trial_io builds its Pose tuples from read_pose_columns and reads trial
logs with this module's _read_lines and _parse_float. This module
imports only math and errors, so the classify verb loads no tasks.
"""

import math

from .errors import ParseError, SchemaError

POSE_COLUMNS = ("ox", "oy", "oz", "orx", "ory", "orz",
                "tx", "ty", "tz", "trx", "try", "trz",
                "W_cm", "omega_deg")
POSE_CSV_HEADER = ",".join(POSE_COLUMNS)
CLASSIFIED_CSV_HEADER = (POSE_CSV_HEADER
                         + ",trans_success,rot_success,combined_success")

# A cube looks identical under quarter turns about each of its axes, so
# rotational error is only meaningful modulo 90 degrees per axis.
ROTATION_SYMMETRY_DEG = 90.0

# the positions in POSE_COLUMNS of the six rotation columns
_ROTATION_COLUMNS = (3, 4, 5, 9, 10, 11)
# the flag columns of classified_csv, by (translation, rotation) outcome
_FLAGS = {(True, True): "1,1,1", (True, False): "1,0,0",
          (False, True): "0,1,0", (False, False): "0,0,0"}


def wrap_angle_deg(angle: float) -> float:
    """Wrap an angle in degrees to the half-open interval (-180, 180]."""
    r = math.fmod(angle, 360.0)
    if r <= -180.0:
        r += 360.0
    elif r > 180.0:
        r -= 360.0
    return r


def symmetry_reduced_delta_deg(delta: float) -> float:
    """Reduce an angular difference modulo the quarter-turn symmetry of a
    cube to the interval [-45, 45].

    Any of the four rotations that leave a cube looking the same counts
    as aligned, so only the residual within +-45 degrees matters.
    """
    r = math.fmod(delta, ROTATION_SYMMETRY_DEG)
    if r > 45.0:
        r -= ROTATION_SYMMETRY_DEG
    elif r < -45.0:
        r += ROTATION_SYMMETRY_DEG
    return r


def translation_ok(obj_position, target_position, W: float) -> bool:
    """The object centre lies within W/2 of the target centre (at least
    50 percent overlap). Boundary counts."""
    return math.dist(obj_position, target_position) <= W / 2.0


def rotation_ok(obj_rotation, target_rotation, omega: float) -> bool:
    """On every axis the symmetry-reduced angular difference is within
    omega. Boundary counts."""
    return all(abs(symmetry_reduced_delta_deg(t_i - o_i)) <= omega
               for o_i, t_i in zip(obj_rotation, target_rotation))


def _parse_float(token: str, line_no: int, column: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line_no, f"not a number: {token!r}", column=column) from None
    if not math.isfinite(value):
        raise ParseError(line_no, f"not finite: {token!r}", column=column)
    return value


def _read_lines(path, expected_header: str):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # trailing newline
    if not lines:
        raise SchemaError("empty file: missing header")
    header = lines[0].rstrip("\r")
    if header != expected_header:
        raise SchemaError(
            f"unrecognized header {header!r}; expected {expected_header!r}")
    return lines


def _check_pose_rows(rows) -> None:
    """Raise the ParseError of the first bad row of rows (a pose file's
    data lines), checking one row at a time: the field count, then each
    field left to right, then W_cm, then omega_deg. Returns if no row
    is bad."""
    for line_no, raw in enumerate(rows, start=2):
        row = raw.rstrip("\r").split(",")
        if len(row) != len(POSE_COLUMNS):
            raise ParseError(line_no,
                             f"expected {len(POSE_COLUMNS)} fields, got {len(row)}")
        vals = [_parse_float(token, line_no, col)
                for col, token in zip(POSE_COLUMNS, row)]
        if vals[12] <= 0:
            raise ParseError(line_no, "W_cm must be > 0", column="W_cm")
        if vals[13] < 0:
            raise ParseError(line_no, "omega_deg must be >= 0", column="omega_deg")


def read_pose_columns(path) -> list:
    """Parse a pose-pair file into its 14 columns, in POSE_COLUMNS order,
    each a list of floats with one entry per data row. Rotations are as
    written, not wrapped.

    The whole file is checked at once: every row's field count, every
    token through float(), one sum for finiteness and the extremes of
    W_cm and omega_deg. Only when one of these fails are the rows
    checked one at a time, so that a malformed file raises the
    SchemaError, or the ParseError of its first bad row, that a row by
    row reader would.
    """
    rows = _read_lines(path, POSE_CSV_HEADER)[1:]
    if not rows:
        return [[] for _ in POSE_COLUMNS]
    n_cols = len(POSE_COLUMNS)
    values = None
    if all(raw.count(",") == n_cols - 1 for raw in rows):
        try:
            # float() ignores the "\r" a CRLF line ends with
            values = list(map(float, ",".join(rows).split(",")))
        except ValueError:
            pass
    columns = None if values is None else [values[k::n_cols] for k in range(n_cols)]
    # the sum of finite values may overflow, and then no row is bad
    if not (columns and math.isfinite(sum(values))
            and min(columns[12]) > 0 and min(columns[13]) >= 0):
        _check_pose_rows(rows)
    return columns


def _pose_rows(columns):
    """Per row of a pose file's 14 columns: (object position, object
    rotation, target position, target rotation, W, omega), the positions
    and rotations as 3-tuples."""
    ox, oy, oz, orx, ory, orz, tx, ty, tz, trx, try_, trz, w, omega = columns
    return zip(zip(ox, oy, oz), zip(orx, ory, orz), zip(tx, ty, tz),
               zip(trx, try_, trz), w, omega)


def classified_csv(columns) -> str:
    """The text `fitts3d classify` writes for read_pose_columns' columns:
    CLASSIFIED_CSV_HEADER, then per row its 14 values in shortest
    round-trip form, rotations wrapped, and its three success flags."""
    columns = list(columns)
    for k in _ROTATION_COLUMNS:
        columns[k] = list(map(wrap_angle_deg, columns[k]))
    flags = [_FLAGS[translation_ok(obj_pos, target_pos, w),
                    rotation_ok(obj_rot, target_rot, omega)]
             for obj_pos, obj_rot, target_pos, target_rot, w, omega
             in _pose_rows(columns)]
    lines = map(",".join, zip(*[map(repr, col) for col in columns], flags))
    return "\n".join([CLASSIFIED_CSV_HEADER, *lines]) + "\n"
