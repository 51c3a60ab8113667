"""The per-Pose classify path, kept as the oracle for fitts3d's column
path, and seeded pose files full of edge values.

reference_read_poses checks a pose file one row at a time and builds
two Pose objects per row; reference_classify classifies those with the
public per-Pose rules and writes each value's repr, as `fitts3d
classify` did before it read, classified and wrote the file by column.
The two paths must agree byte for byte on every valid file, and raise
the same error on every malformed one.
"""

import random

from fitts3d import (ParseError, Pose, classify_rotation,
                     classify_translation)
from fitts3d.poses import POSE_COLUMNS, POSE_CSV_HEADER, _parse_float, _read_lines

CLASSIFY_HEADER = POSE_CSV_HEADER + ",trans_success,rot_success,combined_success"

# rows on the boundaries, as the pose columns' tokens: a distance of
# exactly W/2 (along an axis, and 3-4-5 in a plane), and symmetry-reduced
# rotation errors of exactly omega (92.5 and -87.5 reduce to 2.5; 45,
# -45 and 135 to +-45)
BOUNDARY_ROWS = (
    "0,0,0,0,0,0,2.5,0,0,92.5,-87.5,2.5,5.0,2.5",
    "0,0,0,0,0,0,3,4,0,45,-45,135,10,45",
    "1.50,-0.0,0,180,-180,-180.0,1.50,2.5,0,0,0,0,5,0",
    "-4,0,3,-0.0,0.0,360,0,0,0,720,-360,-1080,1_0,0",
    "0,0,0,0,0,0,3,4.000001,0,2.5000001,0,0,10,2.5",
)
_POSITIONS = ("0", "-0.0", "0.0", "1.50", "1_0", " 1.0", "3", "-4", "12.25",
              "2.5", "1e1", "+3")
_ANGLES = ("45", "-45", "45.0", "135", "-135.0", "180", "-180", "-180.0",
           "360", "-360", "405.5", "-450", "721.25", "-1000", "-0.0", "0",
           "1.50", "1_0", " 1.0", "89", "92.5", "-87.5", "1e1", "+3")
# (W_cm, omega_deg) tokens
_TOLERANCES = (("5.0", "2.5"), ("5", "0"), ("10", "-0.0"), ("1_0", "7.50"),
               ("4.00", " 1.0"), ("2.5", "45"), ("1e1", "90"))


def edge_pose_rows(seed: int, n: int = 64) -> list:
    """BOUNDARY_ROWS, then n seeded rows of edge tokens and random values;
    half the seeded objects sit on their target's position tokens."""
    rng = random.Random(seed)

    def pick(tokens, low, high):
        if rng.random() < 0.6:
            return rng.choice(tokens)
        return repr(rng.uniform(low, high))

    rows = list(BOUNDARY_ROWS)
    for _ in range(n):
        target = [pick(_POSITIONS, -20.0, 20.0) for _ in range(3)]
        obj = target if rng.random() < 0.5 else [pick(_POSITIONS, -20.0, 20.0)
                                                 for _ in range(3)]
        rotations = [pick(_ANGLES, -800.0, 800.0) for _ in range(6)]
        rows.append(",".join([*obj, *rotations[:3], *target, *rotations[3:],
                              *rng.choice(_TOLERANCES)]))
    return rows


def pose_file_text(rows, newline: str = "\n") -> str:
    """A pose file's text: the header, then rows, each ended by newline."""
    return "".join(line + newline for line in [POSE_CSV_HEADER, *rows])


def reference_read_poses(path):
    """Parse a pose-pair file one row at a time: the field count, then
    each field left to right, then W_cm, then omega_deg. Returns a list
    of (object Pose, target Pose, W, omega) tuples."""
    lines = _read_lines(path, POSE_CSV_HEADER)
    rows = []
    for line_no, raw in enumerate(lines[1:], start=2):
        row = raw.rstrip("\r").split(",")
        if len(row) != len(POSE_COLUMNS):
            raise ParseError(line_no,
                             f"expected {len(POSE_COLUMNS)} fields, got {len(row)}")
        vals = [_parse_float(token, line_no, col)
                for col, token in zip(POSE_COLUMNS, row)]
        w, omega = vals[12], vals[13]
        if w <= 0:
            raise ParseError(line_no, "W_cm must be > 0", column="W_cm")
        if omega < 0:
            raise ParseError(line_no, "omega_deg must be >= 0", column="omega_deg")
        obj = Pose(tuple(vals[0:3]), tuple(vals[3:6]))
        target = Pose(tuple(vals[6:9]), tuple(vals[9:12]))
        rows.append((obj, target, w, omega))
    return rows


def reference_classify(path) -> str:
    """What `fitts3d classify path` writes, built one Pose pair at a time."""
    lines = [CLASSIFY_HEADER]
    for obj, target, w, omega in reference_read_poses(path):
        t = classify_translation(obj, target, w)
        r = classify_rotation(obj, target, omega)
        vals = [repr(v) for v in obj.position + obj.rotation
                + target.position + target.rotation] + [repr(w), repr(omega)]
        lines.append(",".join(vals + [str(int(t)), str(int(r)), str(int(t and r))]))
    return "\n".join(lines) + "\n"
