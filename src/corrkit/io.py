"""Text formats: point files (one decimal in [0,1) per line) and integer
files (one positive integer per line, strictly increasing).  In either
format a line whose first non-blank character is '#' is a comment, and
blank lines are skipped; a '#' after a value is an error.  Lines are
those of str.splitlines, so a form feed or U+2028 also ends a line.

read_points converts the payload lines of a file in one np.array
call, which turns each str into the double float() gives or raises
ValueError where float() does.  Only a file it rejects (a token that is
not a number, no points, a point outside [0,1)) goes through the line
scan, which alone raises the line-numbered FormatErrors."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import PointSequence
from .errors import FormatError
from .seqgen import first_out_of_order


def _payload_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _scan_points(path, text: str) -> list[float]:
    vals = []
    for lineno, line in _payload_lines(text):
        try:
            v = float(line)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: not a number: {line!r}") from exc
        if not 0.0 <= v < 1.0:  # False for NaN and +-inf too
            raise FormatError(f"{path}:{lineno}: point {v!r} outside [0,1)")
        vals.append(v)
    if not vals:
        raise FormatError(f"{path}: no points found")
    return vals


def read_points(path) -> PointSequence:
    text = Path(path).read_text()
    # the lines of _payload_lines, unnumbered: numbering every line would
    # add about two thirds to the time of a read
    tokens = [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]
    try:
        vals = np.array(tokens, dtype=np.float64)
    except ValueError:
        vals = None
    if vals is None or not (vals.size and vals.min() >= 0.0 and vals.max() < 1.0):
        vals = _scan_points(path, text)  # raises the FormatError
    return PointSequence(vals)


def write_point_lines(fh, seq: PointSequence) -> None:
    """One point per line as repr(float), the shortest text that reads
    back to the same double: a fixed sequence always gives the same bytes."""
    for v in seq.points.tolist():
        fh.write(f"{v!r}\n")


def write_points(path, seq: PointSequence) -> None:
    with open(path, "w") as fh:
        fh.write(f"# {len(seq)} points in [0,1)\n")
        write_point_lines(fh, seq)


def read_integers(path) -> list[int]:
    vals, linenos = [], []
    for lineno, line in _payload_lines(Path(path).read_text()):
        try:
            vals.append(int(line))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: not an integer: {line!r}") from exc
        linenos.append(lineno)
    if not vals:
        raise FormatError(f"{path}: no integers found")
    bad = first_out_of_order(vals)
    if bad is not None:
        what = "positive" if vals[bad] <= 0 else "strictly increasing"
        raise FormatError(f"{path}:{linenos[bad]}: entries must be {what}")
    return vals
