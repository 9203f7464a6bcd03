"""Text formats: point files (one decimal in [0,1) per line) and integer
files (one positive integer per line, strictly increasing).  In either
format a line whose first non-blank character is '#' is a comment, and
blank lines are skipped; a '#' after a value is an error.  Lines are
those of str.splitlines, so a form feed or U+2028 also ends a line.

read_points parses a plain point file in one numpy pass (_plain_points).
Any other file, and every file it rejects, goes through the line scan,
which alone raises the line-numbered FormatErrors."""

from __future__ import annotations

import io as _io
import re
from pathlib import Path

import numpy as np

from .core import PointSequence
from .errors import FormatError
from .seqgen import first_out_of_order

# the characters of a plain file outside its comments
_PLAIN_CHARS = b"0123456789.eE+- \t\n"
# the line ends of str.splitlines other than '\n' ('\r' included, though
# read_text turns every '\r' into '\n')
_OTHER_LINE_ENDS = re.compile("[\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")


def _payload_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _plain_points(text: str) -> np.ndarray | None:
    """The points of a plain point file as a float64 array, or None when
    the file is not plain or holds no points or a point outside [0,1).

    Plain: split at newlines, every line is blank (spaces and tabs), a
    comment with no other line end of str.splitlines in it, or one token
    of the characters 0-9 . e E + - with spaces or tabs around it.  On
    such a file the line scan sees the same lines, and np.loadtxt turns
    each token into the double float() gives (both call
    PyOS_string_to_double) or raises ValueError where float() does.
    """
    kept, pos = [], 0  # the text between comment lines
    while (mark := text.find("#", pos)) >= 0:
        start = text.rfind("\n", 0, mark) + 1
        end = text.find("\n", mark)
        end = len(text) if end < 0 else end
        if text[start:mark].strip(" \t") or _OTHER_LINE_ENDS.search(text, mark, end):
            return None
        kept.append(text[pos:start])
        pos = end
    kept.append(text[pos:])
    body = "".join(kept)
    if not body.isascii() or body.encode().translate(None, _PLAIN_CHARS) or not body.strip():
        return None
    try:
        vals = np.loadtxt(_io.StringIO(body), dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if vals.shape[1] != 1 or not (vals.min() >= 0.0 and vals.max() < 1.0):
        return None
    return vals.ravel()


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
    vals = _plain_points(text)
    return PointSequence(_scan_points(path, text) if vals is None else vals)


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
