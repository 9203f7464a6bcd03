"""Text formats: point files (one decimal in [0,1) per line) and integer
files (one positive integer per line, strictly increasing).  '#' starts
a comment line in either format; blank lines are skipped."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import PointSequence
from .errors import FormatError
from .seqgen import first_out_of_order


def _payload_lines(path):
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def read_points(path) -> PointSequence:
    vals = []
    for lineno, line in _payload_lines(path):
        try:
            v = float(line)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: not a number: {line!r}") from exc
        if not (0.0 <= v < 1.0) or not np.isfinite(v):
            raise FormatError(f"{path}:{lineno}: point {v!r} outside [0,1)")
        vals.append(v)
    if not vals:
        raise FormatError(f"{path}: no points found")
    return PointSequence(vals)


def write_points(path, seq: PointSequence) -> None:
    with open(path, "w") as fh:
        fh.write(f"# {len(seq)} points in [0,1)\n")
        for v in seq.points.tolist():
            fh.write(f"{v!r}\n")


def read_integers(path) -> list[int]:
    vals, linenos = [], []
    for lineno, line in _payload_lines(path):
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
