"""Text formats: point files (one decimal in [0,1) per line) and integer
files (one positive integer per line, strictly increasing).  In either
format a line whose first non-blank character is '#' is a comment, and
blank lines are skipped; a '#' after a value is an error.

Both readers take one line model (_lines): the file is read as bytes,
each line break of str.splitlines ('\r\n', a form feed, U+2028 too)
becomes one '\n', and the lines split at '\n' are those of the text,
with their numbers.  Each line is decoded as UTF-8 on its own, never
the whole file; a line that is not UTF-8 is a FormatError naming it.

read_points returns the doubles float() gives for the payload lines and
makes no Python object per point for the files write_points writes.
The lines go in blocks of core._WINDOW_BLOCK, and a line of the exact
form '0.' and 1-19 digits is converted without a str: its digits, read
eight to a uint64 word and padded to 19, are an integer M < 10^19 <
2^64, and q = M / 10^19 in np.longdouble is exact but for the one
rounding of the division where the significand has 64 bits (x87) or
113 (binary128).  So float64(q) is the double nearest M / 10^19, which
float() returns, unless q fell exactly on a midpoint of two doubles:
M / 10^19 itself is never one (a decimal with at most 19 digits that is
a dyadic rational is one of at most 19 bits), so such a q is sent to
float().  Where longdouble is double, only M < 2^53 is taken (Clinger's
fast path: M and 10^19 = 2^19 5^19 are exact doubles, and the division
rounds once).  The other lines (padded lines, comments, exponents,
signs, more digits, the midpoints, any character outside ASCII) are
decoded, stripped and converted by one np.array call per block, which
turns each str into the double float() gives or raises ValueError where
float() does.  Only a block that fails (a line not UTF-8 or not a
number, a point outside [0,1)) is read again, line by line, to name
its first line at fault in a FormatError."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import core
from .core import PointSequence
from .errors import ConsistencyError, FormatError
from .seqgen import first_out_of_order


def _stripped(path, lineno: int, line: bytes) -> str:
    try:
        return line.decode().strip()
    except UnicodeDecodeError:
        raise FormatError(f"{path}:{lineno}: not UTF-8 text") from None


def _token_values(tokens: list[str]) -> np.ndarray:
    """float() of each stripped payload token, in one call; ValueError
    where float() raises one."""
    return np.array(tokens, dtype=np.float64)


_HEAD = 24  # a canonical line is read as the words 0, 8 and 16 bytes into it
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)  # k bytes set
_ZEROS, _HIGH_NIBBLES, _SIXES = (np.uint64(int(c * 8, 16)) for c in ("30", "F0", "06"))
_TEN19 = np.longdouble(10**19)
# the M taken: all where longdouble is x87 extended or binary128, whose
# M and 10^19 are exact and whose division rounds once; else M < 2^53
_EXACT_BELOW = 1 << 64 if np.finfo(np.longdouble).nmant in (63, 112) else 1 << 53


def _words(data: bytes) -> np.ndarray:
    """w[p], the 8 bytes of data from p on as a little-endian uint64: a
    view of data, no copy."""
    return np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))


def _eight_digits(w: np.ndarray) -> np.ndarray:
    """The number of the 8 digits (byte values 0-9, the first in the low
    byte) of each word: two, four, then eight digits a lane, in place."""
    for shift, keep in ((8, 0x00FF00FF00FF00FF), (16, 0x0000FFFF0000FFFF), (32, 0xFFFFFFFF)):
        hi = w >> np.uint64(shift)
        w *= np.uint64(10 ** (shift // 8))
        w += hi
        w &= np.uint64(keep)
    return w


def _canonical_values(data: bytes, starts: np.ndarray, ends: np.ndarray):
    """(x, ok): for each line [start, end) x is the double nearest M /
    10^19, and ok holds where the line is '0.' and 1-19 digits and x is
    float() of it (see the module docstring)."""
    size = ends - starts
    if int(starts[-1]) + _HEAD > len(data):  # the end of the file, or all of a short one
        first = int(starts[0])
        data, starts = data[first:] + bytes(_HEAD), starts - first
    ok = (size >= 3) & (size <= 21)
    m = np.zeros(starts.size, dtype=np.uint64)
    for k, scale in enumerate((10**13, 10**5, None)):  # digits 0-5, 6-13, 14-18 and three '0's
        w = _words(data)[starts + 8 * k]
        line = _LOW_BYTES[np.clip(size - 8 * k, 0, 8)]  # the bytes of w in the line
        if not k:
            ok &= w & np.uint64(0xFFFF) == 0x2E30  # '0.'
            line &= ~np.uint64(0xFFFF)
        bad = ((w & _HIGH_NIBBLES) ^ _ZEROS) | (((w + _SIXES) & _HIGH_NIBBLES) ^ _ZEROS)
        bad &= line
        ok &= bad == 0  # the line's bytes are '0'-'9'
        w &= line
        w -= line & _ZEROS  # each digit byte less '0', with no borrow
        _eight_digits(w)
        m += w // np.uint64(1000) if scale is None else w * np.uint64(scale)
    q = m.astype(np.longdouble) / _TEN19
    x = q.astype(np.float64)
    # q is a midpoint where x + 2 (q - x) is a double, the neighbour of x
    # (2 (q - x) is exact at a midpoint; elsewhere it may round, which can
    # only flag more lines)
    twice = 2 * (q - x).astype(np.float64)
    ok &= (twice == 0) | ((x + twice) - x != twice)
    if _EXACT_BELOW < 1 << 64:
        ok &= m < np.uint64(_EXACT_BELOW)
    return x, ok


def _plain_values(path, data: bytes) -> np.ndarray:
    """The payload values of the file at path, whose bytes are data (see
    _lines), in order; FormatError naming the first line at fault."""
    buf = np.frombuffer(data, dtype=np.uint8)
    breaks = np.flatnonzero(buf == ord("\n"))
    lines = breaks.size + 1  # and a last one after the last '\n', maybe empty
    out = np.empty(lines)
    size = 0
    for b in range(0, lines, core._WINDOW_BLOCK):
        ends = breaks[b:b + core._WINDOW_BLOCK]
        if b + core._WINDOW_BLOCK >= lines:
            ends = np.append(ends, buf.size)
        starts = np.empty_like(ends)
        starts[0] = breaks[b - 1] + 1 if b else 0
        starts[1:] = ends[:-1] + 1
        x, keep = _canonical_values(data, starts, ends)
        try:
            tokens, at = [], []
            odd = np.flatnonzero(~keep)
            for i, lo, hi in zip(odd.tolist(), starts[odd].tolist(), ends[odd].tolist()):
                line = data[lo:hi].decode().strip()
                if line and line[0] != "#":
                    tokens.append(line)
                    at.append(i)
            if tokens:
                x[at] = _token_values(tokens)
                keep[at] = True
            x = x[keep]
            ok = not x.size or (x.min() >= 0.0 and x.max() < 1.0)  # False for NaN too
        except ValueError:  # UnicodeDecodeError too
            ok = False
        if not ok:
            _block_fault(path, data, b, starts, ends)
        out[size:size + x.size] = x
        size += x.size
    if not size:
        raise FormatError(f"{path}: no points found")
    return out[:size]


def _block_fault(path, data: bytes, b: int, starts: np.ndarray, ends: np.ndarray):
    """Raise the FormatError of the first line at fault among the lines
    [start, end) of the block from line b + 1 on, in order: every line,
    as a canonical one may round to 1.0."""
    for lineno, lo, hi in zip(range(b + 1, b + 1 + starts.size), starts.tolist(), ends.tolist()):
        line = _stripped(path, lineno, data[lo:hi])
        if not line or line[0] == "#":
            continue
        try:
            v = float(line)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: not a number: {line!r}") from exc
        if not 0.0 <= v < 1.0:  # False for NaN and +-inf too
            raise FormatError(f"{path}:{lineno}: point {v!r} outside [0,1)")
    raise ConsistencyError(f"{path}: lines {b + 1}-{b + starts.size} rejected, none at fault")


# the line breaks of str.splitlines other than '\n' and '\r\n': the
# bytes, and the UTF-8 of the characters above 0x7F
_BYTE_BREAKS = bytes.maketrans(b"\r\v\f\x1c\x1d\x1e", b"\n" * 6)
_WIDE_BREAKS = tuple(c.encode() for c in ("\x85", "\u2028", "\u2029"))


def _lines(path) -> bytes:
    """The bytes of the file at path, each line break of str.splitlines
    made one '\n' (see the module docstring)."""
    data = Path(path).read_bytes()
    # the searches for two or more bytes are slow, and skipped where in vain
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    if not data.isascii():
        for brk in _WIDE_BREAKS:
            data = data.replace(brk, b"\n")
    return data.translate(_BYTE_BREAKS)


def read_points(path) -> PointSequence:
    """The points of a point file, each the double float() gives for its
    line; FormatError naming the line where the file breaks the format.

    The file is held once, as bytes (twice while its line breaks are
    made '\n'), with 8 bytes per line for the line ends and 8 for the
    values; on top, a bool per byte while the lines are split, then
    about 100 bytes per line of a block of core._WINDOW_BLOCK lines:
    10.0 MiB for 2e5 reprs (3.7 MiB).  The bytes are dropped before the
    PointSequence is built, 32 bytes per point."""
    return PointSequence(_plain_values(path, _lines(path)))


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
    for lineno, raw in enumerate(_lines(path).split(b"\n"), start=1):
        line = _stripped(path, lineno, raw)
        if not line or line[0] == "#":
            continue
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
