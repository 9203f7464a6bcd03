"""Text formats: point files (one decimal in [0,1) per line) and integer
files (one positive integer per line, strictly increasing).  In either
format a line whose first non-blank character is '#' is a comment, and
blank lines are skipped; a '#' after a value is an error.  Lines are
those of str.splitlines, so a form feed or U+2028 also ends a line.

read_points returns the doubles float() gives for the payload lines and
makes no Python object per point for the files write_points writes.
Every file is read as bytes, each line break of str.splitlines becomes
one '\n' (a '\r\n' too, so the lines and their numbers are those of the
text), and the bytes are split at '\n'.  The lines go in blocks of
core._WINDOW_BLOCK, and a line of the exact form '0.' and 1-19 digits
is converted without a str: its digits, read eight to a uint64 word
and padded to 19, are an integer M < 10^19 < 2^64, and q = M / 10^19
in np.longdouble is exact but for the one rounding of the division
where the significand has 64 bits (x87) or 113 (binary128).  So
float64(q) is the double nearest M / 10^19, which float() returns,
unless q fell exactly on a midpoint of two doubles: M / 10^19 itself is
never one (a decimal with at most 19 digits that is a dyadic rational
is one of at most 19 bits), so such a q is sent to float().  Where
longdouble is double, only M < 2^53 is taken (Clinger's fast path: M
and 10^19 = 2^19 5^19 are exact doubles, and the division rounds
once).  The other lines (padded lines, comments, exponents, signs, more
digits, the midpoints, any character outside ASCII) are decoded as
UTF-8, stripped and converted by one np.array call per block, which
turns each str into the double float() gives or raises ValueError where
float() does.  Only a file the conversion rejects (a token that is not
a number, no points, a point outside [0,1)) goes through the line scan,
which alone raises the line-numbered FormatErrors."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import core
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


def _token_values(tokens: list[str]) -> np.ndarray:
    """float() of each stripped payload token, in one call; ValueError
    where float() raises one."""
    return np.array(tokens, dtype=np.float64)


def _in_range(vals: np.ndarray) -> bool:
    return bool(vals.size) and vals.min() >= 0.0 and vals.max() < 1.0  # False for NaN too


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


def _canonical_values(data: bytes, words, starts: np.ndarray, ends: np.ndarray):
    """(x, ok): for each line [start, end) x is the double nearest M /
    10^19, and ok holds where the line is '0.' and 1-19 digits and x is
    float() of it (see the module docstring).  words is _words(data), or
    None for a file shorter than _HEAD bytes."""
    size = ends - starts
    if words is None or int(starts[-1]) + _HEAD > len(data):  # the end of the file
        first = int(starts[0])
        words, starts = _words(data[first:] + bytes(_HEAD)), starts - first
    ok = (size >= 3) & (size <= 21)
    m = np.zeros(starts.size, dtype=np.uint64)
    for k, scale in enumerate((10**13, 10**5, None)):  # digits 0-5, 6-13, 14-18 and three '0's
        w = words[starts + 8 * k]
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


def _plain_values(data: bytes):
    """The payload values of a file's bytes, its lines split at '\n', in
    order, or None where the file is rejected (see _scan_points)."""
    buf = np.frombuffer(data, dtype=np.uint8)
    breaks = np.flatnonzero(buf == ord("\n"))
    words = _words(data) if len(data) >= _HEAD else None
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
        x, keep = _canonical_values(data, words, starts, ends)
        tokens, at = [], []
        odd = np.flatnonzero(~keep)
        for i, lo, hi in zip(odd.tolist(), starts[odd].tolist(), ends[odd].tolist()):
            line = data[lo:hi].decode().strip()
            if line and line[0] != "#":
                tokens.append(line)
                at.append(i)
        if tokens:
            try:
                x[at] = _token_values(tokens)
            except ValueError:
                return None
            keep[at] = True
        x = x[keep]
        if x.size and not _in_range(x):
            return None
        out[size:size + x.size] = x
        size += x.size
    return out[:size] if size else None


# the line breaks of str.splitlines other than '\n' and '\r\n': the
# bytes, and the UTF-8 of the characters above 0x7F
_BYTE_BREAKS = bytes.maketrans(b"\r\v\f\x1c\x1d\x1e", b"\n" * 6)
_WIDE_BREAKS = tuple(c.encode() for c in ("\x85", "\u2028", "\u2029"))


def _read_values(path) -> np.ndarray:
    data = Path(path).read_bytes()
    # each line break as one '\n', so the lines are those of the text; the
    # searches for two or more bytes are slow, and skipped where in vain
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    if not data.isascii():
        for brk in _WIDE_BREAKS:
            data = data.replace(brk, b"\n")
    data = data.translate(_BYTE_BREAKS)
    vals = _plain_values(data)
    if vals is None:  # raises the FormatError
        vals = _scan_points(path, data.decode())
    return vals


def read_points(path) -> PointSequence:
    """The points of a point file, each the double float() gives for its
    line; FormatError naming the line where the file breaks the format.

    The file is held once, as bytes (twice while its line breaks are
    made '\n'), with 8 bytes per line for the line ends and 8 for the
    values; on top, a bool per byte while the lines are split, then
    about 100 bytes per line of a block of core._WINDOW_BLOCK lines:
    10.0 MiB for 2e5 reprs (3.7 MiB).  The bytes are dropped before the
    PointSequence is built, 32 bytes per point."""
    return PointSequence(_read_values(path))


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
