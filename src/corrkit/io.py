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
its first line at fault in a FormatError.

write_points writes each point as repr(float) does, the shortest
decimal that reads back to it, and makes no str per point.  The points
go in blocks of core._WINDOW_BLOCK; the digits of a point in [1e-4, 1)
are the nearest c / 10^d of fewest places d, with c found from the
double's significand m and exponent k in exact uint64 arithmetic: the
limbs of m 5^d shifted right by k - d, rounded with ties to even, and
kept where 2 |c 2^(k-d) - m 5^d| < 5^d, the test that c / 10^d reads
back to m 2^-k.  Zeros, points below 1e-4 (repr's exponent form),
powers of two and the few points past 19 places go to repr (see
write_point_lines)."""

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


# 5^d for d = 0..20; past d = 19 the nearest c < 10^d may not fit a uint64
_FIVES = np.array([5**d for d in range(21)], dtype=np.uint64)
_LOW32, _HALF, _TEN8 = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(10**8)
# the columns of a row, 24 digits from byte 0 and '\n' at 24: a line is
# the columns from its start on, which no column past 24 reaches
_COLUMNS = np.array([*range(25), *[0] * 7], dtype=np.uint8)


def _nearest(m: np.ndarray, k: np.ndarray, d: np.ndarray):
    """(c, ok): c is m 2^-k 10^d rounded to the nearest integer, ties to
    even, and ok holds where c / 10^d reads back to m 2^-k (see
    write_point_lines); never where d > 19 or s = k - d is outside
    [1, 63].  All uint64."""
    s = np.minimum(k - d, np.uint64(64))  # k < d wraps past 2^63
    ok = (d <= 19) & (s >= 1) & (s <= 63)
    p = _FIVES[d]
    lo, hi = m & _LOW32, m >> _HALF  # m 5^d = hi 2^64 + lo, from 32-bit halves
    mid = lo * (p >> _HALF)
    mid += hi * (p & _LOW32)
    hi *= p >> _HALF
    hi += mid >> _HALF
    mid <<= _HALF
    lo *= p & _LOW32
    lo += mid
    hi += lo < mid
    del mid
    c = lo >> s
    c |= hi << (np.uint64(64) - s)
    del hi
    unit = np.uint64(1) << s  # 2^s
    lo &= unit - np.uint64(1)  # m 5^d - c 2^s before rounding
    up = lo > unit >> np.uint64(1)
    up |= (lo == unit >> np.uint64(1)) & (c & np.uint64(1) == 1)  # a tie, to even
    c += up
    np.subtract(unit, lo, out=lo, where=up)  # |c 2^s - m 5^d|
    lo += lo
    ok &= lo < p
    return c, ok


def _ascii8(v: np.ndarray) -> np.ndarray:
    """The 8 digits of each v < 10^8, zero-padded, as the ASCII bytes of a
    little-endian uint64 (the first digit in the low byte): 4, 2, then 1
    digit per lane, each lane divided by a multiply and a shift."""
    hi = v // np.uint64(10**4)
    w = hi | ((v - hi * np.uint64(10**4)) << np.uint64(32))
    for magic, shift, keep, base, width in ((5243, 19, 0x0000007F0000007F, 100, 16),
                                            (103, 10, 0x000F000F000F000F, 10, 8)):
        q = ((w * np.uint64(magic)) >> np.uint64(shift)) & np.uint64(keep)
        w = q | ((w - q * np.uint64(base)) << np.uint64(width))
    return w + np.uint64(0x3030303030303030)


def _repr_line(v: float) -> str:
    return f"{v!r}\n"


def _block_lines(x: np.ndarray) -> str:
    """The lines write_point_lines writes for the points x."""
    bits = x.view(np.uint64)
    frac = bits & np.uint64((1 << 52) - 1)
    fast = (x >= 1e-4) & (frac != 0) & (x < 1.0)
    m = frac | np.uint64(1 << 52)
    del frac
    k = np.uint64(1075) - (bits >> np.uint64(52))  # x = m 2^-k
    # 16 significant digits: each of these doubles lies just above its power of ten
    d = np.full(x.size, 19, dtype=np.uint64)
    for tenth in (1e-3, 1e-2, 1e-1):
        d -= x >= tenth
    c, ok = _nearest(m, k, d)
    ok &= fast
    live = np.flatnonzero(ok)
    miss = np.flatnonzero(fast & ~ok)  # 17 where 16 fail
    d[miss] += np.uint64(1)
    c[miss], ok[miss] = _nearest(m[miss], k[miss], d[miss])
    while live.size:  # fewer while they still read back
        c_less, ok_less = _nearest(m[live], k[live], d[live] - np.uint64(1))
        live = live[ok_less]
        c[live] = c_less[ok_less]
        d[live] -= np.uint64(1)
    del m, k
    rows = np.empty((x.size, 4), dtype="<u8")
    top = c // _TEN8
    rows[:, 2] = _ascii8(c - top * _TEN8)
    c = top // _TEN8
    rows[:, 1] = _ascii8(top - c * _TEN8)
    rows[:, 0] = _ascii8(c)
    rows[:, 3] = ord("\n")
    start = np.where(ok, 22 - d, 25).astype(np.uint8)  # the line's first column
    line = rows.view(np.uint8)
    lead = np.flatnonzero(ok) * 32 + start[ok]
    line.reshape(-1)[lead] = ord("0")
    line.reshape(-1)[lead + 1] = ord(".")
    text = line[_COLUMNS >= start[:, None]].tobytes().decode("ascii")
    odd = np.flatnonzero(~ok)
    pieces, at = [], 0
    for cut, v in zip(np.cumsum(25 - start, dtype=np.intp)[odd].tolist(), x[odd].tolist()):
        pieces += (text[at:cut], _repr_line(v))
        at = cut
    pieces.append(text[at:])
    return "".join(pieces)


def write_point_lines(fh, seq: PointSequence) -> None:
    """One point per line as repr(float), the shortest text that reads
    back to the same double: a fixed sequence always gives the same bytes.

    The points go in blocks of core._WINDOW_BLOCK, each made one str from
    one uint8 buffer of lines, with no str per point.  A point x in
    [1e-4, 1) is written '0.' and the d digits of c, zero-padded, where
    c / 10^d is the decimal of fewest places d that reads back to x, and
    of those the nearest to x: what repr writes.  With x = m 2^-k, m <
    2^53, x 10^d = m 5^d / 2^s for s = k - d.  The product m 5^d < 2^98
    is formed in two uint64 limbs from the 32-bit halves of m and 5^d,
    and c is it shifted right by s, rounded to nearest with ties to even,
    as repr does (0.50000762939453125 is written 0.5000076293945312).
    c / 10^d reads back to x exactly when it lies within half the
    spacing 2^-k of the doubles around x, that is when
    2 |c 2^s - m 5^d| < 5^d; equality cannot hold, as the left side is
    even and 5^d odd.  The test holds for every d from the fewest on, so
    d is found from 16 significant digits: 17 where 16 fail, fewer while
    the test still holds.  repr writes the other points, spliced into the
    block's text in order: 0.0, -0.0 and every x below 1e-4 (repr's
    exponent form), the powers of two (the spacing below them is half
    that above, so the test does not apply), and each x whose 17 digits
    fail the test, need d > 19 places (c might not fit a uint64) or give
    s outside [1, 63]."""
    pts = seq.points
    for b in range(0, pts.size, core._WINDOW_BLOCK):
        fh.write(_block_lines(pts[b:b + core._WINDOW_BLOCK]))


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
