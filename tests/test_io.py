"""The point-file contract: which files read_points accepts, the exact
doubles it returns, and the line-numbered FormatError of every file it
rejects.  The reference is the plain line scan below.  Integer files
share the line model: their lines and faults too.  write_points must
write the bytes of its header and repr's line for each point."""

import math
import random
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corrkit import ConsistencyError, FormatError, PointSequence, core, io
from corrkit.io import read_integers, read_points


def _line_scan(path):
    """Reference reader: str.splitlines, str.strip, a '#' first, float()."""
    vals = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            v = float(line)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: not a number: {line!r}") from None
        if not (0.0 <= v < 1.0) or not np.isfinite(v):
            raise FormatError(f"{path}:{lineno}: point {v!r} outside [0,1)")
        vals.append(v)
    if not vals:
        raise FormatError(f"{path}: no points found")
    return np.array(vals)


def _points(path):
    return read_points(path).points


def _outcome(reader, path):
    """('ok', the bytes of the doubles) or ('error', the message)."""
    try:
        return "ok", reader(path).tobytes()
    except FormatError as exc:
        return "error", str(exc)


def _write(tmp_path, text):
    """A file of text in UTF-8, or of the bytes given."""
    path = tmp_path / "pts.txt"
    path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
    return path


def _message(tmp_path, text, reader=read_points):
    path = _write(tmp_path, text)
    with pytest.raises(FormatError) as exc:
        reader(path)
    return str(exc.value).removeprefix(str(path))


@pytest.mark.parametrize("text, message", [
    ("# header\n\n   \n abc \n0.5\n", ":4: not a number: 'abc'"),
    ("0.5\nnan\n", ":2: point nan outside [0,1)"),
    ("0.5\n0.25\ninf\n", ":3: point inf outside [0,1)"),
    ("1.0\n", ":1: point 1.0 outside [0,1)"),
    ("0.5\n1e999\n", ":2: point inf outside [0,1)"),
    ("# a\n0.5\n-0.25\n", ":3: point -0.25 outside [0,1)"),
    ("# only comments\n  # and an indented one\n\n", ": no points found"),
    ("", ": no points found"),
    ("0.25\n0.5 # c\n", ":2: not a number: '0.5 # c'"),
    ("0.5\n0.1 0.2\n", ":2: not a number: '0.1 0.2'"),
    ("0.1\t0.2\n", ":1: not a number: '0.1\\t0.2'"),
    ("0.5\n1e\n", ":2: not a number: '1e'"),
    # nines that round up to 1.0, canonical (19 digits) or not, the last
    # line with no final newline
    ("0.5\n0.9999999999999999999\n", ":2: point 1.0 outside [0,1)"),
    ("# h\n0.5\n0.99999999999999999", ":3: point 1.0 outside [0,1)"),
    ("0.5\n0.99999999999999999999\n", ":2: point 1.0 outside [0,1)"),
    ("0.5\n0.25\n0.x", ":3: not a number: '0.x'"),
    # the first fault in file order: a canonical line of the block that
    # rounds to 1.0 before an odd line that is not a number
    ("0.5 \n0.9999999999999999999\nabc\n", ":2: point 1.0 outside [0,1)"),
    # bytes that are not UTF-8: in a comment, in a value, on a last line
    # with no final newline, and after a line that is not a number
    (b"0.5\n# caf\xe9\n0.25\n", ":2: not UTF-8 text"),
    (b"0.5\n0.2\xff5\n", ":2: not UTF-8 text"),
    (b"0.5\n0.25\n0.\xff", ":3: not UTF-8 text"),
    (b"0.5\nabc\n\xff\n", ":2: not a number: 'abc'"),
])
def test_rejected_files_name_the_line(tmp_path, text, message):
    assert _message(tmp_path, text) == message


@pytest.mark.parametrize("text, message", [
    ("# h\r\n1\r\n\r\n x\r\n", ":4: not an integer: 'x'"),
    ("1\n3\x0c2\n", ":3: entries must be strictly increasing"),
    ("1\n2\u20280\n", ":3: entries must be positive"),
    ("# only comments\n\n", ": no integers found"),
    (b"1\n# caf\xe9\n3\n", ":2: not UTF-8 text"),
    (b"1\n2\n\xff", ":3: not UTF-8 text"),
    (b"1\nx\n\xff\n", ":2: not an integer: 'x'"),
])
def test_rejected_integer_files_name_the_line(tmp_path, text, message):
    assert _message(tmp_path, text, read_integers) == message


def test_integer_lines_are_those_of_the_text(tmp_path):
    path = _write(tmp_path, "# h\r\n\t1 \r\n\r\n 2\x0c5\u20287\x85\xa011\xa0\r10000000000000000000000\n")
    assert read_integers(path) == [1, 2, 5, 7, 11, 10**22]


def _integers_or_fault(path):
    try:
        return read_integers(path)
    except FormatError as exc:
        return str(exc).replace(str(path), "<path>")


def test_digit_only_integer_files_read_as_the_line_loop(tmp_path, monkeypatch):
    # random files of digits and '\n' only, against the same lines and a
    # comment after them, which take the line loop: the same integers, or
    # the same FormatError naming the same line.  Only a file that passes
    # every check skips the loop's per-line decode.
    stripped, decoded = io._stripped, []

    def counting(*args):
        decoded.append(args[1])
        return stripped(*args)

    monkeypatch.setattr(io, "_stripped", counting)
    rng = random.Random(36)
    fast = 0
    for trial in range(300):
        v, lines = 0, []
        for _ in range(rng.randrange(12)):
            kind = rng.randrange(20)
            if kind == 0:
                lines.append("")
                continue
            # a repeat, zero, a step back, or a step up, now and then past 2^64
            step = rng.randrange(1, 10**rng.randrange(1, 25))
            v = (v, 0, max(v - 1, 0))[kind - 1] if kind < 4 else v + step
            lines.append("0" * rng.randrange(2) + str(v))  # a leading zero or none
        text = "\n".join(lines) + "\n" * rng.randrange(3)
        digits, commented = tmp_path / "digits.txt", tmp_path / "commented.txt"
        digits.write_text(text)
        commented.write_text(text + "\n# end\n")
        decoded.clear()
        got = _integers_or_fault(digits)
        ok = not decoded
        assert got == _integers_or_fault(commented), text
        assert ok == isinstance(got, list), text
        fast += ok
    big = tmp_path / "big.txt"  # past int()'s 4300 digits: the line loop names the line
    big.write_text("1\n" + "2" * 5000 + "\n")
    assert _integers_or_fault(big).startswith("<path>:2: not an integer: '2222")
    assert 100 < fast < 250


@pytest.mark.parametrize("text, points", [
    ("# h\r\n0.25\r\n\r\n0.5\r\n", [0.25, 0.5]),
    ("0.25\r0.5", [0.25, 0.5]),
    ("  # indented comment\n0.5\n\t# tab-indented\n", [0.5]),
    (" \t0.5\t \n\t0.25\n", [0.5, 0.25]),
    ("-0.0\n", [-0.0]),
    ("+.5\n5e-1\n.125\n0.\n", [0.5, 0.5, 0.125, 0.0]),
    ("0.2_5\n", [0.25]),
    ("1e-400\n", [0.0]),
    ("0.25\n# c\x0c0.5\n", [0.25, 0.5]),
    ("0.25\n# c\u20280.5\n", [0.25, 0.5]),
    ("\xa00.5\xa0\n# c\u20280.25\n", [0.5, 0.25]),
    ("0.25\n0.5", [0.25, 0.5]),
    ("0.0\n0.00\n0.5\n0.9999999999999999", [0.0, 0.0, 0.5, 0.9999999999999999]),
    ("0.1\n\n 0.2\n0.3 \n0.4", [0.1, 0.2, 0.3, 0.4]),
])
def test_accepted_files_read_exact_doubles(tmp_path, text, points):
    assert _points(_write(tmp_path, text)).tobytes() == np.array(points).tobytes()  # sign of zero included


# a file is plain lines (values, comments, blanks, padded by spaces and
# tabs) with up to two odd lines put in: other spellings float() may or
# may not accept, other whitespace, other line ends
_CANONICAL_VALUES = st.text(alphabet="0123456789", min_size=1, max_size=19).map("0.".__add__)
_PLAIN_VALUES = st.sampled_from(["0.5", "-0.0", "+.5", ".5", "5.", "1e-3", "5E-1", "1e-400"]) \
    | st.floats(min_value=0.0, max_value=1.0, exclude_max=True).map(repr) | _CANONICAL_VALUES
_OTHER_VALUES = st.sampled_from([
    "0.2_5", "0.1 0.2", "0.5 # c", "1.0", "-0.5", "1e999", "nan", "inf", "-inf", "abc", "1e",
    "+", ".", "--1", "0x1p-2", "\u0660.\u0665",
])
_COMMENTS = st.sampled_from(["#", "# comment", "#0.5", "# 0.1 0.2", "# \xe9", "# [0,1)"])
_BLANKS = st.sampled_from(["", " ", "\t", " \t "])
_PADDING = _BLANKS | st.text(alphabet=" \t\xa0\x0c\u2028", min_size=1, max_size=2)
_PLAIN_LINE = st.tuples(_BLANKS, _PLAIN_VALUES | _COMMENTS | st.just(""), _BLANKS,
                        st.sampled_from(["\n", "\r\n"])).map("".join)
_ODD_LINE = st.tuples(_PADDING, _PLAIN_VALUES | _OTHER_VALUES | _COMMENTS, _PADDING,
                      st.sampled_from(["\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                       "\u2028", "\u2029", " ", ""])).map("".join)


@settings(max_examples=400, deadline=None)
@given(lines=st.lists(_PLAIN_LINE, max_size=8),
       odd=st.lists(st.tuples(st.integers(0, 8), _ODD_LINE), max_size=2))
def test_read_points_matches_the_line_scan(tmp_path_factory, lines, odd):
    for at, line in odd:
        lines.insert(at, line)
    path = _write(tmp_path_factory.mktemp("prop"), "".join(lines))
    assert _outcome(_points, path) == _outcome(_line_scan, path)


def _plain_text(n, seed):
    """A header and n repr lines, as write_points writes them; every
    97th point is tiny, so its repr has an exponent."""
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    x[::97] = rng.random(x[::97].size) * 2.0**-30
    return x, "# header\n" + "".join(f"{v!r}\n" for v in x.tolist())


def test_large_plain_file_matches_the_line_scan(tmp_path):
    x, text = _plain_text(20_000, 7)
    path = _write(tmp_path, text)
    assert _points(path).tobytes() == x.tobytes()
    path.write_text(text + "1.0\n")
    assert _outcome(_points, path) == ("error", f"{path}:20002: point 1.0 outside [0,1)")


def test_plain_file_skips_the_line_scan(tmp_path, monkeypatch):
    # and so does a valid file with other spellings float() accepts: CRLF
    # line ends, NBSP padding, a U+2028 line end inside a comment, an
    # underscore between digits, Arabic-Indic digits, and every other
    # line break of str.splitlines
    x, text = _plain_text(2_000, 8)
    odd = "\xa00.5\xa0\r\n# c\u20280.25\r\n0.2_5\r\n\u0660.\u0665\r\n"
    breaks = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2029"
    more = [(k + 1) / 16 for k in range(len(breaks))]
    odd += "".join(f"{v}{b}" for v, b in zip(more, breaks))
    path = _write(tmp_path, "  # indented\n\n" + odd + text.replace("\n", " \t\r\n"))
    monkeypatch.setattr(io, "_block_fault", lambda *a: pytest.fail("valid file went to the line scan"))
    assert _points(path).tobytes() == np.concatenate([[0.5, 0.25, 0.25, 0.5], more, x]).tobytes()


def test_block_rejected_with_no_line_at_fault_is_inconsistent(tmp_path, monkeypatch):
    # where the block's conversion and float() disagree, no value is read
    def refuse(tokens):
        raise ValueError(tokens)

    monkeypatch.setattr(io, "_token_values", refuse)
    path = _write(tmp_path, "0.5\n5e-1\n")
    with pytest.raises(ConsistencyError, match=": lines 1-3 rejected, none at fault$"):
        read_points(path)


def test_blocks_of_lines_match_the_line_scan(tmp_path, monkeypatch):
    # 2 blocks and 3 lines: canonical lines, exponents, comments and
    # blanks on both sides of each block boundary; then one line more
    # per file than the blocks hold, and blocks of 1 and 7 lines
    rng = np.random.default_rng(11)
    lines = 2 * core._BLOCK + 3
    x = rng.random(lines)
    text = [f"{v!r}" for v in x.tolist()]
    for i in range(0, lines, 5):
        text[i] = f"{float(x[i]) * 1e-6!r}"
    for i in (0, core._BLOCK - 1, core._BLOCK, 2 * core._BLOCK + 1):
        text[i] = "# c" if i % 2 else ""
    path = _write(tmp_path, "\n".join(text) + "\n")
    assert _points(path).tobytes() == _line_scan(path).tobytes()
    # short lines last: blocks before the last one reach the file's end
    small = _write(tmp_path, "\n".join(text[:200] + ["", "0.5", "#", "", "0.1"]))
    for block in (1, 7):
        monkeypatch.setattr(core, "_BLOCK", block)
        assert _points(small).tobytes() == _line_scan(small).tobytes()


def test_nineteen_digit_decimals_match_float(tmp_path):
    # 1e5 decimals of 19 digits, among them those whose longdouble
    # quotient is a midpoint of two doubles, which go to float()
    rng = np.random.default_rng(19)
    m = rng.integers(0, 10**19, size=100_000, dtype=np.uint64)
    lines = [f"0.{v:019d}" for v in m.tolist()]
    data = "\n".join(lines).encode()
    starts = np.arange(m.size, dtype=np.int64) * 22
    _, certified = io._canonical_values(data, starts, starts + 21)
    assert 0 < np.count_nonzero(~certified) < 200
    path = tmp_path / "digits.txt"
    path.write_bytes(data)
    assert _points(path).tobytes() == np.array([float(v) for v in lines]).tobytes()


def _near_a_midpoint(token):
    """Whether the decimal lies within 2^-63 of a midpoint of two doubles,
    relatively: where its quotient in 64 bits can land on one."""
    v, x = Fraction(token), float(token)
    mid = (Fraction(x) + Fraction(math.nextafter(x, math.inf if v > x else -math.inf))) / 2
    return abs(v - mid) < mid / 2**63


def test_plain_file_converts_no_canonical_line_as_a_str(tmp_path, monkeypatch):
    # but the few whose longdouble quotient may be a midpoint
    x, text = _plain_text(20_000, 9)
    path = _write(tmp_path, text + "5e-1\n\n  # c\n.5 \n")
    converted = []
    real = io._token_values

    def spy(tokens):
        converted.extend(tokens)
        return real(tokens)

    monkeypatch.setattr(io, "_token_values", spy)
    assert _points(path).tobytes() == np.concatenate([x, [0.5, 0.5]]).tobytes()
    is_canonical = re.compile(r"0\.[0-9]{1,19}").fullmatch
    canonical = [t for t in converted if is_canonical(t)]
    others = [f"{v!r}" for v in x.tolist() if not is_canonical(f"{v!r}")]
    assert len(others) > x.size // 97  # the exponents and the reprs of 20 digits
    assert [t for t in converted if not is_canonical(t)] == others + ["5e-1", ".5"]
    assert len(canonical) < 40 and all(map(_near_a_midpoint, canonical))


def test_plain_file_peak_is_its_bytes_and_its_points(tmp_path):
    # 2e5 reprs: the bytes, 16 bytes per line (line ends, values) and
    # either a bool per byte (the split) or a block of lines at about 100
    # bytes a line (read_points' docstring)
    x, text = _plain_text(200_000, 12)
    path = _write(tmp_path, text)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        seq = read_points(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seq.points.tobytes() == x.tobytes()
    assert peak < size + 16 * x.size + max(size, 100 * core._BLOCK) + 2**20


def test_rejected_plain_file_peak_is_one_block_of_lines(tmp_path):
    # the last of 2e5 reprs is 1.0: only its block is read again, line by
    # line, under the bound of a file read_points accepts
    x, text = _plain_text(200_000, 12)
    path = _write(tmp_path, text[:text.rindex("\n", 0, -1) + 1] + "1.0\n")
    size = path.stat().st_size
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=":200001: point 1.0 outside"):
            read_points(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size + 16 * x.size + max(size, 100 * core._BLOCK) + 2**20


def _repr_file(x):
    """The bytes write_points writes: the header and repr's line of each point."""
    return (f"# {len(x)} points in [0,1)\n" + "".join(f"{v!r}\n" for v in x)).encode()


def _written(path, x):
    io.write_points(path, PointSequence(np.array(x, dtype=np.float64)))
    return path.read_bytes()


def _double(bits):
    return float(np.uint64(bits).view(np.float64))


_BITS_OF = {v: int(np.float64(v).view(np.uint64)) for v in (1e-4, 1.0)}
# doubles in [0, 1) by their bits: any (mostly below 1e-4, subnormals
# too), any in [1e-4, 1), the zeros, the powers of two, the ties k / 2^j
# and the neighbours of 10^-d
_WRITTEN_DOUBLES = st.one_of(
    st.integers(0, _BITS_OF[1.0] - 1).map(_double),
    st.integers(_BITS_OF[1e-4], _BITS_OF[1.0] - 1).map(_double),
    st.sampled_from([0.0, -0.0]),
    st.integers(1, 1074).map(lambda j: 2.0**-j),
    st.integers(1, 53).flatmap(lambda j: st.integers(1, 2**j - 1).map(lambda k: k / 2**j)),
    st.tuples(st.integers(1, 20), st.integers(-3, 3)).map(
        lambda t: _double(int(np.float64(10.0**-t[0]).view(np.uint64)) + t[1])),
)


@settings(max_examples=300, deadline=None)
@given(x=st.lists(_WRITTEN_DOUBLES, min_size=1, max_size=40))
def test_written_lines_are_the_reprs(tmp_path_factory, x):
    path = tmp_path_factory.mktemp("write") / "pts.txt"
    assert _written(path, x) == _repr_file(x)


@pytest.mark.parametrize("v, line", [
    (0.50000762939453125, "0.5000076293945312"),  # a tie of 16 digits, to even
    (0.1, "0.1"), (0.0001, "0.0001"), (math.nextafter(1e-4, 0.0), "9.999999999999999e-05"),
    (math.nextafter(1.0, 0.0), "0.9999999999999999"), (0.5, "0.5"), (-0.0, "-0.0"),
    (5e-324, "5e-324"), (0.000123456789012345678, "0.00012345678901234567"),
])
def test_written_line_of_a_point(tmp_path, v, line):
    assert _written(tmp_path / "pts.txt", [v]) == f"# 1 points in [0,1)\n{line}\n".encode()


def test_written_blocks_splice_the_reprs_in_order(tmp_path, monkeypatch):
    # points that go to repr on both sides of each block boundary, as the
    # first and last point of a block and as a whole block; then blocks of
    # 1 and 7 points
    rng = np.random.default_rng(24)
    b = core._BLOCK
    x = rng.random(2 * b + 3)
    for i in (0, b - 1, b, b + 1, 2 * b, 2 * b + 2):
        x[i] = [0.0, 2.0**-3, 3e-7, 0.000123456789012345678][i % 4]
    path = tmp_path / "pts.txt"
    assert _written(path, x.tolist()) == _repr_file(x.tolist())
    small = [*x[:30].tolist(), 0.0, 0.5, 0.25, 1e-9, *x[-30:].tolist(), 0.5]
    for block in (1, 7):
        monkeypatch.setattr(core, "_BLOCK", block)
        assert _written(path, small) == _repr_file(small)
        assert _written(path, [0.0] * 9) == _repr_file([0.0] * 9)


def test_uniform_points_reach_repr_only_where_listed(tmp_path, monkeypatch):
    # the zeros and points below 1e-4, the powers of two, and the points
    # of more than 19 places; 2e5 uniform points have some of the first
    # and last kind
    x = np.random.default_rng(1729).random(200_000)
    x[[5, 6, 7]] = [0.5, 2.0**-13, 0.0]
    to_repr = []
    real = io._repr_line

    def spy(v):
        to_repr.append(v)
        return real(v)

    monkeypatch.setattr(io, "_repr_line", spy)
    assert _written(tmp_path / "pts.txt", x) == _repr_file(x.tolist())
    tiny = [v for v in x.tolist() if v < 1e-4]
    places = [v for v in x.tolist() if v >= 1e-4 and len(repr(v)) > 21]
    assert len(tiny) > 5 and len(places) > 20
    assert to_repr == [v for v in x.tolist()
                       if v < 1e-4 or math.frexp(v)[0] == 0.5 or len(repr(v)) > 21]


@pytest.mark.parametrize("block", [1 << 12, None])
def test_written_points_peak_is_one_block(tmp_path, monkeypatch, block):
    # 2^18 points: about 130 bytes per point of a block (4 MiB at 2^15),
    # not a float and a str per point (more than 8 MiB)
    if block:
        monkeypatch.setattr(core, "_BLOCK", block)
    seq = PointSequence(np.random.default_rng(18).random(1 << 18))
    path = tmp_path / "pts.txt"
    tracemalloc.start()
    try:
        io.write_points(path, seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == _repr_file(seq.points.tolist())
    assert peak < 160 * core._BLOCK + 2**16
