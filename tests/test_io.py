"""The point-file contract: which files read_points accepts, the exact
doubles it returns, and the line-numbered FormatError of every file it
rejects.  The reference is the plain line scan below."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corrkit import FormatError, io
from corrkit.io import read_points


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
    path = tmp_path / "pts.txt"
    path.write_bytes(text.encode("utf-8"))
    return path


def _message(tmp_path, text):
    path = _write(tmp_path, text)
    with pytest.raises(FormatError) as exc:
        read_points(path)
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
])
def test_rejected_files_name_the_line(tmp_path, text, message):
    assert _message(tmp_path, text) == message


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
])
def test_accepted_files_read_exact_doubles(tmp_path, text, points):
    assert _points(_write(tmp_path, text)).tobytes() == np.array(points).tobytes()  # sign of zero included


# a file is plain lines (values, comments, blanks, padded by spaces and
# tabs) with up to two odd lines put in: other spellings float() may or
# may not accept, other whitespace, other line ends
_PLAIN_VALUES = st.sampled_from(["0.5", "-0.0", "+.5", ".5", "5.", "1e-3", "5E-1", "1e-400"]) \
    | st.floats(min_value=0.0, max_value=1.0, exclude_max=True).map(repr)
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
                      st.sampled_from(["\n", "\r", "\x0c", "\u2028", " ", ""])).map("".join)


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
    # underscore between digits, Arabic-Indic digits
    x, text = _plain_text(2_000, 8)
    odd = "\xa00.5\xa0\r\n# c\u20280.25\r\n0.2_5\r\n\u0660.\u0665\r\n"
    path = _write(tmp_path, "  # indented\n\n" + odd + text.replace("\n", " \t\r\n"))
    monkeypatch.setattr(io, "_scan_points", lambda *a: pytest.fail("valid file went to the line scan"))
    assert _points(path).tobytes() == np.concatenate([[0.5, 0.25, 0.25, 0.5], x]).tobytes()
