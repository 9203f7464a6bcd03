"""Circle arithmetic, the point container, the window primitive, exact
float sums, and Stirling numbers.

Points of the unit circle R/Z are given as floats in [0,1).  The one
float functional is signed_distance(x) = ((x)), the representative of
x mod 1 in (-1/2, 1/2], and ||x-y|| = |((x-y))| where a float distance
is wanted.

Every statistic uses one exact representation instead: uint64 multiples
of 2^-64 (to_grid).  A float >= 2^-11 is exact on that grid; a smaller
one floors to it, which keeps the order.  Grid differences wrap modulo
2^64, the circle itself.  Each threshold (a scale s/N, a box bound a/N)
becomes, once and exactly, an integer arc of grid offsets (grid_arc), so
||x-y|| <= s/N and a/N <= ((x-y)) <= b/N are integer tests (in_arc) and
one window primitive, self_window_blocks, finds their occupants: the
fast counts and the oracles read every tie the same way.  A test
function of the weighted sums gets the same offsets, the int64 grid
difference times N 2^-64, and the tent sum behind
intervalstats.i_k_via_correlation takes them as integers.

The 1-D window statistics (r_k_distinct, r_k_star, r_k_box, c_k_star,
and the profile and moments of F(t,s,N), whose breakpoints are windows
of twice F's radius) take their windows from self_window_blocks, _BLOCK
anchors at a time, and reduce each block before the next: their
transient memory is a block's, a few MiB, plus what the widest window
adds (see each statistic), never O(N); r_k_testfn and r_k_consecutive
keep the blocks' runs, 16 bytes per point.  _BLOCK = 2^15 is the one
block size of every bounded pass in corrkit, read at call time: the
weighted sums' row slices, the pair-sum sweeps and trial chunks of
arithmetic, the lines of io and the terms of exact_sum too.  A block's
windows of a symmetric arc cost one vectorized pass per neighbour
offset, up to min(widest one-sided window, _PASS_CAP = 8), each one
subtraction over the block's slice of the unrolled grid, counted per
anchor in two byte-wide counters (11 bytes per anchor of the block with
the differences and mask, 8 more where the slice is a copy: a stack,
or a block at either end of the grid), plus binary searches for only
the anchors whose windows are still open after them: for windows of a
few points, hardly any.  A grid in one block whose windows are wider
(2 or more points a side on average) takes no passes: one search of
the ends, and the starts read off the ends' counts.
self_window_blocks takes one sorted grid, shape (m,), or a stack of
them, shape (c, m), one grid per row and each its own circle, in blocks
of _BLOCK // c positions of every row; the dilation experiment's trials
(arithmetic.metric_r3_experiment) read their window counts off such a
stack.  The windows of an arc that is not symmetric, around the grid's own points
or around any centres (F at one point t, intervalstats.f_count), come
from arc_window.  Every search of a window end is one routine,
_unrolled_search, on the same rows, a view of the grid or stack, and
every range of unrolled positions is read by one, unrolled.

Float results that sum many terms use exact_sum, math.fsum's correctly
rounded sum computed by error-free extraction passes over blocks of the
terms, so they do not depend on the order of the terms.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import ParameterError

GRID = 1 << 64  # grid steps around the circle
_HALF = 1 << 63


def signed_distance(x):
    """((x)): the representative of x mod 1 in (-1/2, 1/2].

    x - rint(x) is exact for every finite x (it is a multiple of x's
    last place, and at most 1/2); x % 1.0 is not for negative x, where
    it rounds x + 1.  rint takes ties to even, so -1/2 becomes 1/2.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.asarray(x - np.rint(x))  # an array for 0-d x too, to assign into
    out[out == -0.5] = 0.5
    return float(out) if out.ndim == 0 else out


def to_grid(x) -> np.ndarray:
    """Floats in [0,1) as uint64 multiples of 2^-64: floor(x 2^64), exact
    for x >= 2^-11 (the scaling by 2^64 is exact, the cast truncates)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape, dtype=np.uint64)
    np.multiply(x, float(GRID), out=out, casting="unsafe")  # cast chunk by chunk, no float copy
    return out


class PointSequence:
    """A finite ordered list of points in [0,1) with cached sorted views.

    Immutable after construction; duplicate values are permitted and all
    counting formulas downstream are stated over indices, not values.
    Construction is one sort of the values.
    """

    __slots__ = ("_points", "_sorted", "_grid")

    def __init__(self, points):
        pts = np.array(points, dtype=np.float64, copy=True)
        if pts.ndim != 1 or pts.size == 0:
            raise ParameterError("a point sequence needs at least one point")
        srt = np.sort(pts)
        # NaN sorts last and fails the second test; -inf and +inf fail one of the two
        if not (srt[0] >= 0.0 and srt[-1] < 1.0):
            raise ParameterError("all points must lie in [0,1)")
        self._points = pts
        self._sorted = srt
        self._grid = to_grid(srt)
        for a in (self._points, self._sorted, self._grid):
            a.setflags(write=False)

    def __len__(self) -> int:
        return self._points.size

    @property
    def n(self) -> int:
        return self._points.size

    @property
    def points(self) -> np.ndarray:
        """Points in original order (read-only view)."""
        return self._points

    @property
    def sorted_points(self) -> np.ndarray:
        return self._sorted

    @property
    def sorted_grid(self) -> np.ndarray:
        """sorted_points as uint64 multiples of 2^-64 (see to_grid)."""
        return self._grid

    def __repr__(self) -> str:
        return f"PointSequence(n={len(self)})"


def check_scale(s: float, n: int) -> None:
    """0 < s <= N: the window of a scale s may cover the circle, no more."""
    if not (0 < s <= n):
        raise ParameterError(f"need 0 < s <= N = {n}")


def check_half(bounds, n: int, message: str) -> None:
    """Every |bound| <= N/2 (no constraint arc wraps; NaN fails too); message
    formats {b} and {half}."""
    for b in bounds:
        if not abs(b) <= n / 2:
            raise ParameterError(message.format(b=b, half=n / 2))


def grid_arc(a: float, b: float, n: int) -> tuple[int, int]:
    """a/N <= ((y - c)) <= b/N as grid offsets (ceil(a 2^64/N), floor(b 2^64/N)),
    clipped to the range (-2^63, 2^63] of ((.)); ||y - c|| <= s/N is grid_arc(-s, s, N)."""
    return (max(math.ceil(Fraction(a) * GRID / n), 1 - _HALF),
            min(math.floor(Fraction(b) * GRID / n), _HALF))


def in_arc(d: np.ndarray, arc: tuple[int, int]) -> np.ndarray:
    """lo <= ((d)) <= hi for wrapped uint64 differences d = y - c."""
    return d - arc[0] % GRID <= arc[1] - arc[0]  # all False when hi < lo


# elements per block of every bounded pass (anchors, rows, pair sums,
# trial points, lines, terms): each block's arrays stay cache-sized and
# the transient memory does not grow with N
_BLOCK = 1 << 15


def unrolled(grid: np.ndarray, first: int, last: int) -> np.ndarray:
    """U_p mod 2^64 = g_(p mod m) (see self_window_blocks) at the unrolled
    positions p = first, ..., last - 1 of one sorted grid, shape (m,), or
    of each grid of a stack, one per row, shape (c, m): a view of the
    grid where they lie on one lap, else one copy that joins the laps'
    slices (on a block's slice 3-5 times faster than take(mode="wrap"),
    2-core x86_64)."""
    m = grid.shape[-1]
    lap = first // m * m
    if last - lap <= m:
        return grid[..., first - lap:last - lap]
    return np.concatenate([grid[..., max(first - a, 0):last - a] for a in range(lap, last, m)], axis=-1)


def _unrolled_search(rows: np.ndarray, keys: np.ndarray, off: int, side: str) -> np.ndarray:
    """The unrolled positions (see self_window_blocks) of keys + off,
    -2^64 < off < 2^64, searched with side in sorted grids one per row,
    shape (c, m), for keys that ascend along each row, shape (c, k): the
    keys that pass 0 land a lap back, those that pass 2^64 a lap ahead,
    found by one comparison of keys + off mod 2^64 with the keys.

    A grid of at most _BLOCK points takes one search of its keys.  In a
    longer one, keys + off mod 2^64 ascend in two runs, before and after
    the keys that pass 0 or 2^64, and each run is searched only in the
    slice of the grid between the positions of its two end keys."""
    m = rows.shape[1]
    reach = keys + np.uint64(off % GRID)
    lapped = reach < keys if off > 0 else reach > keys  # none for off = 0
    pos = np.empty(keys.shape, dtype=np.intp)
    for row, key, lap, out in zip(rows, reach, lapped, pos):
        if m <= _BLOCK:
            out[:] = np.searchsorted(row, key, side=side)
            continue
        cut = int(np.count_nonzero(lap))  # the lapped keys are a prefix for off < 0
        cut = cut if off < 0 else key.size - cut
        for run in (slice(0, cut), slice(cut, key.size)):
            k = key[run]
            if k.size:
                a, z = np.searchsorted(row, k[[0, -1]], side=side)
                np.add(np.searchsorted(row[a:z], k, side=side), a, out=out[run])
    np.add(pos, m if off > 0 else -m, out=pos, where=lapped)
    return pos


def arc_window(rows: np.ndarray, keys: np.ndarray, arc: tuple[int, int]):
    """(start, end) of the windows of the arc (lo, hi), -2^63 <= lo, hi
    <= 2^63, around centres keys that ascend along each row, shape (c, k),
    in sorted grids one per row, shape (c, m), unrolled as in
    self_window_blocks: [start, end) holds the positions whose value
    lies in [key + lo, key + hi].  One search of each end
    (_unrolled_search); the whole circle, hi - lo >= 2^64 - 1, holds
    every point once and takes one."""
    lo, hi = arc
    start = _unrolled_search(rows, keys, lo, "left")
    return start, (start + rows.shape[1] if hi - lo >= GRID - 1
                   else _unrolled_search(rows, keys, hi, "right"))


# offsets passed over per block of anchors before the windows still
# growing are searched instead
_PASS_CAP = 8


def _passed_window(grid: np.ndarray, b: int, size: int, r: int):
    """(start, end) of the anchors b, ..., b + size - 1 for the arc (-r, r),
    0 <= r < 2^64, found by passes over the offsets t = 1, 2, ...

    grid is one sorted grid of m points, shape (m,), or a stack of them,
    shape (c, m), one grid per row and each a circle of its own: start
    and end then hold the block's anchors of every grid, shape (c, size).

    Pass t takes d_j = U_(j+t) - U_j mod 2^64, the grid distance from
    unrolled position j to j + t (U as in self_window_blocks), for j in
    [b - t, b + size), off one slice of the unrolled grid around the
    block (_window_passes): d_i <= r for anchor i moves its
    end past i + t, d_(i-t) <= r its start back to i - t, as the arc is
    symmetric.  For t < m the distance only grows with t, whatever r, so
    a window that closes stays closed.  The one exception is a distance
    of exactly 2^64, between equal points a lap apart, which wraps to 0;
    it stays 2^64 at every larger t < m, so that side keeps growing to
    the last pass and is searched.  The passes stop when no window grew,
    after min(_PASS_CAP, m - 1) of them, or at the first offset where
    none closed (the windows are wide).  The windows still open are then
    searched grid by grid (_unrolled_search), all of a grid's at once if
    all are.

    A block of whole grids (b = 0, size = m) with r < 2^63 whose windows
    all are still open searches only the ends, one search per grid, and
    reads every start off them (_starts_off_ends).  Its passes pay only
    while hardly any of its windows outlasts them, so it takes none when
    its windows would hold 2 or more points a side on average
    (r m >= 2^65).
    """
    m = grid.shape[-1]
    whole = size == m and r < _HALF  # then the starts can be read off the ends
    cap = 0 if whole and r * m >= 2 * GRID else min(_PASS_CAP, m - 1)
    rows = grid.reshape(-1, m)  # a view, one row for one grid
    # the passes each anchor's end and start moved, and masks of the
    # anchors whose end, start may still grow
    ahead, behind, ends, starts = _window_passes(rows, b, size, cap, r)
    at_b = np.arange(b, b + size)  # after the passes' arrays are freed
    start, end = np.subtract(at_b, behind), np.add(at_b, ahead)
    end += 1
    del at_b, ahead, behind  # before any search
    if whole and ends.all() and starts.all():  # every window open
        end[:] = _unrolled_search(rows, rows, r, "right")
        _starts_off_ends(end, start)
    else:
        for bound, off, side, mask in ((end, r, "right", ends), (start, -r, "left", starts)):
            for i in np.flatnonzero(mask.any(axis=1)):  # no search for a grid with none open
                row = rows[i:i + 1]
                at = slice(None) if mask[i].all() else np.flatnonzero(mask[i])
                bound[i][at] = _unrolled_search(row, row[:, b:b + size][:, at], off, side)[0]
    return start.reshape(grid[..., b:b + size].shape), end.reshape(grid[..., b:b + size].shape)


def _starts_off_ends(end: np.ndarray, start: np.ndarray) -> None:
    """start of every anchor of whole grids, one per row, shape (c, m),
    from the unrolled ends of a symmetric arc (-r, r) with r < 2^63,
    written into start.

    Each window then holds a point at most once, so E_i lies in
    [i + 1, i + m], and i is in j's window exactly when j is in i's.
    Anchor j's window reaches back over the i < j with E_i > j and the
    i > j with E_i > j + m, so with C[x] = #{i : E_i <= x} its unrolled
    start is C[j] + C[j + m] - m.  One bincount of the ends, shifted by
    2m per grid, gives every grid's C at once."""
    c, m = end.shape
    shift = np.arange(0, 2 * m * c, 2 * m)[:, None]
    end += shift
    ended = np.bincount(end.ravel(), minlength=2 * m * c).reshape(c, 2 * m)
    end -= shift
    np.cumsum(ended, axis=1, out=ended)
    np.add(ended[:, :m], ended[:, m:], out=start)
    start -= m


def _window_passes(rows: np.ndarray, b: int, size: int, cap: int, r: int):
    """The passes of _passed_window over t = 1, ..., at most cap < m, for
    sorted grids one per row, shape (c, m): returns how far each anchor's
    end and start moved, and masks of the anchors whose end and whose
    start are still growing, each of shape (c, size).  The moves are
    counted in the narrowest unsigned type that holds cap, a byte for the
    default cap.

    The passes read the unrolled positions b - cap, ..., b + size + cap - 1
    of every row once (unrolled: a view for an interior block of one
    grid, a copy for a stack or a block at either end), laid end to end
    as one flat array x of w = size + 2 cap per row.  Pass t is one
    subtraction x[t:] - x[:-t] and one comparison over all of it: a row's
    anchors' ends read d_j at columns [cap, cap + size), their starts at
    [cap - t, cap - t + size); a row's last t distances run into the next
    row and are never read.  The distances, mask and counters take 11
    bytes per anchor, and a copied x 8 more."""
    c = rows.shape[0]
    ahead = np.zeros((c, size), dtype=np.min_scalar_type(cap))
    behind = np.zeros_like(ahead)
    if not cap:
        every = np.ones(ahead.shape, dtype=bool)
        return ahead, behind, every, every
    x = unrolled(rows, b - cap, b + size + cap).reshape(-1)
    d, near = np.empty_like(x), np.empty(x.shape, dtype=bool)
    ok = near.reshape(c, -1)
    growing, radius = [ahead.size, ahead.size], np.uint64(r)  # ends, starts
    for t in range(1, cap + 1):
        np.less_equal(np.subtract(x[t:], x[:-t], out=d[:-t]), radius, out=near[:-t])
        ends, starts = ok[:, cap:cap + size], ok[:, cap - t:cap - t + size]
        ahead += ends.view(np.uint8)  # no cast per pass
        behind += starts.view(np.uint8)
        grew = [int(np.count_nonzero(ends)), int(np.count_nonzero(starts))]
        if grew == [0, 0] or grew == growing:  # all closed, or none closed at t: wide windows
            break
        growing = grew
    return ahead, behind, ends, starts


def self_window_blocks(grid: np.ndarray, arcs):
    """The windows of a sorted grid centred on itself, in blocks of at
    most _BLOCK anchors: yields (b, [(start, end) per arc]).

    grid is one sorted grid of m points, shape (m,), or a stack of c of
    them, shape (c, m), one grid per row and each a circle of its own (a
    chunk of dilation trials): a block then holds the positions b, ...,
    b + size - 1 of every row, size <= _BLOCK // c (at least one), and
    start and end have the block's shape grid[..., b:b + size].shape.

    [start[..., t], end[..., t]) is the window of anchor i = b + t for
    the arc (lo, hi), -2^63 <= lo, hi <= 2^63, unrolled around the
    circle: position p holds U_p = g_(p mod m) + 2^64 floor(p/m), the
    window holds the positions whose value lies in [g_i + lo, g_i + hi],
    so cnt = end - start (or <= 0: empty) and start, end ascend with i;
    start <= i < end only for arcs that contain 0.  hi - lo >= 2^64 - 1
    is the whole circle, every point once, but a symmetric (-r, r) with
    2^63 <= r < 2^64 is [g_i - r, g_i + r] unrolled: it can hold more
    than m positions, a point twice if within r of g_i both ways.

    A symmetric arc (-r, r), 0 <= r < 2^64, as from grid_arc(-s, s, N),
    takes one pass per neighbour offset, up to min(widest one-sided
    window, _PASS_CAP), plus searches for the anchors whose windows are
    still open after them (_passed_window; past half a lap, all of them);
    grids of at most _BLOCK points in all whose windows all stay open
    search only their ends and read the starts off them.  Any other arc
    takes arc_window: one search per anchor for the whole circle, two
    otherwise.  Every search is _unrolled_search's, on the grid's rows
    as they are: one search of a grid of at most _BLOCK points, and in a
    longer grid each run of keys confined to the slice of the grid it
    reaches.  A block holds start and end per arc and, while it finds
    one arc's windows, either the passes' differences, mask and two
    byte-wide counters (11 bytes per anchor, and 8 more for the copied
    slice of a stack or an end block), or the passes' mask and a
    search's indices, keys, their sums with the offset, lap mask and
    positions, or the ends' counts (at most 42): at most 16 a + 42 bytes
    per anchor for a arcs, whatever N and the window widths.
    """
    m = grid.shape[-1]
    step = max(1, _BLOCK // math.prod(grid.shape[:-1]))
    rows = grid.reshape(-1, m)  # a view, one row for one grid

    def window(b, size, lo, hi):  # (start, end) of the block's anchors for the arc (lo, hi)
        if lo == -hi:
            return _passed_window(grid, b, size, hi)
        wins = arc_window(rows, rows[:, b:b + size], (lo, hi))
        return tuple(w.reshape(grid[..., b:b + size].shape) for w in wins)

    for b in range(0, m, step):
        size = min(step, m - b)
        yield b, [window(b, size, lo, hi) for lo, hi in arcs]


# every finite double is an integer multiple of 2^-1074, so q 2^1126 is an
# int for every q below
_EXACT_UNIT = 1 << 1126
# with sum |x| below this, no sigma below overflows (math.fsum sums the rest)
_EXACT_LIMIT = 2.0**1000


def _scaled_sum(x: np.ndarray) -> int:
    """sum(x) 2^1126 as an exact int, for finite float64 x with sum |x|
    below _EXACT_LIMIT.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation", SIAM J. Sci. Comput. 2008), in blocks of _BLOCK terms: with
    max |p| < 2^e and sigma = 2^(e + bit_length(n + 2)) >= 2^e (n + 2),
    q = (p + sigma) - sigma holds the high bits of each of the n terms
    p, p - q the rest, both exact, and every partial sum of the q is a
    multiple of ulp(sigma) below sigma, so q.sum() is exact in any order.
    Each pass leaves |p| <= 2^-53 sigma, 53 - bit_length(n + 2) bits (37
    in a full block) below the last max |p|, until p is all zero.
    """
    total = 0
    high, rest = np.empty(min(x.size, _BLOCK)), np.empty(min(x.size, _BLOCK))
    for b in range(0, x.size, _BLOCK):
        p = x[b:b + _BLOCK]
        q, width = high[:p.size], (p.size + 2).bit_length()
        while top := max(float(p.max()), -float(p.min())):
            sigma = math.ldexp(1.0, math.frexp(top)[1] + width)
            np.add(p, sigma, out=q)
            q -= sigma
            p = np.subtract(p, q, out=rest[:p.size])  # x itself is not written
            num, den = float(q.sum()).as_integer_ratio()
            total += num * (_EXACT_UNIT // den)
    return total


def exact_chunk_sum(chunks) -> float:
    """exact_sum of the concatenation of the arrays chunks() yields,
    without concatenating them.

    chunks is called a second time only when the terms hold a non-finite
    value or sum |x| may reach _EXACT_LIMIT = 2^1000, where the
    extraction's sigma could overflow and math.fsum's special values and
    overflow errors depend on the order of the terms: it then runs
    math.fsum over every term in order, which defines the result.
    """
    bound, total = 0.0, 0
    for x in chunks():
        # size * max |x|, a bound on sum |x|: inf or NaN for a non-finite x
        bound += x.size and max(float(x.max()), -float(x.min())) * x.size
        if not bound < _EXACT_LIMIT:
            return math.fsum(itertools.chain.from_iterable(x.tolist() for x in chunks()))
        total += _scaled_sum(x)
        del x  # not held while chunks() makes the next one
    return total / _EXACT_UNIT  # int true division rounds correctly, once


def exact_sum(x) -> float:
    """math.fsum(x.tolist()) bit for bit, for a float64 array, from
    vectorized extraction passes instead of a Python float per term."""
    x = np.asarray(x, dtype=np.float64).ravel()
    return exact_chunk_sum(lambda: (x,))


_STIRLING_ORDER = 16


def check_order(k: int) -> None:
    """2 <= k <= 16 for every statistic of order k: orders above the
    Stirling tables' are unsupported."""
    if k < 2:
        raise ParameterError("k must be >= 2")
    if k > _STIRLING_ORDER:
        raise ParameterError(f"orders above k = {_STIRLING_ORDER} are unsupported")


def _check_stirling(k: int, j: int) -> None:
    if not (0 <= j <= k <= _STIRLING_ORDER):
        raise ParameterError(
            f"Stirling index ({k},{j}) outside table of order {_STIRLING_ORDER}"
        )


@functools.cache
def _second_kind(k: int, j: int) -> int:
    """S(k,j) = j S(k-1,j) + S(k-1,j-1): partitions of a k-set into j blocks."""
    if k == 0 or j == 0:
        return int(k == j)
    return j * _second_kind(k - 1, j) + _second_kind(k - 1, j - 1)


@functools.cache
def _first_kind_unsigned(k: int, j: int) -> int:
    """c(k,j) = (k-1) c(k-1,j) + c(k-1,j-1): the unsigned coefficients of
    y(y-1)...(y-k+1) = sum_j (-1)^(k-j) c(k,j) y^j."""
    if k == 0 or j == 0:
        return int(k == j)
    return (k - 1) * _first_kind_unsigned(k - 1, j) + _first_kind_unsigned(k - 1, j - 1)


def stirling_second(k: int, j: int) -> int:
    """S(k,j), second kind: sum_j S(k,j) x(x-1)...(x-j+1) = x^k.  Exact int."""
    _check_stirling(k, j)
    return _second_kind(int(k), int(j))


def stirling_first_unsigned(m: int, i: int) -> int:
    """Coefficient c_i in y(y-1)...(y-m) = y^(m+1) - c_m y^m + c_(m-1) y^(m-1) - ...

    The product has m+1 factors, so this is the unsigned first-kind
    number of order m+1: c(m+1, i).
    """
    _check_stirling(m + 1, i)
    return _first_kind_unsigned(int(m) + 1, int(i))


def order_comparison_threshold(m: int) -> float:
    """2 * max coefficient of y(y-1)...(y-m): the smallest scale beyond which
    the cross-order bound R_m(s/3,N) <= (6/s) R_(m+1)(s,N) is guaranteed
    for large N.
    """
    if m < 2:
        raise ParameterError("order must be >= 2")
    return 2.0 * max(stirling_first_unsigned(m, i) for i in range(1, m + 1))


def falling_factorial(x: int, k: int) -> int:
    """x (x-1) ... (x-k+1), an exact int."""
    out = 1
    for t in range(k):
        out *= x - t
    return out
