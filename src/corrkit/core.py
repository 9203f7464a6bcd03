"""Circle arithmetic, the point container, the window primitive, and
Stirling-number tables.

Points of the unit circle R/Z are given as floats in [0,1).  The two
float functionals are

    signed_distance(x)  ((x)), the representative of x mod 1 in (-1/2, 1/2]
    circle_distance(x,y)  ||x-y|| = |((x-y))|, in [0, 1/2]

Every count uses one exact representation instead: uint64 multiples of
2^-64 (to_grid).  A float >= 2^-11 is exact on that grid; a smaller one
floors to it, which keeps the order.  Grid differences wrap modulo 2^64,
the circle itself.  Each threshold (a scale s/N, a box bound a/N)
becomes, once and exactly, an integer arc of grid offsets (grid_arc), so
||x-y|| <= s/N and a/N <= ((x-y)) <= b/N are integer tests (in_arc) and
one window primitive (window, window_pairs) finds their occupants: the
fast counts and the oracles read every tie the same way.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import ParameterError

DEFAULT_STIRLING_ORDER = 16

GRID = 1 << 64  # grid steps around the circle
_HALF = 1 << 63


def signed_distance(x):
    """((x)): the representative of x mod 1 in (-1/2, 1/2].

    Equals {x} when {x} <= 1/2 and {x} - 1 otherwise.
    """
    f = np.asarray(x, dtype=np.float64) % 1.0
    out = np.where(f <= 0.5, f, f - 1.0)
    return float(out) if np.ndim(x) == 0 else out


def circle_distance(x, y):
    """||x - y||: distance on the circle, in [0, 1/2].

    Computed as min(|{x}-{y}|, 1-|{x}-{y}|), which is symmetric bit for
    bit; it can differ from |((x-y))| by one rounding of the mod-1
    reduction.
    """
    d0 = np.abs(np.asarray(x, dtype=np.float64) % 1.0 - np.asarray(y, dtype=np.float64) % 1.0)
    d = np.minimum(d0, 1.0 - d0)
    return float(d) if np.ndim(d) == 0 else d


def positive_part(x):
    """{x}^+ = max(x, 0)."""
    if np.ndim(x) == 0:
        return x if x > 0 else 0.0
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


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
    """

    __slots__ = ("_points", "_sort_index", "_sorted", "_grid")

    def __init__(self, points):
        pts = np.array(points, dtype=np.float64, copy=True)
        if pts.ndim != 1 or pts.size == 0:
            raise ParameterError("a point sequence needs at least one point")
        if not np.all(np.isfinite(pts)) or pts.min() < 0.0 or pts.max() >= 1.0:
            raise ParameterError("all points must lie in [0,1)")
        self._points = pts
        self._sort_index = np.argsort(pts, kind="stable")
        self._sorted = pts[self._sort_index]
        self._grid = to_grid(self._sorted)
        for a in (self._points, self._sort_index, self._sorted, self._grid):
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
    def sort_index(self) -> np.ndarray:
        """Permutation p with points[p] non-decreasing (stable)."""
        return self._sort_index

    @property
    def sorted_points(self) -> np.ndarray:
        return self._sorted

    @property
    def sorted_grid(self) -> np.ndarray:
        """sorted_points as uint64 multiples of 2^-64 (see to_grid)."""
        return self._grid

    def __repr__(self) -> str:
        return f"PointSequence(n={self.n})"


def check_scale(s: float, n: int) -> None:
    """0 < s <= N: the window of a scale s may cover the circle, no more."""
    if not (0 < s <= n):
        raise ParameterError(f"need 0 < s <= N = {n}")


def check_half(bounds, n: int, message: str) -> None:
    """Every |bound| <= N/2 (no constraint arc wraps); message formats {b} and {half}."""
    for b in bounds:
        if abs(b) > n / 2:
            raise ParameterError(message.format(b=b, half=n / 2))


def grid_arc(a: float, b: float, n: int) -> tuple[int, int]:
    """a/N <= ((y - c)) <= b/N as grid offsets (ceil(a 2^64/N), floor(b 2^64/N)),
    clipped to the range (-2^63, 2^63] of ((.)); ||y - c|| <= s/N is grid_arc(-s, s, N)."""
    return (max(math.ceil(Fraction(a) * GRID / n), 1 - _HALF),
            min(math.floor(Fraction(b) * GRID / n), _HALF))


def in_arc(d: np.ndarray, arc: tuple[int, int]) -> np.ndarray:
    """lo <= ((d)) <= hi for wrapped uint64 differences d = y - c."""
    return d - arc[0] % GRID <= arc[1] - arc[0]  # all False when hi < lo


def window(grid: np.ndarray, centers: np.ndarray, arc: tuple[int, int]):
    """(lo, cnt): for each uint64 center c, the cnt occupants y with y - c
    in a nonempty arc sit at positions lo, lo+1, ... of the sorted grid,
    cyclically."""
    start = centers + arc[0] % GRID
    lo = np.searchsorted(grid, start, side="left")
    if arc[1] - arc[0] >= GRID - 1:  # the whole circle: every point once
        return lo, np.full(lo.shape, grid.size, dtype=np.int64)
    end = start + (arc[1] - arc[0])
    cnt = np.searchsorted(grid, end, side="right") - lo
    cnt[end < start] += grid.size  # the arc wraps past 0
    return lo, cnt


def window_pairs(lo: np.ndarray, cnt: np.ndarray):
    """(anchor, occupant) positions of every occupant of the windows
    centred on the sorted grid itself, sorted by anchor."""
    anchor = np.repeat(np.arange(cnt.size), cnt)
    occupant = np.arange(anchor.size)
    occupant -= np.repeat(np.cumsum(cnt) - cnt - lo, cnt)
    occupant[occupant >= cnt.size] -= cnt.size
    return anchor, occupant


class StirlingTables:
    """Exact tables of Stirling numbers up to a configured order.

    second_kind[k][j] = S(k,j), the number of partitions of a k-set into
    j nonempty blocks; satisfies sum_j S(k,j) x(x-1)...(x-j+1) = x^k.

    first_kind_unsigned[m][i] = c(m,i) with the recurrence
    c(m,i) = (m-1) c(m-1,i) + c(m-1,i-1); these are the unsigned
    coefficients of the falling factorial:
    y(y-1)...(y-m+1) = sum_i (-1)^(m-i) c(m,i) y^i.

    Entries are Python ints, so every value is exact.
    """

    def __init__(self, max_order: int = DEFAULT_STIRLING_ORDER):
        if max_order < 1:
            raise ParameterError("max_order must be >= 1")
        self.max_order = max_order
        m = max_order
        s2 = [[0] * (m + 1) for _ in range(m + 1)]
        s2[0][0] = 1
        for k in range(1, m + 1):
            for j in range(1, k + 1):
                s2[k][j] = j * s2[k - 1][j] + s2[k - 1][j - 1]
        c1 = [[0] * (m + 1) for _ in range(m + 1)]
        c1[0][0] = 1
        for k in range(1, m + 1):
            for j in range(1, k + 1):
                c1[k][j] = (k - 1) * c1[k - 1][j] + c1[k - 1][j - 1]
        self.second_kind = s2
        self.first_kind_unsigned = c1

    def _check(self, k: int, j: int) -> None:
        if not (0 <= j <= k <= self.max_order):
            raise ParameterError(
                f"Stirling index ({k},{j}) outside table of order {self.max_order}"
            )


TABLES = StirlingTables(DEFAULT_STIRLING_ORDER)


def stirling_second(k: int, j: int) -> int:
    """S(k,j), second kind."""
    TABLES._check(k, j)
    return TABLES.second_kind[k][j]


def stirling_first_unsigned(m: int, i: int) -> int:
    """Coefficient c_i in y(y-1)...(y-m) = y^(m+1) - c_m y^m + c_(m-1) y^(m-1) - ...

    The product has m+1 factors, so this is the unsigned first-kind
    number of order m+1: c(m+1, i).
    """
    TABLES._check(m + 1, i)
    return TABLES.first_kind_unsigned[m + 1][i]


def order_comparison_threshold(m: int) -> float:
    """2 * max coefficient of y(y-1)...(y-m): the smallest scale beyond which
    the cross-order bound R_m(s/3,N) <= (6/s) R_(m+1)(s,N) is guaranteed
    for large N.
    """
    if m < 2:
        raise ParameterError("order must be >= 2")
    return 2.0 * max(stirling_first_unsigned(m, i) for i in range(1, m + 1))


def falling_factorial(x, k: int):
    """x (x-1) ... (x-k+1); exact for int x, vectorized for arrays (float)."""
    if isinstance(x, (int, np.integer)):
        out = 1
        for t in range(k):
            out *= x - t
        return out
    x = np.asarray(x, dtype=np.float64)
    out = np.ones_like(x)
    for t in range(k):
        out = out * (x - t)
    return out
