"""Circle arithmetic, the point container, and Stirling-number tables.

Everything downstream works on points of the unit circle R/Z represented
as floats in [0,1).  The two elementary functionals are

    signed_distance(x)  ((x)), the representative of x mod 1 in (-1/2, 1/2]
    circle_distance(x,y)  ||x-y|| = |((x-y))|, in [0, 1/2]

All counting downstream uses closed inequalities (||.|| <= s/N); with
points stored as 64-bit floats an adversarial input sitting exactly on a
window boundary can flip a count by one ulp of rounding, so the test
suites avoid exact-boundary scales.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

DEFAULT_STIRLING_ORDER = 16


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


class PointSequence:
    """A finite ordered list of points in [0,1) with a cached sorted view.

    Immutable after construction; duplicate values are permitted and all
    counting formulas downstream are stated over indices, not values.
    """

    __slots__ = ("_points", "_sort_index", "_sorted")

    def __init__(self, points):
        pts = np.array(points, dtype=np.float64, copy=True)
        if pts.ndim != 1 or pts.size == 0:
            raise ParameterError("a point sequence needs at least one point")
        if not np.all(np.isfinite(pts)) or pts.min() < 0.0 or pts.max() >= 1.0:
            raise ParameterError("all points must lie in [0,1)")
        self._points = pts
        self._sort_index = np.argsort(pts, kind="stable")
        self._sorted = pts[self._sort_index]
        for a in (self._points, self._sort_index, self._sorted):
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

    def __repr__(self) -> str:
        return f"PointSequence(n={self.n})"


def count_within(sorted_pts: np.ndarray, centers, radius: float) -> np.ndarray:
    """#{j : ||p_j - c|| <= radius} for each center c, via the sorted view.

    Closed bounds on both sides.  The sorted array is tripled onto
    [-1, 2) so circular windows become plain interval lookups; for
    radius >= 1/2 the window is the whole circle.
    """
    centers = np.atleast_1d(np.asarray(centers, dtype=np.float64))
    n = sorted_pts.size
    if radius >= 0.5:
        return np.full(centers.shape, n, dtype=np.int64)
    ext = np.concatenate((sorted_pts - 1.0, sorted_pts, sorted_pts + 1.0))
    lo = np.searchsorted(ext, centers - radius, side="left")
    hi = np.searchsorted(ext, centers + radius, side="right")
    return (hi - lo).astype(np.int64)


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
