"""The window-count function F(t,s,N), its exact moments, and
the tent test functions tying them to correlation sums.

F(t,s,N) = #{m <= N : ||x_m - t|| <= s/(2N)} is piecewise constant in t
with at most 2N breakpoints, so its moments

    I_k(s,N)  = int_0^1 F (F-1) ... (F-k+1) dt      (factorial moment)
    I_k*(s,N) = int_0^1 F^k dt                       (power moment)

are computed exactly from the step function rather than by quadrature;
exactness removes a tolerance from every identity built on them.  Arc m
is the grid range [x_m - R, x_m + R + 1) of core's 2^-64 grid, with
R = floor(s 2^64 / (2N)), so the profile is F at every grid point.  Each
arc endpoint, with F's value after it and the length to the next one,
is read off its anchor's window of radius 2R from
core.self_window_blocks: the arcs open there are those of the points
within 2R of x_m on one side (_breakpoints).  The integer segment
lengths are grouped by profile value, so each moment is an exact
rational sum_v w(v) L_v / 2^64, rounded once.  moments folds that
histogram block by block of anchors, so its peak is a block's windows,
values and lengths, and 8 bytes per profile value up to max F: 2.5 MiB
at N = 2^20, s = 2, whatever N.  sweep_profile puts each endpoint
straight into its slot of its O(N) arrays by its rank, with no sort.
Wide windows take core.self_window_blocks' binary searches: at
N = 1e5 (2-core x86_64) moments takes about 4.5 ms at s = 2 but 14 ms at
s = 32 and 15 ms at s = 4e4 or 6e4 (2R >= 2^63: two searches an anchor).

The tent test function

    g_s^(k)(y_1,...,y_{k-1}) = {s - max_i {y_i}^+ - max_i {-y_i}^+}^+

has integral s^k over R^(k-1), and N times the length of the common
intersection of the k arcs around x_1..x_k equals
g_s^(k)(N((x_1-x_2)), ..., N((x_1-x_k))) whenever N >= 4s.  That makes
I_k equal to the correlation sum r_k_testfn(g_s^(k)), and expands the
power moment through second-kind Stirling numbers:
I_k* = sum_j S(k,j) I_j with I_1 = s.  On the grid this holds exactly:
the arcs [g_m - R, g_m + R] of k distinct points share
(2R + 1 - max_j y_j^+ - max_j y_j^-)^+ grid points, y_j = g_(i_j) - g_(i_1)
as int64, so sum_v (v)_k L_v is that integer tent summed over the tuples
(_tent_sum), and i_k_via_correlation, its quotient by 2^64, equals
moments' I_k bit for bit; likewise sum_v v^k L_v =
S(k,1) N (2R + 1) + sum_(j>=2) S(k,j) T_j.  _tent is the one tent, on
float or int64 columns: g_eval takes the (m, k-1) arrays r_k_testfn
passes, and a one-row array for a single tuple.

For an integer L, g_L^(k) summed over the z in Z^(k-1) with |z_i| <= L
is exactly L^k: on each simplex of the Kuhn triangulation of Z^(k-1) the
largest and smallest y_i are fixed coordinates of fixed sign, so g_L is
linear there (its integer vertex values span at most 1): a sum of hat
functions of integral 1 weighted by its lattice values, all integers.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import (GRID, PointSequence, check_order, check_scale, falling_factorial, grid_arc,
                   stirling_second, to_grid)
from .correlations import _exact_product_sum, _tuple_offsets
from .errors import ConsistencyError, ParameterError


@dataclass(frozen=True)
class SweepProfile:
    """F(.,s,N) as a circular step function.

    breakpoints are uint64 points of the 2^-64 grid; values[i] holds F
    on [breakpoints[i], breakpoints[i+1]) and values[-1] on the wrap
    segment [breakpoints[-1], breakpoints[0]+1).  Coincident arc
    endpoints are merged into one breakpoint with an integer jump equal
    to their multiplicity.  At every grid point the profile equals the
    pointwise count f_count.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    s: float
    n: int

    def value_lengths(self) -> dict[int, int]:
        """{v: L_v}, L_v the exact number of grid points where F = v; the
        L_v sum to 2^64.

        The segment lengths np.diff(breakpoints, append=breakpoints[0]),
        the last one wrapping past 0, are summed per value in uint64 by
        np.add.at, the fold moments runs over its windows (_histogram).
        That is exact: the L_v sum to 2^64, and only the whole-circle
        profile, one breakpoint, has a lone value with L_v = 2^64; any
        other has mass N(2R+1) with 2R+1 odd and N < 2^64, never a
        multiple of 2^64, so it holds two values or more, each L_v < 2^64.
        """
        if self.breakpoints.size == 1:
            return {int(self.values[0]): GRID}
        return _histogram([(self.values, np.diff(self.breakpoints, append=self.breakpoints[0]))])

    def total_mass(self) -> float:
        """int_0^1 F dt = sum_v v L_v / 2^64, rounded once."""
        return sum(v * ln for v, ln in self.value_lengths().items()) / GRID

    def value_at(self, t):
        """Profile value at t (right-continuous step lookup)."""
        # index -1, before the first breakpoint, reads the wrap segment
        out = self.values[np.searchsorted(self.breakpoints, _grid_of(t), side="right") - 1]
        return int(out) if out.ndim == 0 else out

    def max_value(self) -> int:
        return int(self.values.max())


@dataclass(frozen=True)
class MomentReport:
    k: int
    s: float
    n: int
    i_k: float
    i_k_star: float


def _grid_of(t) -> np.ndarray:
    """t mod 1 on the grid (a float t % 1.0 of 1.0 wraps to 0)."""
    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise ParameterError("t must be finite")
    f = t % 1.0
    return to_grid(np.where(f < 1.0, f, 0.0))


def f_count(seq: PointSequence, t: float, s: float) -> int:
    """Exact #{m <= N : ||x_m - t|| <= s/(2N)}.

    With (lo, hi) = grid_arc(-s/2, s/2, N) and c the grid point of t,
    the count is the number of unrolled positions (core.self_window_blocks)
    with value in [c + lo, c + hi], the window core.arc_window finds: one
    search of each end, O(log N).  At s = N the clipped arc holds exactly
    2^64 grid values, so every point is counted once."""
    n = len(seq)
    check_scale(s, n)
    g = seq.sorted_grid
    start, end = core.arc_window(g[None], _grid_of([[t]]), grid_arc(-0.5 * s, 0.5 * s, n))
    return int(end[0, 0] - start[0, 0])


def _radius(seq: PointSequence, s: float):
    """R of the arcs [g_m - R, g_m + R + 1) of F, or None where they
    cover the circle (2R + 1 >= 2^64) and F = N everywhere."""
    n = len(seq)
    check_scale(s, n)
    r = grid_arc(-0.5 * s, 0.5 * s, n)[1]
    return r if 2 * r + 1 < GRID else None


def _breakpoints(g: np.ndarray, r: int):
    """F's arc endpoints from one window per anchor: yields, per block of
    anchors i of core.self_window_blocks at the arc (-2R, 2R), the starts
    g_i - R and then the ends g_i + R + 1 as (i, offset from g_i, bound,
    value after the endpoint, length to the next one).

    Sorted on the circle, ends before starts at ties and then by index,
    the endpoints are F's steps.  With [S_i, E_i) anchor i's unrolled
    window (U_p as in self_window_blocks), the arcs open after start i
    are those of S_i, ..., i, after end i those of i + 1, ..., E_i - 1.
    The next start is g_(i+1) - g_i on (a lap, 2^64, taken as 2^64 - 1,
    past the last anchor if all points are equal); the next end after
    start i is S_i's, U_(S_i) + 2R + 1 - g_i on, the next start after end
    i is E_i's, U_(E_i) - g_i - 2R - 1 on: each below 2^64, so uint64
    arithmetic is exact.  An endpoint of length 0 shares the next one's
    place; its value may not be F's, but it weighs nothing.  bound is
    S_i or E_i: i starts and S_i ends precede start i, E_i starts and i
    ends precede end i, counted from anchor 0's.
    """
    n, d = g.size, 2 * r
    for b, [(start, end)] in core.self_window_blocks(g, [(-d, d)]):
        i = np.arange(b, b + start.size)
        gi = g[b:b + start.size]
        step = g.take(i + 1, mode="wrap") - gi
        if i[-1] == n - 1 and step[-1] == 0:  # all points equal
            step[-1] = GRID - 1
        length = g.take(start, mode="wrap")  # in place: one block's array per kind
        length += np.uint64(d + 1)
        length -= gi
        yield i, -r % GRID, start, i + 1 - start, np.minimum(length, step, out=length)
        length = g.take(end, mode="wrap")
        length -= gi
        length -= np.uint64(d + 1)
        yield i, r + 1, end, end - i - 1, np.minimum(length, step, out=length)


def _histogram(segments) -> dict[int, int]:
    """{v: L_v} over the (values, uint64 lengths) arrays of segments of a
    profile: the lengths summed per value by np.add.at (see
    SweepProfile.value_lengths)."""
    sums = np.zeros(1, dtype=np.uint64)
    for v, ln in segments:
        top = int(v.max())
        if top >= sums.size:
            sums = np.concatenate((sums, np.zeros(top + 1 - sums.size, dtype=np.uint64)))
        np.add.at(sums, v, ln)
    present = np.flatnonzero(sums)
    return dict(zip(present.tolist(), sums[present].tolist()))


def _law(seq: PointSequence, s: float) -> dict[int, int]:
    """{v: L_v} of F(.,s,N) folded block by block over _breakpoints, and
    checked exactly: the L_v cover the circle once, sum_v L_v = 2^64,
    and each arc puts its 2R + 1 grid points into the mass sum_v v L_v."""
    n, r = len(seq), _radius(seq, s)
    if r is None:
        return {n: GRID}
    hist = _histogram((v, ln) for *_, v, ln in _breakpoints(seq.sorted_grid, r))
    if sum(hist.values()) != GRID or sum(v * ln for v, ln in hist.items()) != n * (2 * r + 1):
        raise ConsistencyError("profile lengths or mass do not add up to 2^64 and s")
    return hist


def sweep_profile(seq: PointSequence, s: float) -> SweepProfile:
    """The circular step function of F: each endpoint goes by its rank
    (_breakpoints) to its slot of two arrays of 2N entries, with no sort,
    so the peak is the output and one block.  Sorted from 0, the a starts
    below 0 (g_i < R) come a lap later and the c ends past 2^64
    (g_i >= 2^64 - R - 1) a lap earlier: rank q goes to q - a + c mod 2N.
    Endpoints of length 0 are marked (value -1) and dropped, so the last
    of equal endpoints carries their merged value; the kept ones are then
    copied, next to the arrays of 2N.
    """
    n, r = len(seq), _radius(seq, s)
    if r is None:
        return SweepProfile(np.zeros(1, np.uint64), np.array([n], dtype=np.int64), float(s), n)
    g = seq.sorted_grid
    shift = int(np.searchsorted(g, np.uint64(r))) + int(np.searchsorted(g, np.uint64(GRID - r - 1))) - n
    breakpoints, values = np.empty(2 * n, dtype=np.uint64), np.empty(2 * n, dtype=np.int64)
    for i, add, bound, value, length in _breakpoints(g, r):
        slot = (i + bound - shift) % (2 * n)
        breakpoints[slot] = g[i[0]:i[-1] + 1] + np.uint64(add)
        value[length == 0] = -1
        values[slot] = value
    kept = values >= 0
    if not kept.all():  # equal endpoints
        breakpoints, values = breakpoints[kept], values[kept]
    return SweepProfile(breakpoints, values, float(s), n)


def moments(seq: PointSequence, s: float, k: int) -> MomentReport:
    """Exact factorial moment I_k and power moment I_k* of F(.,s,N):
    sum_v (v)_k L_v / 2^64 and sum_v v^k L_v / 2^64 over the value
    histogram (_law), each an exact rational rounded once.  The
    histogram is folded block by block, so the peak memory is a block's
    plus 8 bytes per value up to max F."""
    check_order(k)  # before the windows: bell_prediction needs k up to the Stirling table's
    hist = _law(seq, s).items()
    i_k = sum(falling_factorial(v, k) * ln for v, ln in hist) / GRID
    i_k_star = sum(v**k * ln for v, ln in hist) / GRID
    return MomentReport(k, float(s), len(seq), i_k, i_k_star)


def _tent(top, cols: list[np.ndarray]) -> np.ndarray:
    """(top - max_i {y_i}^+ - max_i {-y_i}^+)^+ over m rows given as k - 1
    columns y_i, of the columns' type: float64 for g_eval, int64 for
    _tent_sum.  The terms are subtracted one at a time, so an int64 tent
    never holds their sum (up to 2^63 at N = 4s)."""
    # by columns: .max(axis=-1) over narrow rows is many times slower
    out = top - np.maximum(functools.reduce(np.maximum, cols), 0)  # int 0: int64 stays int64
    out += np.minimum(functools.reduce(np.minimum, cols), 0)
    return np.maximum(out, 0)


def g_eval(k: int, s: float, ys) -> np.ndarray:
    """g_s^(k) = {s - max_i {y_i}^+ - max_i {-y_i}^+}^+ over the rows of an
    (m, k-1) array: m values, the subtraction done before the final
    positive part, with no tolerance applied.  A one-row array evaluates
    a single tuple.
    """
    if k < 2 or not 0 < s < math.inf:  # NaN fails too
        raise ParameterError("need k >= 2 and a finite s > 0")
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim == 0 or ys.shape[-1] != k - 1:
        raise ParameterError(f"expected rows of {k - 1} coordinates, got shape {ys.shape}")
    return _tent(s, [ys[..., r] for r in range(k - 1)])


def _tent_sum(seq: PointSequence, s: float, k: int) -> int:
    """T_k, the integer tent summed over the distinct k-tuples: the grid
    points that the arcs [g_m - R, g_m + R] of F around the k points all
    hold, (2R + 1 - max_j y_j^+ - max_j y_j^-)^+ for the tuple's grid
    offsets y_j from its first point (_tuple_offsets at radius s), summed
    exactly (_exact_product_sum).  Where N >= 4s the arcs are at most a
    quarter of the circle, so that is their common part, and T_k equals
    sum_v (v)_k L_v over _law's histogram."""
    n = len(seq)
    if n < 4 * s:
        raise ParameterError(f"need N >= 4s, got N = {n}, s = {s}")
    offsets = _tuple_offsets(seq, float(s), k, chained=False)  # checks s before any grid_arc
    top = 2 * _radius(seq, s) + 1
    return sum(_exact_product_sum([_tent(top, cols)]) for cols in offsets())


def i_k_via_correlation(seq: PointSequence, s: float, k: int) -> float:
    """I_k computed from the correlation side: the sum of the tent over
    distinct tuples, in r_k_testfn's enumeration and memory, on the
    grid: _tent_sum / 2^64, rounded once, which equals moments(seq, s,
    k).i_k bit for bit.  Valid for N >= 4s, where the arc-intersection
    identity holds.
    """
    return _tent_sum(seq, s, k) / GRID


def bell_prediction(k: int, s: float) -> float:
    """sum_{j=1..k} S(k,j) s^j: the k-th moment of a Poisson(s) variable,
    the limit of I_k* for fully Poissonian sequences."""
    if k < 1:
        raise ParameterError("k must be >= 1")
    if k > 1:
        check_order(k)
    if not 0 < s < math.inf:  # NaN fails too
        raise ParameterError("need a finite s > 0")
    with contextlib.suppress(OverflowError):  # a power of s or the sum past the float range
        value = math.fsum(stirling_second(k, j) * float(s) ** j for j in range(1, k + 1))
        if value < math.inf:  # a term S(k,j) s^j may be inf
            return value
    raise ParameterError(f"the Poisson moment of order {k} at s = {s} overflows a float")
