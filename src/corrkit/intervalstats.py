"""The window-count function F(t,s,N), its exact sweep-line moments, and
the tent test functions tying them to correlation sums.

F(t,s,N) = #{m <= N : ||x_m - t|| <= s/(2N)} is piecewise constant in t
with at most 2N breakpoints, so its moments

    I_k(s,N)  = int_0^1 F (F-1) ... (F-k+1) dt      (factorial moment)
    I_k*(s,N) = int_0^1 F^k dt                       (power moment)

are computed exactly from the step function rather than by quadrature;
exactness removes a tolerance from every identity built on them.  Arc m
is the grid range [x_m - R, x_m + R + 1) of core's 2^-64 grid, with
R = floor(s 2^64 / (2N)), so the profile is F at every grid point.  The
integer segment lengths are grouped by profile value, so each moment is
an exact rational sum_v w(v) L_v / 2^64, rounded once.  moments folds
that histogram block by block over the sweep (_profile_blocks), so its
peak is about 42 bytes per endpoint of a block (at most
2 core._WINDOW_BLOCK + 2 distinct ones, plus the longest run of equal
ones) and 8 bytes per profile value up to max F: under 4 MiB while
max F and the runs of equal points stay under 10^4, whatever N.
sweep_profile writes the same blocks into its O(N) arrays.

The tent test function

    g_s^(k)(y_1,...,y_{k-1}) = {s - max_i {y_i}^+ - max_i {-y_i}^+}^+

has integral s^k over R^(k-1), and N times the length of the common
intersection of the k arcs around x_1..x_k equals
g_s^(k)(N((x_1-x_2)), ..., N((x_1-x_k))) whenever N >= 4s.  That makes
I_k equal to the correlation sum r_k_testfn(g_s^(k)), and expands the
power moment through second-kind Stirling numbers:
I_k* = sum_j S(k,j) I_j with I_1 = s.  g_eval is the one tent: it takes
the (m, k-1) arrays r_k_testfn passes, and a one-row array for a single
tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import (GRID, PointSequence, check_order, check_scale, falling_factorial, grid_arc,
                   stirling_second, to_grid, window)
from .correlations import CorrelationReport, r_k_testfn
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

        The uint64 segment lengths are summed per value by a wrapping
        np.add.at (_value_lengths, which moments runs block by block),
        which is exact: each L_v <= 2^64 and the L_v sum to 2^64, so a sum
        modulo 2^64 is L_v unless L_v = 2^64, a lone value that wraps to 0.  Only the whole-circle profile (one breakpoint)
        has one value: any other has mass N(2R+1) with 2R+1 odd and
        N < 2^64, never a multiple of 2^64, so it holds two values or more.
        """
        return _value_lengths([(self.breakpoints, self.values, self.breakpoints[0])])

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
    """Exact #{m <= N : ||x_m - t|| <= s/(2N)}."""
    n = len(seq)
    check_scale(s, n)
    return int(window(seq.sorted_grid, _grid_of([t]), grid_arc(-0.5 * s, 0.5 * s, n))[1][0])


def _endpoint_run(g: np.ndarray, add: int, a: int, z: int) -> np.ndarray:
    """Positions [a, z) of the ascending endpoints (g + add) mod 2^64.

    Sorted, they are the anchors first, first+1, ..., m-1, 0, ..., first-1
    with first the least i with g_i >= -add mod 2^64 (the anchors before
    it wrap to the top), so any run of them is one or two slices of g.
    """
    m = g.size
    first = int(np.searchsorted(g, np.uint64(-add % GRID)))
    a, z = a + first, z + first
    run = np.concatenate((g[a:z], g[:max(z - m, 0)])) if a < m else g[a - m:z - m]
    return run + np.uint64(add)


def _endpoints_upto(g: np.ndarray, add: int, v: int) -> int:
    """#{i : (g_i + add) mod 2^64 <= v}, for 0 <= v < 2^64: the g in the
    cyclic grid arc [-add, -add + v]."""
    a = -add % GRID
    z = (a + v) % GRID
    cnt = int(np.searchsorted(g, np.uint64(z), "right")) - int(np.searchsorted(g, np.uint64(a)))
    return cnt + g.size if z < a else cnt


def _profile_blocks(seq: PointSequence, s: float):
    """The profile of sweep_profile in blocks: yields (breakpoints, values,
    following), following the breakpoint after the block's last one (the
    first breakpoint, after the last block).

    Arc m is [g_m - R, g_m + R + 1), and the arc starts (ends) sorted are
    the anchors' grid values rotated (_endpoint_run).  A block holds the
    endpoints up to a cut value: the least of the endpoint _WINDOW_BLOCK
    ends and the one _WINDOW_BLOCK starts further on.  So equal endpoints
    never straddle two blocks, a block holds at most _WINDOW_BLOCK + 1
    distinct values of each kind, and its arrays take O(_WINDOW_BLOCK +
    the largest run of equal endpoints) memory.  The running count
    carries over from block to block.
    """
    n = len(seq)
    check_scale(s, n)
    arc = grid_arc(-0.5 * s, 0.5 * s, n)
    r = arc[1]
    if 2 * r + 1 >= GRID:
        yield np.zeros(1, np.uint64), np.array([n], dtype=np.int64), 0
        return
    g = seq.sorted_grid
    adds = (r + 1, -r % GRID)  # ends, starts

    def endpoint(kind: int, p: int) -> int:
        """The endpoint at sorted position p of one kind, GRID past the last."""
        return int(_endpoint_run(g, adds[kind], p, p + 1)[0]) if p < n else GRID

    # value on the wrap segment, counted at its first grid point
    final = max(endpoint(0, n - 1), endpoint(1, n - 1))
    base = int(window(g, np.array([final], np.uint64), arc)[1][0])
    # in grid units the mass is N (2R+1) + 2^64 (base - #arcs that wrap past
    # 0: g_m < R, or g_m + R + 1 >= 2^64)
    wraps = int(np.searchsorted(g, np.uint64(r))) + n - int(np.searchsorted(g, np.uint64(GRID - r - 1)))
    if base != wraps:
        raise ConsistencyError("profile mass does not equal s")
    initial = min(endpoint(0, 0), endpoint(1, 0))
    value, at = base, (0, 0)
    while at != (n, n):
        cut = min(min(endpoint(kind, at[kind] + core._WINDOW_BLOCK) for kind in (0, 1)), GRID - 1)
        upto = tuple(_endpoints_upto(g, add, cut) for add in adds)
        events = np.concatenate([_endpoint_run(g, add, a, z) for add, a, z in zip(adds, at, upto)])
        order = np.argsort(events, kind="stable")
        events = events[order]
        last = np.empty(events.size, dtype=bool)
        np.not_equal(events[1:], events[:-1], out=last[:-1])
        last[-1] = True
        # ends sort before starts, so every running count, inside a run
        # too, is a number of arcs in [0, N]
        steps = np.where(order < upto[0] - at[0], np.int8(-1), np.int8(1))
        del order
        values = np.cumsum(steps, dtype=np.int64)[last]
        del steps
        values += value
        if values.min() < 0 or values.max() > n:
            raise ConsistencyError("inconsistent sweep profile")
        value, at = int(values[-1]), upto
        following = min(endpoint(0, at[0]), endpoint(1, at[1]))
        yield events[last], values, initial if following == GRID else following
    if value != base:
        raise ConsistencyError("inconsistent sweep profile")


def _value_lengths(blocks) -> dict[int, int]:
    """{v: L_v} over the (breakpoints, values, following) blocks of a
    profile (see SweepProfile.value_lengths)."""
    sums = np.zeros(1, dtype=np.uint64)
    for bp, v, following in blocks:
        if following == bp[-1]:  # one breakpoint in all: F = v[0] on the whole circle
            return {int(v[0]): GRID}
        top = int(v.max())
        if top >= sums.size:
            sums = np.concatenate((sums, np.zeros(top + 1 - sums.size, dtype=np.uint64)))
        # the wrap segment's length wraps too
        np.add.at(sums, v, np.diff(bp, append=np.uint64(following)))
    present = np.flatnonzero(sums)
    return dict(zip(present.tolist(), sums[present].tolist()))


def sweep_profile(seq: PointSequence, s: float) -> SweepProfile:
    """Build the 2N-event circular step function of F by one sweep of the
    sorted arc endpoints: a stable merge of the ends and the starts per
    block (_profile_blocks), written into two arrays of 2N entries, the
    most there can be: the peak is the output and one block.

    The last event of each run of equal endpoints carries the value after
    their merged breakpoint.
    """
    n = len(seq)
    breakpoints, values = np.empty(2 * n, dtype=np.uint64), np.empty(2 * n, dtype=np.int64)
    size = 0
    for bp, v, _ in _profile_blocks(seq, s):
        breakpoints[size:size + bp.size] = bp
        values[size:size + v.size] = v
        size += bp.size
    if size < 2 * n:  # equal endpoints merged
        breakpoints, values = breakpoints[:size].copy(), values[:size].copy()
    return SweepProfile(breakpoints, values, float(s), n)


def moments(seq: PointSequence, s: float, k: int) -> MomentReport:
    """Exact factorial moment I_k and power moment I_k* of F(.,s,N):
    sum_v (v)_k L_v / 2^64 and sum_v v^k L_v / 2^64 over the value
    histogram, each an exact rational rounded once.  The histogram is
    folded block by block over the sweep (_profile_blocks), so the peak
    memory is a block's plus 8 bytes per value up to max F."""
    if k < 2:
        raise ParameterError("k must be >= 2")
    check_order(k)  # before the sweep: bell_prediction needs k up to the Stirling table's
    hist = _value_lengths(_profile_blocks(seq, s)).items()
    i_k = sum(falling_factorial(v, k) * ln for v, ln in hist) / GRID
    i_k_star = sum(v**k * ln for v, ln in hist) / GRID
    return MomentReport(k, float(s), len(seq), i_k, i_k_star)


def g_eval(k: int, s: float, ys) -> np.ndarray:
    """g_s^(k) = {s - max_i {y_i}^+ - max_i {-y_i}^+}^+ over the rows of an
    (m, k-1) array: m values, the subtraction done before the final
    positive part, with no tolerance applied.  A one-row array evaluates
    a single tuple.
    """
    if k < 2 or s <= 0:
        raise ParameterError("need k >= 2 and s > 0")
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim == 0 or ys.shape[-1] != k - 1:
        raise ParameterError(f"expected rows of {k - 1} coordinates, got shape {ys.shape}")
    mplus = np.maximum(ys, 0.0).max(axis=-1)
    mminus = np.maximum(-ys, 0.0).max(axis=-1)
    return np.maximum(s - mplus - mminus, 0.0)


@dataclass(frozen=True)
class MCIntegral:
    estimate: float
    standard_error: float
    samples: int


def g_integral_mc(k: int, s: float, samples: int, seed: int) -> MCIntegral:
    """Monte Carlo integral of g_s^(k) over its support box [-s,s]^(k-1).

    The exact value is s^k; the estimate comes with its standard error.
    """
    if k < 2 or s <= 0 or samples < 1:
        raise ParameterError("need k >= 2, s > 0, samples >= 1")
    rng = np.random.default_rng(int(seed))
    vol = (2.0 * s) ** (k - 1)
    ys = rng.uniform(-s, s, size=(int(samples), k - 1))
    vals = g_eval(k, s, ys)
    est = vol * float(vals.mean())
    se = vol * float(vals.std(ddof=1)) / math.sqrt(samples) if samples > 1 else math.inf
    return MCIntegral(est, se, int(samples))


def i_k_via_correlation(seq: PointSequence, s: float, k: int) -> float:
    """I_k computed from the correlation side: the weighted sum of
    g_s^(k) over distinct tuples.  Valid for N >= 4s, where the
    arc-intersection identity holds.
    """
    n = len(seq)
    if n < 4 * s:
        raise ParameterError(f"need N >= 4s, got N = {n}, s = {s}")
    rep: CorrelationReport = r_k_testfn(
        seq, lambda ys: g_eval(k, s, ys), float(s), k
    )
    return rep.value


def bell_prediction(k: int, s: float) -> float:
    """sum_{j=1..k} S(k,j) s^j: the k-th moment of a Poisson(s) variable,
    the limit of I_k* for fully Poissonian sequences."""
    if k < 1:
        raise ParameterError("k must be >= 1")
    check_order(k)
    return math.fsum(stirling_second(k, j) * float(s) ** j for j in range(1, k + 1))
