"""The window-count function F(t,s,N), its exact sweep-line moments, and
the tent test functions tying them to correlation sums.

F(t,s,N) = #{m <= N : ||x_m - t|| <= s/(2N)} is piecewise constant in t
with at most 2N breakpoints, so its moments

    I_k(s,N)  = int_0^1 F (F-1) ... (F-k+1) dt      (factorial moment)
    I_k*(s,N) = int_0^1 F^k dt                       (power moment)

are computed exactly from the step function rather than by quadrature;
exactness removes a tolerance from every identity built on them.  Arc m
is the grid range [x_m - R, x_m + R + 1) of core's 2^-64 grid, with
R = floor(s 2^64 / (2N)), so the profile is F at every grid point.

The tent test function

    g_s^(k)(y_1,...,y_{k-1}) = {s - max_i {y_i}^+ - max_i {-y_i}^+}^+

has integral s^k over R^(k-1), and N times the length of the common
intersection of the k arcs around x_1..x_k equals
g_s^(k)(N((x_1-x_2)), ..., N((x_1-x_k))) whenever N >= 4s.  That makes
I_k equal to the correlation sum r_k_testfn(g_s^(k)), and expands the
power moment through second-kind Stirling numbers:
I_k* = sum_j S(k,j) I_j with I_1 = s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (GRID, PointSequence, check_scale, falling_factorial, grid_arc,
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

    def segment_lengths(self) -> np.ndarray:
        bp = self.breakpoints
        if bp.size == 1:
            return np.array([1.0])
        return np.diff(bp, append=bp[:1]) * 2.0**-64  # the wrap segment's length wraps too

    def total_mass(self) -> float:
        return math.fsum((self.values * self.segment_lengths()).tolist())

    def value_at(self, t):
        """Profile value at t (right-continuous step lookup)."""
        idx = np.searchsorted(self.breakpoints, _grid_of(t), side="right") - 1
        idx = np.where(idx < 0, self.values.size - 1, idx)
        out = self.values[idx]
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
    f = np.asarray(t, dtype=np.float64) % 1.0
    return to_grid(np.where(f < 1.0, f, 0.0))


def f_count(seq: PointSequence, t: float, s: float) -> int:
    """Exact #{m <= N : ||x_m - t|| <= s/(2N)}."""
    n = len(seq)
    check_scale(s, n)
    return int(window(seq.sorted_grid, _grid_of([t]), grid_arc(-0.5 * s, 0.5 * s, n))[1][0])


def sweep_profile(seq: PointSequence, s: float) -> SweepProfile:
    """Build the 2N-event circular step function of F by endpoint sorting."""
    n = len(seq)
    check_scale(s, n)
    arc = grid_arc(-0.5 * s, 0.5 * s, n)
    r = arc[1]
    if 2 * r + 1 >= GRID:
        return SweepProfile(np.zeros(1, np.uint64), np.array([n], dtype=np.int64), float(s), n)
    g = seq.sorted_grid
    starts, ends = g - r, g + (r + 1)
    uniq, inverse = np.unique(np.concatenate((starts, ends)), return_inverse=True)
    jumps = np.bincount(inverse[:n], minlength=uniq.size)
    jumps -= np.bincount(inverse[n:], minlength=uniq.size)
    # value on the wrap segment, counted at its first grid point
    base = int(window(g, uniq[-1:], arc)[1][0])
    values = base + np.cumsum(jumps)
    if values.min() < 0 or values.max() > n or values[-1] != base:
        raise ConsistencyError("inconsistent sweep profile")
    # in grid units the mass is N (2R+1) + 2^64 (base - #arcs that wrap past 0)
    if base != np.count_nonzero(ends < starts):
        raise ConsistencyError("profile mass does not equal s")
    return SweepProfile(uniq, values, float(s), n)


def moments(seq: PointSequence, s: float, k: int) -> MomentReport:
    """Exact factorial moment I_k and power moment I_k* of F(.,s,N)."""
    if k < 2:
        raise ParameterError("k must be >= 2")
    prof = sweep_profile(seq, s)
    v = prof.values.astype(np.float64)
    lens = prof.segment_lengths()
    i_k = math.fsum((falling_factorial(v, k) * lens).tolist())
    i_k_star = math.fsum((v**k * lens).tolist())
    return MomentReport(k, float(s), len(seq), i_k, i_k_star)


def g_test(k: int, s: float, y) -> float:
    """g_s^(k) at one (k-1)-tuple: {s - max_i {y_i}^+ - max_i {-y_i}^+}^+.

    One pass computes both maxima; the subtraction happens before the
    final positive part, with no tolerance applied.
    """
    if k < 2 or s <= 0:
        raise ParameterError("need k >= 2 and s > 0")
    ys = [float(v) for v in (y if np.ndim(y) else (y,))]
    if len(ys) != k - 1:
        raise ParameterError(f"expected {k - 1} coordinates, got {len(ys)}")
    mplus = 0.0
    mminus = 0.0
    for v in ys:
        if v > mplus:
            mplus = v
        if -v > mminus:
            mminus = -v
    t = s - mplus - mminus
    return t if t > 0.0 else 0.0


def g_eval(k: int, s: float, ys: np.ndarray) -> np.ndarray:
    """Vectorized g_s^(k) over rows of an (m, k-1) array."""
    ys = np.asarray(ys, dtype=np.float64)
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
    return math.fsum(stirling_second(k, j) * float(s) ** j for j in range(1, k + 1))
