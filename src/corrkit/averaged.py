"""Scale-averaged correlation functionals built from pairwise arc overlaps.

The overlap kernel is

    lambda_N(s; i, j) = {s/N - ||x_i - x_j||}^+,

the length of the intersection of the two arcs of length s/N centered
at x_i and x_j (for s <= N/2; for larger s the same formula is, by
construction, the scale integral int_0^s 1[||x_i-x_j|| <= sigma/N] dsigma / N).
The averaged statistics factorize per anchor:

    C_k*(s_1,...,s_{k-1}, N) = N^(k-2) sum_i prod_r L_i(s_r),
    L_i(s) = sum_j lambda_N(s; i, j),

and equal the integral of R_k* over the scale box [0,s_1] x ... x [0,s_{k-1}].

The kernel is never evaluated pair by pair.  One window per distinct
scale gives each anchor's occupants as a run of the sorted grid, and
L_i = s/N cnt_i - D_i 2^-64 follows from the exact integer
D_i = sum_j |g_j - g_i| over that run, read off int64 prefix sums of the
grid: O(N) time and memory at any scale.  The anchor products are
reduced with core.exact_sum, equal to math.fsum: exactly rounded and
therefore deterministic independent of evaluation order.
"""

from __future__ import annotations

import math

import numpy as np

from .core import PointSequence, check_scale, exact_sum, grid_arc, self_window
from .correlations import _as_scales
from .errors import ParameterError


def _overlap_sums(g: np.ndarray, s: float, n: int) -> np.ndarray:
    """L(c) = sum_j {s/N - ||p_j - c||}^+ for every c in the sorted grid g
    (the whole grid or a slice of it), from prefix sums of the grid.

    Unrolled around the circle, anchor i's occupants are the run
    [lo, end) of the grid with laps added, lo <= i < end, so
    D_i = sum_j |g_j - g_i| = P[end] + P[lo] - 2 P[i] + (2i - lo - end) g_i
    for the prefix sums P.  The grid is split into two 32-bit limbs, a
    lap adding 2^32 to the high one, and each limb's prefix sums are
    int64 over at most three laps; N < 2^29 keeps them below 2^63.  The
    low limb is carried into the high one, and D_i is converted as
    float(hi) 2^32 + lo: one rounding while hi < 2^53, as always for
    N < 2^22.
    """
    lo, cnt = self_window(g, grid_arc(-s, s, n))
    m = g.size
    i = np.arange(m)
    lo -= m * (lo > i)  # the window start on the anchor's own lap
    end = lo + cnt
    sign = i + i  # 2i - lo - end: left less right occupants, less 1
    sign -= lo
    sign -= end
    before, after = -min(int(lo.min()), 0), max(int(end.max()) - m, 0)
    lo += before
    end += before
    limbs = []
    for limb, lap in (((g >> np.uint64(32)).view(np.int64), 1 << 32),
                      ((g & np.uint64(0xFFFFFFFF)).view(np.int64), 0)):
        p = np.zeros(before + m + after + 1, dtype=np.int64)
        np.cumsum(np.concatenate((limb[m - before:] - lap, limb, limb[:after] + lap)), out=p[1:])
        p_anchor = p[before:before + m]
        d = p[end]
        d -= p_anchor
        d += p[lo]
        d -= p_anchor
        d += sign * limb
        limbs.append(d)
    hi, low = limbs
    hi += low >> 32
    low &= 0xFFFFFFFF
    return s / n * cnt - (hi * 2.0**32 + low) * 2.0**-64


def c_k_star(seq: PointSequence, scales, k=None) -> float:
    """N^(k-2) sum_i prod_r L_i(s_r); equals the integral of R_k* over
    the scale box."""
    scales = _as_scales(scales, k)
    n = len(seq)
    kk = len(scales) + 1
    for s in scales:
        check_scale(s, n)
    sums = {s: _overlap_sums(seq.sorted_grid, s, n) for s in set(scales)}
    prod = math.prod(sums[s] for s in scales)
    return float(n ** (kk - 2)) * exact_sum(prod)


def c_k_star_local(seq: PointSequence, s: float, k: int, interval) -> float:
    """The sum of C_k* restricted to tuples whose points all lie in the
    half-open interval [lo, hi); equal scales s.  Normalization (s/N and
    N^(k-2)) keeps the full-sequence N.
    """
    n = len(seq)
    check_scale(s, n)
    if k < 2:
        raise ParameterError("k must be >= 2")
    lo, hi = float(interval[0]), float(interval[1])
    if not (0.0 <= lo < hi <= 1.0):
        raise ParameterError("interval must satisfy 0 <= lo < hi <= 1")
    a, b = np.searchsorted(seq.sorted_points, (lo, hi), side="left")
    if a == b:
        return 0.0
    prod = _overlap_sums(seq.sorted_grid[a:b], s, n) ** (k - 1)
    return float(n ** (k - 2)) * exact_sum(prod)
