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

L_i is accumulated over the window pairs of core's window primitive,
each term an exact 2^-64 grid distance rounded once, and the anchor
products are reduced with math.fsum, which is exactly rounded and
therefore deterministic independent of evaluation order.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (PointSequence, check_scale, circle_distance, grid_arc, positive_part, window,
                   window_pairs)
from .correlations import _as_scales, _distinct_mask, _charge_budget, _pairwise_signed
from .errors import ParameterError


def lambda_overlap(seq: PointSequence, s: float, i: int, j: int) -> float:
    """{s/N - ||x_i - x_j||}^+ for 0-based indices i, j."""
    n = len(seq)
    check_scale(s, n)
    if not (0 <= i < n and 0 <= j < n):
        raise ParameterError("index out of range")
    x = seq.points
    return positive_part(s / n - circle_distance(x[i], x[j]))


def _overlap_sums(g: np.ndarray, s: float, n: int) -> np.ndarray:
    """L(c) = sum_j {s/N - ||p_j - c||}^+ for every c in the sorted grid g,
    over explicitly expanded window pairs, so no prefix-sum drift."""
    lo, cnt = window(g, g, grid_arc(-s, s, n))
    anchor, occupant = window_pairs(lo, cnt)
    d = g[occupant]
    del occupant
    d -= g[anchor]
    dist = d.view(np.int64).astype(np.float64)  # ((p_j - c)) * 2^64
    del d
    np.abs(dist, out=dist)
    return s / n * cnt - np.bincount(anchor, weights=dist, minlength=g.size) * 2.0**-64


def c_k_star(seq: PointSequence, scales, k=None) -> float:
    """N^(k-2) sum_i prod_r L_i(s_r); equals the integral of R_k* over
    the scale box."""
    scales = _as_scales(scales, k)
    n = len(seq)
    kk = len(scales) + 1
    for s in scales:
        check_scale(s, n)
    prod = math.prod(_overlap_sums(seq.sorted_grid, s, n) for s in scales)
    return float(n ** (kk - 2)) * math.fsum(prod.tolist())


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
    return float(n ** (k - 2)) * math.fsum(prod.tolist())


def c_k_distinct_bruteforce(seq: PointSequence, scales, k=None) -> float:
    """Direct sum over distinct tuples of the lambda products, scaled by
    N^(k-2).  Oracle only: the distinct-index average has no factorized
    form, and the production statistic is c_k_star.
    """
    scales = _as_scales(scales, k)
    n = len(seq)
    kk = len(scales) + 1
    for s in scales:
        check_scale(s, n)
    _charge_budget(n, kk)
    dist = np.abs(_pairwise_signed(seq))
    lam = [np.maximum(s / n - dist, 0.0) for s in scales]
    m = kk - 1
    distinct = _distinct_mask(n, m)
    ids = np.arange(n)
    total = []
    for i1 in range(n):
        rows = [lm[i1] * (ids != i1) for lm in lam]
        tensor = rows[0]
        for r in rows[1:]:
            tensor = tensor[..., None] * r
        total.append(float((tensor * distinct).sum()))
    return float(n ** (kk - 2)) * math.fsum(total)
