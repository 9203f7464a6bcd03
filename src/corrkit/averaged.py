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

L_i is accumulated from explicitly expanded window pairs (each term
exact to one rounding) and the anchor products are reduced with
math.fsum, which is exactly rounded and therefore deterministic
independent of evaluation order.
"""

from __future__ import annotations

import math

import numpy as np

from .core import PointSequence, circle_distance, positive_part
from .correlations import _as_scales, _distinct_mask, _charge_budget, _pairwise_signed
from .errors import ParameterError


def lambda_overlap(seq: PointSequence, s: float, i: int, j: int) -> float:
    """{s/N - ||x_i - x_j||}^+ for 0-based indices i, j."""
    n = len(seq)
    if not (0 < s <= n):
        raise ParameterError(f"need 0 < s <= N = {n}")
    if not (0 <= i < n and 0 <= j < n):
        raise ParameterError("index out of range")
    x = seq.points
    return positive_part(s / n - circle_distance(x[i], x[j]))


def _overlap_sums(sorted_pts: np.ndarray, w: float) -> np.ndarray:
    """L(c) = sum_j {w - ||p_j - c||}^+ for every c in sorted_pts.

    Window occupants are expanded explicitly; each |c - p_j| is a single
    subtraction, so the per-anchor sums carry no prefix-sum drift.
    """
    n = sorted_pts.size
    ext = np.concatenate((sorted_pts - 1.0, sorted_pts, sorted_pts + 1.0))
    if w >= 0.5:
        # every pair contributes; positions lo..lo+n-1 cover each point once
        lo = np.searchsorted(ext, sorted_pts - 0.5, side="left")
        cnt = np.full(n, n, dtype=np.int64)
        hi = lo + n
    else:
        lo = np.searchsorted(ext, sorted_pts - w, side="left")
        hi = np.searchsorted(ext, sorted_pts + w, side="right")
        cnt = hi - lo
    total = int(cnt.sum())
    anchors = np.repeat(np.arange(n), cnt)
    offs = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    pos = np.repeat(lo, cnt) + offs
    dist = np.abs(sorted_pts[anchors] - ext[pos])
    dist_sums = np.bincount(anchors, weights=dist, minlength=n)
    return w * cnt - dist_sums


def c_k_star(seq: PointSequence, scales, k=None) -> float:
    """N^(k-2) sum_i prod_r L_i(s_r); equals the integral of R_k* over
    the scale box."""
    scales = _as_scales(scales, k)
    n = len(seq)
    kk = len(scales) + 1
    for s in scales:
        if not (0 < s <= n):
            raise ParameterError(f"need 0 < s <= N = {n}")
    sp = seq.sorted_points
    ls = [_overlap_sums(sp, s / n) for s in scales]
    prod = ls[0].copy()
    for arr in ls[1:]:
        prod *= arr
    return float(n ** (kk - 2)) * math.fsum(prod.tolist())


def c_k_star_local(seq: PointSequence, s: float, k: int, interval) -> float:
    """The sum of C_k* restricted to tuples whose points all lie in the
    half-open interval [lo, hi); equal scales s.  Normalization (s/N and
    N^(k-2)) keeps the full-sequence N.
    """
    n = len(seq)
    if not (0 < s <= n):
        raise ParameterError(f"need 0 < s <= N = {n}")
    if k < 2:
        raise ParameterError("k must be >= 2")
    lo, hi = float(interval[0]), float(interval[1])
    if not (0.0 <= lo < hi <= 1.0):
        raise ParameterError("interval must satisfy 0 <= lo < hi <= 1")
    sp = seq.sorted_points
    a = np.searchsorted(sp, lo, side="left")
    b = np.searchsorted(sp, hi, side="left")
    sub = sp[a:b]
    if sub.size == 0:
        return 0.0
    l_sub = _overlap_sums(sub, s / n)
    prod = l_sub ** (k - 1)
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
        if not (0 < s <= n):
            raise ParameterError(f"need 0 < s <= N = {n}")
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
