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
grid: O(N) time at any scale.  The anchors go in blocks of
core._WINDOW_BLOCK (core.self_window_blocks, which finds windows of up
to 8 points a side by passes over the neighbour offsets and searches
only for wider ones), each reading its prefix
sums off three runs of the unrolled grid, about _WINDOW_BLOCK long and
at most _WINDOW_BLOCK + w for windows of at most w points (see
_overlap_sums).  The peak is about 140 bytes per anchor of a block
while the runs are about _WINDOW_BLOCK long, 50 more per run position
past that, and 32 more per anchor for each further distinct scale:
under 8 MiB for windows of fewer than 10^4 points, whatever N.  The
anchor products are reduced block by block with core.exact_chunk_sum,
equal to math.fsum: exactly rounded and therefore deterministic
independent of evaluation order.
"""

from __future__ import annotations

import math

import numpy as np

from .core import PointSequence, check_scale, exact_chunk_sum, grid_arc, self_window_blocks
from .correlations import _as_scales
from .errors import ParameterError


def _overlap_sums(g: np.ndarray, s: float, n: int):
    """L(c) = sum_j {s/N - ||p_j - c||}^+ for every c in the sorted grid g
    (the whole grid or a slice of it), from prefix sums of the grid: yields
    one array per block of anchors (core.self_window_blocks).

    Unrolled around the circle, anchor i's occupants are the run
    [start, end) of the grid with laps added, start <= i < end, so
    D_i = sum_j |g_j - g_i| = P[end] + P[start] - 2 P[i] + (2i - start - end) g_i
    for the prefix sums P of the unrolled grid.  The starts, the anchors
    and the ends each ascend, so each has a cursor, and a block reads P
    off the prefix sums of the three runs from the cursors to its last
    start, anchor and end; K = P[end cursor] - 2 P[anchor cursor] +
    P[start cursor] carries over.  Each run holds at most
    _WINDOW_BLOCK + w positions for windows of at most w points (about
    _WINDOW_BLOCK, unless the windows' widths jump), and the runs of all
    blocks tile the unrolled grid once: O(N) time at any scale.  One run
    [start cursor, last end) per block would be a window longer, O(N w /
    _WINDOW_BLOCK) in all: tried, it was 16% faster on window_stats but
    c_k_star at N = 1e6, s = 4e5 took 866 ms, not 249 (2-core x86_64).

    The grid is split into two 32-bit limbs, a lap adding 2^32 to the
    high one, and each limb's sums are int64, below 2^63 while a run is
    shorter than 2^30.  The low limb is carried into the high one, and
    D_i is converted as float(hi) 2^32 + lo: one rounding while
    hi < 2^53, as always for windows of fewer than 2^22 points.
    """
    cursors, carry = None, [0, 0]
    for b, [(start, end)] in self_window_blocks(g, [grid_arc(-s, s, n)]):
        if cursors is None:  # all three at the first start, where K = 0
            cursors = [int(start[0])] * 3
        yield s / n * (end - start) - _block_distances(g, b, start, end, cursors, carry) * 2.0**-64


def _block_distances(g: np.ndarray, b: int, start: np.ndarray, end: np.ndarray,
                     cursors: list[int], carry: list[int]) -> np.ndarray:
    """D_i, rounded to float64, of the anchors b, b+1, ... of one block
    (see _overlap_sums); moves the cursors to the block's last start,
    anchor and end, and carry, the two limbs of K, with them."""
    i = np.arange(b, b + start.size)
    ahead = (int(start[-1]), int(i[-1]), int(end[-1]))
    sign = i + i  # 2i - start - end: left less right occupants, less 1
    sign -= start
    sign -= end
    sums = []
    for limb in (0, 1):
        ps, pa, pe = (_prefix(_unrolled_limb(g, c, a, limb)) for c, a in zip(cursors, ahead))
        pa_i = pa[i - cursors[1]]
        d = pe[end - cursors[2]]
        d -= pa_i
        d -= pa_i
        d += ps[start - cursors[0]]
        d += sign * _unrolled_limb(g, b, b + i.size, limb)
        d += carry[limb]
        carry[limb] += int(pe[-1]) - 2 * int(pa[-1]) + int(ps[-1])
        sums.append(d)
    cursors[:] = ahead
    hi, low = sums
    hi += low >> 32
    low &= 0xFFFFFFFF
    return hi * 2.0**32 + low


def _unrolled_limb(g: np.ndarray, first: int, last: int, limb: int) -> np.ndarray:
    """The high (limb 0) or low (limb 1) 32-bit limb, as int64, of the
    unrolled grid at positions [first, last), -m < first <= last < 2m:
    laps -1 and 1 subtract and add 2^32 to the high limb."""
    m = g.size
    laps = [g[min(max(first - lap * m, 0), m):min(max(last - lap * m, 0), m)] for lap in (-1, 0, 1)]
    x = np.concatenate(laps) if laps[0].size or laps[2].size else laps[1]  # a view of g: no writes
    if limb:
        return (x & np.uint64(0xFFFFFFFF)).view(np.int64)
    hi = (x >> np.uint64(32)).view(np.int64)
    hi[:laps[0].size] -= 1 << 32
    hi[x.size - laps[2].size:] += 1 << 32
    return hi


def _prefix(x: np.ndarray) -> np.ndarray:
    """The prefix sums 0, x_0, x_0 + x_1, ... of an int64 array."""
    p = np.zeros(x.size + 1, dtype=np.int64)
    np.cumsum(x, out=p[1:])
    return p


def c_k_star(seq: PointSequence, scales, k=None) -> float:
    """N^(k-2) sum_i prod_r L_i(s_r); equals the integral of R_k* over
    the scale box."""
    scales = _as_scales(scales, k)
    n = len(seq)
    kk = len(scales) + 1
    for s in scales:
        check_scale(s, n)

    def products():
        sums = {s: _overlap_sums(seq.sorted_grid, s, n) for s in set(scales)}
        for block in zip(*sums.values()):
            ls = dict(zip(sums, block))
            yield math.prod(ls[s] for s in scales)

    return float(n ** (kk - 2)) * exact_chunk_sum(products)


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
    return float(n ** (k - 2)) * exact_chunk_sum(
        lambda: (ls ** (k - 1) for ls in _overlap_sums(seq.sorted_grid[a:b], s, n)))
