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
grid: O(N) time at any scale.  The anchors go in blocks of B =
core._BLOCK, with their windows from core.self_window_blocks.  A block
reads its prefix sums off runs of the unrolled grid from cursors to its
last start, anchor and end: one run about B + w long for windows of at
most w points where the three overlap (windows narrower than a block,
the common case), three runs about B long each where they do not (see
_overlap_sums).  The peak is about 110 B bytes, 32 more per run
position past B, and 32 B more for each further distinct scale: 3.6 MiB
for windows of a few points and 4.6 MiB for windows of 3.2e4 points or
more, up to the whole circle, whatever N (measured at N = 2^20; the
first block's runs start at its own start, anchor and end, like every
other block's).
The anchor products are reduced block by block with
core.exact_chunk_sum, equal to math.fsum: exactly rounded and therefore
deterministic independent of evaluation order.
"""

from __future__ import annotations

import math

import numpy as np

from . import core
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
    off prefix sums from the cursors to its last start, anchor and end;
    K = P[end cursor] - 2 P[anchor cursor] + P[start cursor] carries over.
    The first block's cursors are its own first start, anchor and end,
    and its K is summed over that one window in runs of B = core._BLOCK
    (_window_carry), so no block's runs span a wide window.
    Where these three runs overlap, as they do for windows narrower than
    a block, each limb's prefix sums are built once over their union
    [start cursor, last end), B + w positions for windows of at most w
    points; elsewhere once per run, each at most B + w long (about B,
    unless the windows' widths jump), and the runs of all blocks tile
    the unrolled grid once: O(N) time at any scale.  The union is merged
    only where the runs overlap: taken always, it is a window longer per
    block, O(N w / B) in all, and c_k_star at N = 1e6, s = 4e5 takes
    about 3.5 times as long (2-core x86_64).

    The grid is split into two 32-bit limbs, a lap adding 2^32 to the
    high one, and each limb's sums are int64, below 2^63 while a run is
    shorter than 2^30.  The low limb is carried into the high one, and
    D_i is converted as float(hi) 2^32 + lo: one rounding while
    hi < 2^53, as always for windows of fewer than 2^22 points.
    """
    cursors = None
    for b, [(start, end)] in self_window_blocks(g, [grid_arc(-s, s, n)]):
        if cursors is None:  # the first block's own start, anchor and end
            cursors = [int(start[0]), b, int(end[0])]
            carry = _window_carry(g, *cursors)
        yield s / n * (end - start) - _block_distances(g, b, start, end, cursors, carry) * 2.0**-64


def _window_carry(g: np.ndarray, cs: int, ca: int, ce: int) -> list[int]:
    """The two limbs of K = P[ce] - 2 P[ca] + P[cs]: the unrolled grid
    summed over [ca, ce) less over [cs, ca), one window, in runs of
    core._BLOCK positions."""
    step, carry = core._BLOCK, [0, 0]
    for limb in (0, 1):
        for lo, hi, sign in ((ca, ce, 1), (cs, ca, -1)):
            for a in range(lo, hi, step):
                carry[limb] += sign * int(_unrolled_limb(g, a, min(a + step, hi), limb).sum())
    return carry


def _block_distances(g: np.ndarray, b: int, start: np.ndarray, end: np.ndarray,
                     cursors: list[int], carry: list[int]) -> np.ndarray:
    """D_i, rounded to float64, of the anchors b, b+1, ... of one block
    (see _overlap_sums); moves the cursors to the block's last start,
    anchor and end, and carry, the two limbs of K, with them.

    Where the three runs overlap, each limb's prefix sums are built once
    over their union [start cursor, last end): with one origin, K's terms
    cancel.  Otherwise each run has its own, from its cursor.  The
    anchors' run reaches one past the last anchor, so the anchors' values
    and prefix sums are slices of it."""
    size = start.size
    cs, ca, ce = cursors
    ls, la, le = int(start[-1]), b + size - 1, int(end[-1])
    merged = ca <= ls and ce <= la
    os_, oa, oe = (cs, cs, cs) if merged else (cs, ca, ce)  # the runs' origins
    at_s, at_e, at_a = start - os_, end - oe, slice(b - oa, b - oa + size)
    sign = np.arange(2 * b, 2 * (b + size), 2)  # 2i - start - end: left less right, less 1
    sign -= start
    sign -= end
    sums = []
    for limb in (0, 1):
        if merged:
            xa = _unrolled_limb(g, cs, le, limb)
            ps = pa = pe = _prefix(xa)
        else:
            xa = _unrolled_limb(g, ca, la + 1, limb)
            ps, pa, pe = (_prefix(_unrolled_limb(g, cs, ls, limb)), _prefix(xa),
                          _prefix(_unrolled_limb(g, ce, le, limb)))
        k = 0 if merged else carry[limb]  # K less P at the origins
        pa_i = pa[at_a]
        d = pe[at_e]
        d -= pa_i
        d -= pa_i
        d += ps[at_s]
        d += sign * xa[at_a]
        if k:
            d += k
        carry[limb] = k + int(pe[le - oe]) - 2 * int(pa[la - oa]) + int(ps[ls - os_])
        sums.append(d)
    cursors[:] = ls, la, le
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
    core.check_order(k)
    lo, hi = float(interval[0]), float(interval[1])
    if not (0.0 <= lo < hi <= 1.0):
        raise ParameterError("interval must satisfy 0 <= lo < hi <= 1")
    a, b = np.searchsorted(seq.sorted_points, (lo, hi), side="left")
    if a == b:
        return 0.0
    return float(n ** (k - 2)) * exact_chunk_sum(
        lambda: (ls ** (k - 1) for ls in _overlap_sums(seq.sorted_grid[a:b], s, n)))
