"""Reference values computed without corrkit's fast paths.

Every timed result of the benchmark is compared against one of these.
Each function takes plain numpy arrays or Python ints and reaches its
answer by a different route than the library:

  window_counts      three per-copy searches instead of one tripled array
  overlap_sums       neighbour offset passes instead of a pair expansion
  sweep_moments      one argsort of arc endpoints, wrap count from the arcs
  box_count          Moebius inversion over set partitions of the slots
  consecutive_sum    a join of close pairs on their shared middle point
  pair_sum_counts    autoconvolution by FFT instead of an |A|^2 array

The window predicates are the library's closed float comparisons, so
integer counts must agree exactly; float sums are compared within REL_TOL.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

REL_TOL = 1e-9


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=1e-300)


def signed(d: np.ndarray) -> np.ndarray:
    """((d)): representative of d mod 1 in (-1/2, 1/2]."""
    f = np.asarray(d, dtype=np.float64) % 1.0
    return np.where(f <= 0.5, f, f - 1.0)


def window_counts(sp: np.ndarray, radius: float) -> np.ndarray:
    """z_i = #{j : p_j - 1, p_j or p_j + 1 lies in [p_i - r, p_i + r]} for the
    sorted points p, counted copy by copy."""
    lo, hi = sp - radius, sp + radius
    z = np.zeros(sp.size, dtype=np.int64)
    for copy in (sp - 1.0, sp, sp + 1.0):
        z += np.searchsorted(copy, hi, side="right") - np.searchsorted(copy, lo, side="left")
    return z


def distinct_raw(zs) -> int:
    """Raw R_k count over distinct tuples from the window counts z of each
    scale slot, given from the smallest scale up: per anchor
    c_1 (c_2 - 1) ..., with c = z - 1, clamped at zero."""
    prod = np.ones(zs[0].size, dtype=np.int64)
    for t, z in enumerate(zs):
        prod *= np.maximum(z - 1 - t, 0)
    return int(prod.sum())


def star_raw(zs) -> int:
    """Raw R_k* count: sum_i prod_r z_i(s_r)."""
    prod = np.ones(zs[0].size, dtype=np.int64)
    for z in zs:
        prod *= z
    return int(prod.sum())


def _neighbour_offsets(sp: np.ndarray, radius: float):
    """Yield (offset, neighbour value unwrapped next to each point) for
    offsets +-1, +-2, ... while some neighbour is still within radius.
    Below a radius of 1/2 no neighbour is reached from both sides."""
    if radius >= 0.5:
        raise ValueError("reference windows must be shorter than half the circle")
    n = sp.size
    idx = np.arange(n)
    for step in (1, -1):
        d = 1
        while d < n:
            j = idx + step * d
            nb = sp[j % n] + np.where(j >= n, 1.0, np.where(j < 0, -1.0, 0.0))
            if not np.any(np.abs(sp - nb) <= radius):
                break
            yield j % n, nb
            d += 1


def overlap_sums(sp: np.ndarray, w: float) -> np.ndarray:
    """L_i = sum_j {w - ||p_i - p_j||}^+ (the i = j term included)."""
    out = np.full(sp.size, w)
    for _, nb in _neighbour_offsets(sp, w):
        out += np.maximum(w - np.abs(sp - nb), 0.0)
    return out


def c_k_star(ls, n: int) -> float:
    """C_k* = N^(k-2) sum_i prod_r L_i(s_r) from the overlap sums of each slot."""
    prod = np.ones(ls[0].size)
    for L in ls:
        prod *= L
    return float(n ** (len(ls) - 1)) * math.fsum(prod.tolist())


def sweep_moments(points: np.ndarray, s: float, k: int) -> tuple[float, float, int]:
    """(I_k, I_k*, distinct breakpoints) of F(t) = #{m : ||x_m - t|| <= s/(2N)}."""
    n = points.size
    r = 0.5 * s / n
    starts, ends = (points - r) % 1.0, (points + r) % 1.0
    ev = np.concatenate((starts, ends))
    dv = np.concatenate((np.ones(n, np.int64), -np.ones(n, np.int64)))
    order = np.argsort(ev, kind="stable")
    ev, dv = ev[order], dv[order]
    base = int(np.count_nonzero(starts > ends))  # arcs covering the wrap point
    vals = (base + np.cumsum(dv)).astype(np.float64)
    lens = np.append(np.diff(ev), ev[0] + 1.0 - ev[-1])
    fall = np.ones_like(vals)
    for t in range(k):
        fall *= vals - t
    i_k = math.fsum((fall * lens).tolist())
    i_k_star = math.fsum((vals**k * lens).tolist())
    return i_k, i_k_star, int(np.unique(ev).size)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def box_count(sp: np.ndarray, boxes, n: int) -> int:
    """Raw signed-box count over distinct tuples.  Per anchor, injective
    slot fillings = sum over set partitions pi of the slots of
    mu(pi) prod_blocks #(intersection of the block's arcs)."""
    los = [a / n for a, _ in boxes]
    his = [b / n for _, b in boxes]
    radius = max(max(abs(a), abs(b)) for a, b in boxes) / n + 1e-12
    anchors, deltas = [], []
    for _, nb in _neighbour_offsets(sp, radius):
        anchors.append(np.arange(sp.size))
        deltas.append(signed(sp - nb))
    anchor = np.concatenate(anchors)
    delta = np.concatenate(deltas)
    inside = [(delta >= lo) & (delta <= hi) for lo, hi in zip(los, his)]
    total = np.zeros(sp.size, dtype=np.int64)
    for part in _set_partitions(list(range(len(boxes)))):
        term = np.ones(sp.size, dtype=np.int64)
        mu = 1
        for block in part:
            mask = np.logical_and.reduce([inside[r] for r in block])
            term *= np.bincount(anchor[mask], minlength=sp.size)
            mu *= (-1) ** (len(block) - 1) * math.factorial(len(block) - 1)
        total += mu * term
    return int(total.sum())


def consecutive_sum(sp: np.ndarray, f, s: float, n: int) -> float:
    """(1/N) sum of f(N((x1-x2)), N((x2-x3))) over distinct (i1, i2, i3),
    for an f that vanishes once a consecutive gap exceeds s/N: join the
    close ordered pairs (i1, i2) and (i2, i3) on i2."""
    first, second = [], []
    for j, _ in _neighbour_offsets(sp, s / n * (1 + 1e-9)):
        first.append(np.arange(sp.size))
        second.append(j)
    a = np.concatenate(first)
    b = np.concatenate(second)
    order = np.argsort(a, kind="stable")
    a, b = a[order], b[order]
    start = np.searchsorted(a, np.arange(sp.size), side="left")
    cnt = np.bincount(a, minlength=sp.size)
    # every pair (a, b) followed by every pair (b, c)
    reps = cnt[b]
    i1 = np.repeat(a, reps)
    i2 = np.repeat(b, reps)
    offs = np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps, reps)
    i3 = b[np.repeat(start[b], reps) + offs]
    keep = i3 != i1
    i1, i2, i3 = i1[keep], i2[keep], i3[keep]
    ys = np.stack((n * signed(sp[i1] - sp[i2]), n * signed(sp[i2] - sp[i3])), axis=1)
    return math.fsum(np.asarray(f(ys), dtype=np.float64).tolist()) / n


def consecutive_sum_bruteforce(points: np.ndarray, f, k: int) -> float:
    """Plain loop over all ordered distinct k-tuples; tiny N only."""
    n = points.size
    terms = []
    for tup in itertools.permutations(range(n), k):
        ys = [n * float(signed(points[a] - points[b])) for a, b in zip(tup, tup[1:])]
        terms.append(float(f(np.asarray(ys))))
    return math.fsum(terms) / n


def pair_sum_counts(a) -> np.ndarray:
    """r(sigma) = #{(x, y) in A^2 : x + y = sigma}, by FFT autoconvolution."""
    a = np.asarray(a, dtype=np.int64)
    ind = np.zeros(int(a[-1]) + 1)
    ind[a] = 1.0
    size = 1 << int(2 * ind.size - 1).bit_length()
    spec = np.fft.rfft(ind, size)
    return np.rint(np.fft.irfft(spec * spec, size)[: 2 * ind.size - 1]).astype(np.int64)


def energy_and_aps(a) -> tuple[int, int]:
    """(E(A), T(A)) with E = sum r^2 and T = sum_{y in A} (r(2y) - 1)."""
    r = pair_sum_counts(a)
    a = np.asarray(a, dtype=np.int64)
    return int((r * r).sum()), int((r[2 * a] - 1).sum())


def aps_of_range(n: int) -> int:
    """T({1..n}) = sum_y 2 min(y - 1, n - y)."""
    y = np.arange(1, n + 1)
    return int(2 * np.minimum(y - 1, n - y).sum())


def frac_parts(integers, alpha: float) -> np.ndarray:
    """{a alpha}, exact before one final rounding.

    For alpha = m / 2^53 and 0 < a < 2^26, (a m) mod 2^53 is formed in
    int64 from the halves m = m_hi 2^27 + m_lo; other inputs use Fractions.
    """
    a = np.asarray(list(integers), dtype=np.int64)
    p, q = float(alpha).as_integer_ratio()
    if q > 1 << 53 or a.size == 0 or a.min() <= 0 or a.max() >= 1 << 26:
        fa = Fraction(alpha)
        return np.array([float((int(v) * fa) % 1) for v in a.tolist()], dtype=np.float64)
    m = p * ((1 << 53) // q)
    m_hi, m_lo = m >> 27, m & ((1 << 27) - 1)
    low53 = (((a * m_hi) % (1 << 26)) << 27) + a * m_lo
    return (low53 % (1 << 53)).astype(np.float64) / float(1 << 53)
