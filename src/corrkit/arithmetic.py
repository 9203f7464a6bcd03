"""Additive energy, arithmetic-progression counts, and the randomized
dilation experiments.

E(A) = #{(a,b,c,d) in A^4 : a+b = c+d} is computed by counting ordered
pair sums (E = sum_sigma r(sigma)^2); T(A) = #{(a,b,c) in A^3 :
a-b = b-c != 0} counts ordered nontrivial 3-term progressions, so each
unordered progression contributes 2.  Both are exact integers.

Both counts are translation invariant, so they work on d = A - min A,
whose pair sums lie in [0, 2 span].  There are three regimes:

- dense: r(sigma) for every sigma in [0, 2 span] is one real FFT
  autoconvolution of the 0/1 indicator of d, of length L, the least
  power of two above 2 span, rounded to int64.  It is taken when
  L log2 L <= |A|^2, i.e. when the FFT's operation count is at most the
  sweep's, and L <= _FLAT_SUM_LIMIT.  The float64 error of an FFT
  convolution of x and y of length 2^n is below
  |x| |y| ((1+eps)^{3n} (1+eps sqrt 5)^{3n+1} (1+beta)^{3n} - 1)
  (Percival, Math. Comp. 72 (2003), Thm. 5.1; |.| the Euclidean norm,
  eps = 2^-53, beta the error of the roots of unity).  For 0/1 inputs
  |x| |y| = |A|, and at n <= 26 the bound is about 4e-14 |A|, far below
  1/2.  Every result is checked anyway: a rounding gap of 1/4 or more,
  or sum_sigma r(sigma) != |A|^2, raises ConsistencyError.  Memory is
  about three float64 arrays of length L.
- flat: any other span with 2 span at most _FLAT_SUM_LIMIT and at most
  _FLAT_SUM_FACTOR |A|^2 sweeps the unordered pairs once, in blocks of
  at most core._BLOCK sums (one reused buffer, _pair_sum_blocks): each
  block of rows with itself at weight 1, then with the columns to its
  right at weight 2, about |A|^2 / 2 sums for the |A|^2 ordered pairs,
  O(|A|^2) time.  Energy adds each sum's weight into an int32 table of
  r over [0, 2 span] (r <= |A| < 2^31; 4 (2 span + 1) bytes).
- wide: larger spans (a table much larger than the pair sums it counts)
  count energy from the runs of equal values in one sorted uint64 array
  of the pair sums (8 |A|^2 bytes, one outer sum, refused with
  BudgetError when |A|^2 exceeds the work budget).

Off the FFT regime the 3-AP count is split by parity: x + z = 2y forces
x = z (mod 2), and with x = 2x' + b, z = 2z' + b the midpoint is
x' + z' + b.  Each parity class b sweeps only its own unordered pairs,
about |A|^2 / 4 sums in all, looking the midpoints up in a bit table of
d over [0, span], span/64 + 1 words of 8 bytes (flat), or by binary
search in d (wide); one class's buffers are freed before the next class
allocates its own.  The squares 1..2000 peak at 1.4 MiB (flat).

The dilation experiment samples uniform alpha, forms {a_m alpha} for the
first N entries of A, and compares the sample mean of the triple
correlation R_3(s, N) against the lower bound 2 s T(A_N) / N^2 that the
progression structure forces on the alpha-average.  Each trial keeps
its own trial_rng(seed, t) stream; the trials run in chunks of at most
core._BLOCK points, one row per trial: one wrapping uint64 product
gives the chunk's fractional parts (seqgen.exact_frac_parts), one
row-wise sort, and core.self_window_blocks over the trials' grids side
by side, one per column, gives every window count z = end - start, and
each row's raw count is the exact product sum r_k_distinct takes, so
every R_3 value is the one r_k_distinct gives.  A chunk of P
points (P = core._BLOCK, or N when N is larger) peaks near 40 P bytes
under tracemalloc, 1.2 MiB at P = 2^15, or 52 P, 1.6 MiB, for the
wider windows, and none of its arrays lives into the next chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import PointSequence, grid_arc, self_window_blocks, to_grid
from .correlations import (_as_boxes, _as_scales, _charge_budget, _distinct_factors,
                           _exact_product_sum, r_k_box)
from .errors import ConsistencyError, ParameterError
from .seqgen import IntegerSet, exact_frac_parts, trial_rng

_FLAT_SUM_LIMIT = 1 << 26  # flat pair-sum tables while 2 * span is at most this
_FLAT_SUM_FACTOR = 4       # ... and at most this many times |A|^2


@dataclass(frozen=True)
class MetricExperimentReport:
    s: float
    n: int
    trials: int
    seed: int
    mean: float
    variance: float
    lower_bound: float          # 2 s T(A_N) / N^2
    fraction_above_poisson: float  # share of trials with R_3 > 4 s^2


def _as_elements(a) -> np.ndarray:
    e = a.elements if isinstance(a, IntegerSet) else IntegerSet(tuple(int(v) for v in a)).elements
    if e[-1] >= 2**63:
        raise ParameterError(f"elements must be below 2^63, got {e[-1]}")
    return np.asarray(e, dtype=np.int64)


def _translated(a) -> tuple[np.ndarray, bool]:
    """(d, flat): d = A - min A, and whether 2 * span fits the flat tables.
    Off the flat path d is uint64, where every pair sum (< 2^64) is exact."""
    e = _as_elements(a)
    d = e - e[0]
    flat = 2 * int(d[-1]) <= min(_FLAT_SUM_LIMIT, _FLAT_SUM_FACTOR * d.size**2)
    return (d if flat else d.astype(np.uint64)), flat


def _fft_length(d: np.ndarray) -> int:
    """Length L of the FFT autoconvolution of a flat d's indicator when it
    is the cheaper count (L log2 L <= |A|^2, L <= _FLAT_SUM_LIMIT), else 0."""
    length = 1 << (2 * int(d[-1])).bit_length()
    cheaper = length * (length.bit_length() - 1) <= d.size**2
    return length if cheaper and length <= _FLAT_SUM_LIMIT else 0


def _fft_pair_sum_counts(d: np.ndarray, length: int) -> np.ndarray:
    """r(sigma), sigma in [0, 2 span], as int64 from one real FFT of the
    indicator of d; raises ConsistencyError unless every value lies
    within 1/4 of an integer and the counts sum to |A|^2."""
    x = np.zeros(length)
    x[d] = 1.0
    f = np.fft.rfft(x)
    del x
    f *= f
    # L > 2 span, so the cyclic convolution does not wrap
    r = np.fft.irfft(f, n=length)[:2 * int(d[-1]) + 1]
    del f
    counts = np.rint(r)
    r -= counts
    gap = float(np.abs(r, out=r).max())
    del r
    counts = counts.astype(np.int64)
    total = int(counts.sum())
    if gap >= 0.25 or total != d.size**2:
        raise ConsistencyError(
            f"FFT pair-sum counts of |A| = {d.size} are off: rounding gap {gap:.3g}, "
            f"sum {total} != |A|^2 = {d.size**2}"
        )
    return counts


def _pair_sum_blocks(d: np.ndarray):
    """The sums d_i + d_j of every unordered pair {i, j}, i = j too, once,
    as (block, weight) with at most core._BLOCK sums per block: each
    block of rows with itself, every ordered pair of its square, weight
    1, then with the columns to its right, each pair in one order of
    the two, weight 2.  About |d| (|d| + rows) / 2 sums in all.  Every
    block is a view of one reused buffer, valid until the next."""
    n, block = d.size, core._BLOCK
    rows = min(n, max(1, block // n))
    cols = max(1, block // rows)  # all columns at once when n <= block
    buf = np.empty(rows * min(n, cols), dtype=d.dtype)
    for r in range(0, n, rows):
        a = d[r:r + rows, None]
        spans = [(r, r + rows, 1)] + [(c, c + cols, 2) for c in range(r + rows, n, cols)]
        for c, e, weight in spans:
            b = d[None, c:e]
            out = buf[:a.size * b.size].reshape(a.size, b.size)
            yield np.add(a, b, out=out).ravel(), weight


def _swept_pair_sum_counts(d: np.ndarray) -> np.ndarray:
    """r(sigma), sigma in [0, 2 span], as int32 (r <= |A| < 2^31) from the
    pair-sum sweep; the sweep's buffer is freed on return."""
    r = np.zeros(2 * int(d[-1]) + 1, dtype=np.int32)
    for block, weight in _pair_sum_blocks(d):
        np.add.at(r, block, np.int32(weight))  # an int32 value keeps the fast typed loop
    return r


def additive_energy(a) -> int:
    """E(A): exact count of quadruples with a+b = c+d, via pair-sum counts
    E = sum_sigma r(sigma)^2 with r(sigma) the ordered pairs summing to sigma."""
    d, flat = _translated(a)
    if flat:
        length = _fft_length(d)
        r = _fft_pair_sum_counts(d, length) if length else _swept_pair_sum_counts(d)
        return _exact_product_sum([r, r])
    _charge_budget(d.size**2, "wide additive energy: sorted pair sums |A|^2")
    sums = (d[:, None] + d).ravel()
    sums.sort()
    # r(sigma) are the lengths of the runs of equal sums; a run ends at
    # each i with sums[i] != sums[i+1], compared core._BLOCK at a time
    energy, run_start, step = 0, 0, core._BLOCK
    for c in range(0, sums.size - 1, step):
        part = sums[c:c + step + 1]
        ends = np.flatnonzero(part[1:] != part[:-1]) + (c + 1)
        if ends.size:
            runs = np.diff(ends, prepend=run_start)
            energy += _exact_product_sum([runs, runs])
            run_start = int(ends[-1])
    return energy + (sums.size - run_start) ** 2


def additive_energy_bruteforce(a) -> int:
    """O(|A|^4) oracle."""
    e = _as_elements(a).tolist()
    return sum(
        1
        for x in e
        for y in e
        for z in e
        for w in e
        if x + y == z + w
    )


def _midpoint_hits(h: np.ndarray, b: int, d: np.ndarray, bits) -> int:
    """#{(i, j) : h_i + h_j + b in d}, for the halves h = x >> 1 of one
    parity class b of d: by the flat bit table of d over [0, span] when
    one is given, else by binary search in d.  The sweep's buffers are
    freed on return."""
    hits = 0
    if bits is not None:
        size = min(h.size**2, core._BLOCK)
        word, bit = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
        for block, weight in _pair_sum_blocks(h):
            block += b
            w, i = word[:block.size], np.bitwise_and(block, 63, out=bit[:block.size])
            block >>= 6
            np.take(bits, block, out=w, mode="clip")  # every word index is in the table
            np.right_shift(w, i, out=w)  # bit i of its word, as bit 0
            w &= 1
            hits += weight * int(np.count_nonzero(w))
        return hits
    for block, weight in _pair_sum_blocks(h):
        block += np.uint64(b)
        # every midpoint is at most span = d[-1], so each search lands inside
        hits += weight * int(np.count_nonzero(d[np.searchsorted(d, block)] == block))
    return hits


def three_ap_count(a) -> int:
    """T(A): ordered triples (x,y,z) with x-y = y-z != 0, i.e. x+z = 2y,
    x != z, midpoint in A.  Counts the ordered pairs (x, z) with
    x + z in 2A; the |A| pairs x = z are the trivial ones.

    x + z = 2y forces x = z (mod 2), so off the FFT regime only the pairs
    of one parity class b are swept: with x = 2x' + b and z = 2z' + b the
    midpoint is x' + z' + b."""
    d, flat = _translated(a)
    length = _fft_length(d) if flat else 0
    if length:
        return int(_fft_pair_sum_counts(d, length)[2 * d].sum()) - d.size
    bits = None
    if flat:  # bit y & 63 of word y >> 6 for each y in d, the words as int64
        words = np.zeros(int(d[-1]) // 64 + 1, dtype=np.uint64)
        np.bitwise_or.at(words, d >> 6, np.left_shift(np.uint64(1), (d & 63).astype(np.uint64)))
        bits = words.view(np.int64)
    hits = 0
    for b in (0, 1):
        h = d[(d & 1) == b] >> 1
        if h.size:
            hits += _midpoint_hits(h, b, d, bits)
    return hits - d.size


def three_ap_count_bruteforce(a) -> int:
    """O(|A|^3) oracle."""
    e = _as_elements(a).tolist()
    return sum(
        1
        for x in e
        for y in e
        for z in e
        if x - y == y - z and x != y
    )


def metric_r3_experiment(a, s: float, n: int, trials: int, seed: int) -> MetricExperimentReport:
    """Sample uniform dilations alpha, compute R_3(s, N) of ({a_m alpha})
    per trial, and report the sample mean against 2 s T(A_N) / N^2."""
    e = _as_elements(a)
    if n < 1:
        raise ParameterError(f"N must be >= 1, got N = {n}")
    if n > e.size:
        raise ParameterError(f"N = {n} exceeds |A| = {e.size}")
    scales = _as_scales(s, 3, n)
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    _charge_budget(n * trials, "metric experiment: points N * trials")
    head = e[:n]
    t_count = three_ap_count(head)
    lower = 2.0 * s * t_count / n**2
    arc = grid_arc(-scales[0], scales[0], n)
    # the trials in chunks of at most core._BLOCK points, one row per
    # trial: the same values as r_k_distinct(PointSequence(row), scales)
    vals = np.empty(trials)
    rows = max(1, core._BLOCK // n)
    for t0 in range(0, trials, rows):
        alphas = [float(trial_rng(seed, t).random()) for t in range(t0, min(t0 + rows, trials))]
        points = exact_frac_parts(head, alphas)
        points.sort(axis=1)
        grid = to_grid(points.T)  # one trial per column
        del points
        # s <= N/2: each window holds a point at most once, z = end - start
        z = np.empty(grid.shape[::-1], dtype=np.int64)
        for b, [(start, end)] in self_window_blocks(grid, [arc]):
            np.subtract(end, start, out=z[:, b:b + len(start)].T)
        del grid, start, end
        raws = _exact_product_sum(_distinct_factors([z, z]))
        del z  # no chunk's arrays live into the next
        vals[t0:t0 + len(raws)] = [raw / n for raw in raws]
    mean = float(vals.mean())
    var = float(vals.var(ddof=1)) if trials > 1 else 0.0
    frac = float(np.mean(vals > 4.0 * s * s))
    return MetricExperimentReport(float(s), int(n), int(trials), int(seed),
                                  mean, var, lower, frac)


def random_correlation_stats(k: int, boxes, n: int, trials: int, seed: int):
    """Sample mean and unbiased sample variance of the box correlation
    over independent seeded uniform sequences of length n."""
    if n < 1:
        raise ParameterError(f"N must be >= 1, got N = {n}")
    boxes = _as_boxes(boxes, n, k)
    if trials < 2:
        raise ParameterError("trials must be >= 2")
    _charge_budget(n * trials, "random correlation stats: points N * trials")
    vals = np.empty(trials)
    for t in range(trials):
        seq = PointSequence(trial_rng(seed, t).random(n))
        vals[t] = r_k_box(seq, boxes).value
    return float(vals.mean()), float(vals.var(ddof=1))


def integer_range(n: int) -> IntegerSet:
    """{1, 2, ..., n}: maximal additive energy E ~ (2/3) n^3."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    return IntegerSet(tuple(range(1, n + 1)))


def additive_energy_range_closed_form(n: int) -> int:
    """E({1..n}) = n(n+1)(2n+1)/3 - n^2."""
    return n * (n + 1) * (2 * n + 1) // 3 - n * n

