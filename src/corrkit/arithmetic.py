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
  _FLAT_SUM_FACTOR |A|^2 sweeps the |A|^2 ordered pair sums in blocks of
  at most _PAIR_CHUNK against tables indexed by [0, 2 span]:
  O(|A|^2) time and O(_PAIR_CHUNK + span) memory.
- wide: larger spans (a table much larger than the pair sums it counts)
  count energy from the runs of equal values in one sorted uint64 array
  of the pair sums (8 |A|^2 bytes, one outer sum, refused with
  BudgetError when |A|^2 exceeds the oracle budget) and test 3-AP
  midpoints by binary search.

The dilation experiment samples uniform alpha, forms {a_m alpha} for the
first N entries of A, and compares the sample mean of the triple
correlation R_3(s, N) against the lower bound 2 s T(A_N) / N^2 that the
progression structure forces on the alpha-average.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PointSequence
from .correlations import ORACLE_BUDGET_ENV, oracle_budget, r_k_box, r_k_distinct, _as_boxes
from .errors import BudgetError, ConsistencyError, ParameterError
from .seqgen import IntegerSet, exact_frac_parts, trial_rng

_FLAT_SUM_LIMIT = 1 << 26  # flat pair-sum tables while 2 * span is at most this
_FLAT_SUM_FACTOR = 4       # ... and at most this many times |A|^2
_PAIR_CHUNK = 1 << 20      # pair sums formed at a time
_METRIC_WORK_LIMIT = 10**8


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
    """All |d|^2 ordered pair sums d_i + d_j, at most _PAIR_CHUNK per block.
    Every block is a view of one reused buffer, valid until the next."""
    n = d.size
    rows = max(1, _PAIR_CHUNK // n)
    cols = min(n, _PAIR_CHUNK)
    buf = np.empty(min(rows, n) * cols, dtype=d.dtype)
    for r in range(0, n, rows):
        for c in range(0, n, cols):
            a, b = d[r:r + rows, None], d[None, c:c + cols]
            out = buf[:a.size * b.size].reshape(a.size, b.size)
            yield np.add(a, b, out=out).ravel()


def _sum_of_squares(r: np.ndarray) -> int:
    """Exact sum of r^2 over int64 counts: each int64 partial sum covers
    few enough entries that it stays below 2^63."""
    top = max(1, int(r.max()))
    step = max(1, (2**63 - 1) // (top * top))
    return sum(int(part @ part) for part in (r[i:i + step] for i in range(0, r.size, step)))


def additive_energy(a) -> int:
    """E(A): exact count of quadruples with a+b = c+d, via pair-sum counts
    E = sum_sigma r(sigma)^2 with r(sigma) the ordered pairs summing to sigma."""
    d, flat = _translated(a)
    if flat:
        length = _fft_length(d)
        if length:
            r = _fft_pair_sum_counts(d, length)
        else:
            r = np.zeros(2 * int(d[-1]) + 1, dtype=np.int64)
            for block in _pair_sum_blocks(d):
                np.add.at(r, block, 1)
        return _sum_of_squares(r)
    if d.size**2 > oracle_budget():
        raise BudgetError(
            f"wide additive energy sorts |A|^2 = {d.size**2} pair sums, over the "
            f"budget of {oracle_budget()} (override via {ORACLE_BUDGET_ENV})"
        )
    sums = (d[:, None] + d).ravel()
    sums.sort()
    # r(sigma) are the lengths of the runs of equal sums; a run ends at
    # each i with sums[i] != sums[i+1], compared _PAIR_CHUNK at a time
    energy, run_start = 0, 0
    for c in range(0, sums.size - 1, _PAIR_CHUNK):
        part = sums[c:c + _PAIR_CHUNK + 1]
        ends = np.flatnonzero(part[1:] != part[:-1]) + (c + 1)
        if ends.size:
            runs = np.diff(ends, prepend=run_start)
            energy += int(runs @ runs)
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


def three_ap_count(a) -> int:
    """T(A): ordered triples (x,y,z) with x-y = y-z != 0, i.e. x+z = 2y,
    x != z, midpoint in A.  Counts the ordered pairs (x, z) with
    x + z in 2A; the |A| pairs x = z are the trivial ones."""
    d, flat = _translated(a)
    length = _fft_length(d) if flat else 0
    if length:
        return int(_fft_pair_sum_counts(d, length)[2 * d].sum()) - d.size
    doubled = 2 * d
    hits = 0
    if flat:
        member = np.zeros(int(doubled[-1]) + 1, dtype=bool)
        member[doubled] = True
        for block in _pair_sum_blocks(d):
            hits += int(np.count_nonzero(member[block]))
    else:
        # every pair sum is at most doubled[-1], so each search lands inside
        for block in _pair_sum_blocks(d):
            hits += int(np.count_nonzero(doubled[np.searchsorted(doubled, block)] == block))
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
    if n > e.size:
        raise ParameterError(f"N = {n} exceeds |A| = {e.size}")
    if s > n / 2:
        raise ParameterError(f"need s <= N/2 = {n / 2}")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if n * trials > _METRIC_WORK_LIMIT:
        raise BudgetError(f"N * trials = {n * trials} exceeds {_METRIC_WORK_LIMIT}")
    head = e[:n]
    t_count = three_ap_count(head)
    lower = 2.0 * s * t_count / n**2
    vals = np.empty(trials)
    for t in range(trials):
        alpha = float(trial_rng(seed, t).random())
        seq = PointSequence(exact_frac_parts(head, alpha))
        vals[t] = r_k_distinct(seq, (s, s)).value
    mean = float(vals.mean())
    var = float(vals.var(ddof=1)) if trials > 1 else 0.0
    frac = float(np.mean(vals > 4.0 * s * s))
    return MetricExperimentReport(float(s), int(n), int(trials), int(seed),
                                  mean, var, lower, frac)


def random_correlation_stats(k: int, boxes, n: int, trials: int, seed: int):
    """Sample mean and unbiased sample variance of the box correlation
    over independent seeded uniform sequences of length n."""
    boxes = _as_boxes(boxes)
    if len(boxes) != k - 1:
        raise ParameterError(f"expected {k - 1} boxes for k = {k}")
    if trials < 2:
        raise ParameterError("trials must be >= 2")
    if n * trials > _METRIC_WORK_LIMIT:
        raise BudgetError(f"N * trials = {n * trials} exceeds {_METRIC_WORK_LIMIT}")
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


def dilation_measure_quadrature(d: int, s: float, n: int, grid: int = 200001) -> float:
    """Midpoint-rule measure of {alpha in [0,1) : ||d alpha|| <= s/N};
    the exact value is 2s/N for every integer d >= 1."""
    if d < 1:
        raise ParameterError("d must be >= 1")
    alphas = (np.arange(grid) + 0.5) / grid
    frac = (d * alphas) % 1.0
    dist = np.minimum(frac, 1.0 - frac)
    return float(np.mean(dist <= s / n))
