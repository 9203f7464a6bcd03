"""k-th order correlation counters: fast sorted-window algorithms plus
brute-force oracles.

All statistics are normalized counts over index k-tuples
(i_1, ..., i_k), i_j <= N, of a point sequence (x_m):

  r_k_star      repeats allowed, ||x_{i_1} - x_{i_{r+1}}|| <= s_r/N;
                factorizes per anchor as prod_r z_{i_1}(s_r) with
                z_i(s) = #{j : ||x_i - x_j|| <= s/N}
  r_k_distinct  pairwise-distinct indices, same constraints
  r_k_box       distinct indices, signed constraints
                a_r/N <= ((x_{i_1} - x_{i_{r+1}})) <= b_r/N
  r_k_testfn    distinct indices, weight f(N((x_{i_1}-x_{i_2})), ...)
  r_k_consecutive  distinct indices, weight on consecutive differences
                f(N((x_{i_1}-x_{i_2})), N((x_{i_2}-x_{i_3})), ...)

Counts are exact integers; every fast path is tested for exact integer
agreement against brute_force_r_k.  Both read every constraint as an
integer arc on the 2^-64 grid (core.grid_arc): the fast paths through
the window primitive on the sorted grid, the oracle on the pairwise grid
differences.  Ties at an exact window boundary are included (closed
inequality) the same way on both, and the counts are those of the
stored doubles.

The three tuple forms are numpy passes over the sorted (anchor,
occupant) pair list of one window, with no per-anchor Python loop.
r_k_box counts injective slot fillings by Moebius inversion over the set
partitions of the k-1 slots, one bincount per block.  r_k_testfn and
r_k_consecutive build their tuples by chained joins on the pair list, in
chunks of whole anchors capped at _CHUNK_ROWS rows, and call the test
function once per chunk on an (m, k-1) float64 array of scaled
differences; its weights are summed with one math.fsum.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .core import (PointSequence, check_half, grid_arc, in_arc, signed_distance, to_grid,
                   window, window_pairs)
from .errors import BudgetError, ParameterError

ORACLE_BUDGET_ENV = "CORRKIT_ORACLE_BUDGET"
DEFAULT_ORACLE_BUDGET = 10**8

_SCALE_WRAPS = "scale {b} > N/2 = {half}: constraint arc wraps"
_BOX_WRAPS = "box bound beyond N/2 = {half}"


def oracle_budget() -> int:
    return int(os.environ.get(ORACLE_BUDGET_ENV, DEFAULT_ORACLE_BUDGET))


@dataclass(frozen=True)
class ScaleVector:
    """k-1 positive scales (s_1, ..., s_{k-1})."""

    scales: tuple[float, ...]

    def __post_init__(self):
        if len(self.scales) < 1:
            raise ParameterError("need at least one scale (k >= 2)")
        if any(s <= 0 for s in self.scales):
            raise ParameterError("all scales must be > 0")

    @classmethod
    def equal(cls, s: float, k: int) -> "ScaleVector":
        if k < 2:
            raise ParameterError("k must be >= 2")
        return cls((float(s),) * (k - 1))

    @property
    def k(self) -> int:
        return len(self.scales) + 1


@dataclass(frozen=True)
class BoxVector:
    """k-1 intervals (a_r, b_r), a_r < b_r, for the signed box form."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.intervals) < 1:
            raise ParameterError("need at least one interval (k >= 2)")
        if any(b <= a for a, b in self.intervals):
            raise ParameterError("each interval needs b > a")
        if len(self.intervals) > 15:
            raise ParameterError("orders above k = 16 are unsupported")

    @property
    def k(self) -> int:
        return len(self.intervals) + 1


@dataclass(frozen=True)
class CorrelationReport:
    """One computed statistic.

    ``value`` is the single correctly-rounded quotient raw_count / N
    whenever the statistic is a count (raw_count is not None).
    """

    statistic_name: str
    k: int
    n: int
    parameters: dict = field(compare=False)
    raw_count: int | None
    value: float


def _as_scales(scales, k=None) -> tuple[float, ...]:
    if isinstance(scales, ScaleVector):
        out = scales.scales
    elif np.ndim(scales) == 0:
        if k is None:
            raise ParameterError("a scalar scale needs an explicit k")
        out = (float(scales),) * (k - 1)
    else:
        out = tuple(float(s) for s in scales)
    if k is not None and len(out) != k - 1:
        raise ParameterError(f"expected {k - 1} scales, got {len(out)}")
    if len(out) < 1 or any(s <= 0 for s in out):
        raise ParameterError("scales must be positive and nonempty")
    if len(out) > 15:
        raise ParameterError("orders above k = 16 are unsupported")
    return out


def _as_boxes(boxes) -> tuple[tuple[float, float], ...]:
    if isinstance(boxes, BoxVector):
        return boxes.intervals
    out = tuple((float(a), float(b)) for a, b in boxes)
    BoxVector(out)  # validate
    return out


def _exact_product_sum(factors: list[np.ndarray]) -> int:
    """sum_i prod_r factors[r][i] as an exact Python int.

    Stays in int64 when a worst-case bound proves no overflow, otherwise
    falls back to Python-int (object) arithmetic.
    """
    maxes = [int(f.max(initial=0)) for f in factors]
    bound = 1
    for m in maxes:
        bound *= max(m, 1)
    n = factors[0].size
    if bound * n < 2**62:
        prod = factors[0].astype(np.int64, copy=True)
        for f in factors[1:]:
            prod *= f
        return int(prod.sum())
    prod = factors[0].astype(object)
    for f in factors[1:]:
        prod = prod * f.astype(object)
    return int(prod.sum())


def r_k_star(seq: PointSequence, scales, k=None) -> CorrelationReport:
    """Correlation count with repeated indices allowed.

    value = (1/N) sum_i prod_r z_i(s_r, N); always >= 1 since the
    diagonal tuples contribute z_i >= 1.
    """
    scales = _as_scales(scales, k)
    n = len(seq)
    check_half(scales, n, _SCALE_WRAPS)
    g = seq.sorted_grid
    zs = [window(g, g, grid_arc(-s, s, n))[1] for s in scales]
    raw = _exact_product_sum(zs)
    return CorrelationReport(
        "r_k_star", len(scales) + 1, n, {"scales": scales}, raw, raw / n
    )


def r_k_distinct(seq: PointSequence, scales, k=None) -> CorrelationReport:
    """Correlation count over pairwise-distinct index tuples.

    The count is invariant under permuting scale slots (a relabeling of
    tuple positions), so scales are sorted descending and the windows
    around each anchor become nested.  Filling slots from the smallest
    window outward, the injective assignments per anchor number
    c_(k-1) (c_(k-2) - 1) ... (c_1 - (k-2)), clamped at zero, where
    c_r = z_{i_1}(s_r) - 1 excludes the anchor itself.
    """
    scales = _as_scales(scales, k)
    n = len(seq)
    check_half(scales, n, _SCALE_WRAPS)
    g = seq.sorted_grid
    # the t-th filled slot uses the t-th smallest window
    factors = [np.maximum(window(g, g, grid_arc(-s, s, n))[1] - 1 - t, 0)
               for t, s in enumerate(sorted(scales))]
    raw = _exact_product_sum(factors)
    return CorrelationReport(
        "r_k", len(scales) + 1, n, {"scales": scales}, raw, raw / n
    )


# ---------------------------------------------------------------------------
# tuple enumeration over the sorted (anchor, occupant) window pairs


def _occupant_pairs(g: np.ndarray, radius: float, n: int):
    """(anchor, occupant) positions in the sorted grid of every index
    pair with ||x_a - x_o|| <= radius/N, the anchor itself excluded,
    sorted by anchor.  Duplicate values at other indices stay.
    """
    pa, pp = window_pairs(*window(g, g, grid_arc(-radius, radius, n)))
    keep = pp != pa
    return pa[keep], pp[keep]


def _set_partitions(m: int, alive):
    """Set partitions of the slots 0..m-1, as tuples of block bitmasks.

    Slots are placed in order, each into an existing block or a new one.
    A branch is cut as soon as one of its blocks fails alive(); blocks
    only gain slots further down, so a dead block never revives.
    """

    def rec(r, blocks):
        if r == m:
            yield blocks
            return
        bit = 1 << r
        for i, b in enumerate(blocks):
            if alive(b | bit):
                yield from rec(r + 1, blocks[:i] + (b | bit,) + blocks[i + 1:])
        if alive(bit):
            yield from rec(r + 1, blocks + (bit,))

    yield from rec(0, ())


def r_k_box(seq: PointSequence, boxes) -> CorrelationReport:
    """Distinct-index count with signed per-slot constraints
    a_r/N <= ((x_{i_1} - x_{i_{r+1}})) <= b_r/N.

    Symmetric boxes (-s, s) reproduce r_k_distinct.  Per anchor the slot
    candidate sets are arcs that need not be nested, so injective tuples
    are counted by Moebius inversion on the lattice of set partitions pi
    of the k-1 slots: sum_pi mu(pi) prod_{B in pi} #{occupants meeting
    every slot of B}, with mu(pi) = prod_B (-1)^(|B|-1) (|B|-1)!.  Each
    block count is one bincount over the window pairs, so the work is
    O(Bell(k-1) * window pairs), whatever the window occupancy.
    """
    boxes = _as_boxes(boxes)
    n = len(seq)
    k = len(boxes) + 1
    check_half(itertools.chain.from_iterable(boxes), n, _BOX_WRAPS)
    g = seq.sorted_grid
    pa, pp = _occupant_pairs(g, max(max(abs(a), abs(b)) for a, b in boxes), n)
    delta = g[pa] - g[pp]
    slot_ok = [in_arc(delta, grid_arc(a, b, n)) for a, b in boxes]
    # keep the anchors whose count can be nonzero: at least k-1 candidates
    # in all, and one in every slot.  An empty slot zeroes every
    # partition's product (each block lies inside a slot); too few
    # candidates make the anchor's partition terms cancel to zero.
    live = np.bincount(pa[np.logical_or.reduce(slot_ok)], minlength=n) >= k - 1
    for ok in slot_ok:
        live &= np.bincount(pa[ok], minlength=n) > 0
    raw = 0
    if live.any():
        on_live = live[pa]
        anchor = (np.cumsum(live) - 1)[pa[on_live]]
        slot_ok = [ok[on_live] for ok in slot_ok]
        n_live = int(np.count_nonzero(live))
        counts: dict[int, np.ndarray] = {}

        def block_count(mask: int) -> np.ndarray:
            if mask not in counts:
                ok = np.logical_and.reduce([slot_ok[r] for r in range(k - 1) if mask >> r & 1])
                counts[mask] = np.bincount(anchor[ok], minlength=n_live)
            return counts[mask]

        for blocks in _set_partitions(k - 1, lambda mask: block_count(mask).any()):
            mu = 1
            for mask in blocks:
                size = mask.bit_count()
                mu *= (-1) ** (size - 1) * math.factorial(size - 1)
            raw += mu * _exact_product_sum([block_count(mask) for mask in blocks])
    return CorrelationReport("r_k_box", k, n, {"boxes": boxes}, raw, raw / n)


# rows per chunk of whole anchors (counted before repeated indices are
# dropped); it bounds the memory of the tuple joins independently of N
_CHUNK_ROWS = 1 << 16


def _tuple_weight_sum(seq: PointSequence, f, radius: float, k: int, chained: bool) -> float:
    """math.fsum of the weights f gives the distinct-index k-tuples whose
    consecutive (chained) or anchored index pairs are all window pairs
    of the given radius (in units of 1/N).

    Tuples are built by k-2 joins on the sorted pair list: on the last
    index when chained, on the anchor otherwise; rows that repeat an
    index are dropped.  Column r of the (m, k-1) array passed to f is
    N((x_u - x_v)) for the pair (u, v) the join used.  math.fsum is
    exactly rounded, so the value does not depend on the chunking.
    """
    n = len(seq)
    if k < 2:
        raise ParameterError("k must be >= 2")
    check_half((radius,), n, "support radius {b} > N/2 = {half}")
    sp = seq.sorted_points
    pa, pp = _occupant_pairs(seq.sorted_grid, radius, n)
    scaled = n * signed_distance(sp[pa] - sp[pp])
    cnt = np.bincount(pa, minlength=n)
    start = np.concatenate(([0], np.cumsum(cnt)))
    # tuple rows per anchor after the last join, before repeats are dropped
    rows = cnt.astype(np.float64)
    for _ in range(k - 2):
        rows = np.bincount(pa, weights=rows[pp], minlength=n) if chained else rows * cnt
    ends = np.cumsum(rows)

    def chunk_weights():
        a0 = 0
        while a0 < n:
            done = ends[a0 - 1] if a0 else 0.0
            a1 = max(int(np.searchsorted(ends, done + _CHUNK_ROWS, side="right")), a0 + 1)
            sl = slice(start[a0], start[a1])
            a0 = a1
            cols, vals = [pa[sl], pp[sl]], [scaled[sl]]
            for _ in range(k - 2):
                key = cols[-1] if chained else cols[0]
                c = cnt[key]
                src = np.repeat(np.arange(key.size), c)
                pair = np.repeat(start[key] - (np.cumsum(c) - c), c) + np.arange(src.size)
                new = pp[pair]
                ok = np.ones(src.size, dtype=bool)
                for col in cols:
                    ok &= col[src] != new
                src, pair = src[ok], pair[ok]
                cols = [col[src] for col in cols] + [new[ok]]
                vals = [v[src] for v in vals] + [scaled[pair]]
            m = cols[0].size
            if m:
                w = np.asarray(f(np.column_stack(vals)), dtype=np.float64)
                if w.shape != (m,):
                    raise ParameterError(f"f must map an ({m}, {k - 1}) array to {m} weights, "
                                         f"got shape {w.shape}")
                yield w.tolist()

    return math.fsum(itertools.chain.from_iterable(chunk_weights()))


def r_k_testfn(seq: PointSequence, f, support_radius: float, k: int) -> CorrelationReport:
    """Weighted correlation sum over distinct tuples:
    (1/N) sum f(N((x_{i_1}-x_{i_2})), ..., N((x_{i_1}-x_{i_k}))).

    ``f`` maps an (m, k-1) float64 array of such rows to m weights and
    must vanish outside [-support_radius, support_radius]^(k-1);
    enumeration is restricted to window occupants per anchor.
    """
    n = len(seq)
    total = _tuple_weight_sum(seq, f, support_radius, k, chained=False)
    return CorrelationReport(
        "r_k_testfn", k, n, {"support_radius": support_radius}, None, total / n
    )


def r_k_consecutive(seq: PointSequence, f, support_radius: float, k: int) -> CorrelationReport:
    """Weighted sum over distinct tuples with consecutive differences:
    (1/N) sum f(N((x_{i_1}-x_{i_2})), N((x_{i_2}-x_{i_3})), ...).

    ``f`` takes (m, k-1) rows as in r_k_testfn and must vanish once any
    consecutive difference leaves [-support_radius, support_radius], so
    each next index is a window occupant of the previous one.  For k = 2
    this coincides with r_k_testfn.
    """
    n = len(seq)
    total = _tuple_weight_sum(seq, f, support_radius, k, chained=True)
    return CorrelationReport(
        "r_k_consecutive", k, n, {"support_radius": support_radius}, None, total / n
    )


# ---------------------------------------------------------------------------
# brute force oracle


def _pairwise_signed(seq: PointSequence) -> np.ndarray:
    x = seq.points
    return signed_distance(x[:, None] - x[None, :])


def _distinct_mask(n: int, m: int) -> np.ndarray:
    """Pairwise-distinct mask over [n]^m tuples, from one broadcast index
    vector per axis."""
    idx = [np.arange(n).reshape((n,) + (1,) * (m - 1 - a)) for a in range(m)]
    mask = np.ones((n,) * m, dtype=bool)
    for a in range(m):
        for b in range(a + 1, m):
            mask &= idx[a] != idx[b]
    return mask


def _charge_budget(n: int, k: int) -> None:
    if n**k > oracle_budget():
        raise BudgetError(
            f"brute force over N^k = {n}^{k} tuples exceeds the budget of "
            f"{oracle_budget()} visits (override via {ORACLE_BUDGET_ENV})"
        )


def brute_force_r_k(seq: PointSequence, *, scales=None, boxes=None, testfn=None,
                    support_radius=None, k=None, star=False) -> CorrelationReport:
    """Direct enumeration over all k-tuples; the reference every fast
    path is tested against.

    Exactly one of scales / boxes / testfn must be given.  Constraints
    are evaluated for every tuple of [N]^k from the pairwise grid
    differences of the points in their given order, independent of the
    sorted-window machinery; the integer arcs are those of the fast
    paths, so ties are read the same way.
    """
    given = [scales is not None, boxes is not None, testfn is not None]
    if sum(given) != 1:
        raise ParameterError("give exactly one of scales, boxes, testfn")
    n = len(seq)
    name = "brute_force_r_k_star" if star else "brute_force_r_k"

    if testfn is not None:
        if k is None or support_radius is None:
            raise ParameterError("testfn mode needs k and support_radius")
        _charge_budget(n, k)
        scaled = (n * _pairwise_signed(seq)).tolist()
        tuples = (
            itertools.product(range(n), repeat=k)
            if star
            else itertools.permutations(range(n), k)
        )
        # one f call per tuple, on a one-row array
        terms = [
            float(testfn(np.array([[scaled[t[0]][j] for j in t[1:]]]))[0])
            for t in tuples
        ]
        total = math.fsum(terms)
        return CorrelationReport(name, k, n, {"support_radius": support_radius},
                                 None, total / n)

    if scales is not None:
        scales = _as_scales(scales, k)
        check_half(scales, n, _SCALE_WRAPS)
        arcs = [grid_arc(-s, s, n) for s in scales]
    else:
        boxes = _as_boxes(boxes)
        check_half(itertools.chain.from_iterable(boxes), n, _BOX_WRAPS)
        arcs = [grid_arc(a, b, n) for a, b in boxes]
    k = len(arcs) + 1
    _charge_budget(n, k)
    g = to_grid(seq.points)
    delta = g[:, None] - g[None, :]
    slot_masks = [in_arc(delta, arc) for arc in arcs]

    distinct = None if star else _distinct_mask(n, k - 1)
    ids = np.arange(n)
    raw = 0
    for i1 in range(n):
        rows = [sm[i1] for sm in slot_masks]
        if not star:
            rows = [r & (ids != i1) for r in rows]
        tensor = rows[0]
        for r in rows[1:]:
            tensor = tensor[..., None] & r
        if not star:
            tensor = tensor & distinct
        raw += int(tensor.sum())
    params = {"scales": scales} if scales is not None else {"boxes": boxes}
    return CorrelationReport(name, k, n, params, raw, raw / n)
