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

Every statistic takes an order 2 <= k <= 16 (core.check_order), and
scales and box bounds of at most N/2 (_as_scales, _as_boxes), so no
constraint arc wraps.  Counts are exact integers; every fast path is
tested for exact integer agreement against brute_force_r_k.  Both read
every constraint as an integer arc on the 2^-64 grid (core.grid_arc):
the fast paths through the window primitive on the sorted grid, the
oracle on the pairwise grid differences.  Ties at an exact window
boundary are included (closed inequality) the same way on both, and
the counts are those of the stored doubles.

r_k_distinct and r_k_star share one reduction, _raw_counts, which the
dilation trials also call on a stack of grids: one window per distinct
scale and block of anchors from core.self_window_blocks, the block's
windows freed, then its exact products added up per row, the head of
each product in one accumulator.  A scale of N/2 is the whole circle,
whose windows are not searched.  Their peak is the larger of the window
search's and 8 (d + k) bytes per anchor of a block for d distinct
scales, whatever N: under 1 MiB at k = 3 and one scale, under 1.8 MiB
at k = 5 with two distinct scales (0.91 and 1.76 MiB at N = 2^20 and
scales 1 and 2).  Every exact sum of products in corrkit (these counts,
r_k_box's, arithmetic's energy, intervalstats' tent sums and averaged's
C_k*) is _exact_product_sum: int64 where the products and their chunks'
sums fit, 24-bit limbs past that, never an array of Python ints.

r_k_box counts injective slot fillings by Moebius inversion over the
set partitions of the k-1 slots, in the same blocks of anchors and with
no pair list: an anchor's candidates for one slot are one run of the
unrolled sorted grid, so those of several slots are the intersection of
their runs.  r_k_testfn and r_k_consecutive keep one window's run for
every point, 16 bytes per point, and grow their tuples from it depth
first, in slices of at most core._BLOCK rows, as columns of int64 grid
offsets (_tuple_offsets); they call the test function once per slice on
an (m, k-1) float64 array of those offsets times N 2^-64, each rounded
once (_scaled_offsets).  They sum its weights exactly, rounded once
(core.exact_chunk_sum, equal to one math.fsum over all of them).
brute_force_r_k(testfn=...) gives f the same offsets.  The rows their
joins would make if none repeated an index are counted (exactly below
2^53) and charged to the work budget before the first join.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import (GRID, PointSequence, check_half, check_order, exact_chunk_sum, grid_arc,
                   in_arc, self_window_blocks, stirling_second, to_grid)
from .errors import BudgetError, ParameterError

ORACLE_BUDGET_ENV = "CORRKIT_ORACLE_BUDGET"
DEFAULT_ORACLE_BUDGET = 10**8

_SCALE_WRAPS = "scale {b} > N/2 = {half}: constraint arc wraps"
_BOX_WRAPS = "box bound beyond N/2 = {half}"


def oracle_budget() -> int:
    """The work budget: CORRKIT_ORACLE_BUDGET, an integer >= 0, or 10^8."""
    text = os.environ.get(ORACLE_BUDGET_ENV, str(DEFAULT_ORACLE_BUDGET))
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise ParameterError(f"{ORACLE_BUDGET_ENV} = {text!r} is not an integer >= 0")


def _charge_budget(work: int, what: str) -> None:
    """Refuse, before doing any of it, work over the one budget every
    costly job is charged to: brute-force tuple visits, wide |A|^2 pair
    sums, N * trials of the randomized experiments, the rows of the
    weighted tuple sums, and r_k_box's partition terms."""
    budget = oracle_budget()
    if work > budget:
        raise BudgetError(f"{what} = {work} exceeds the work budget of {budget} "
                          f"(override via {ORACLE_BUDGET_ENV})")


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


def _as_scales(scales, k=None, n=None) -> tuple[float, ...]:
    """k-1 positive scales (s_1, ..., s_{k-1}) for an order 2 <= k <= 16
    (core.check_order); a scalar s with k means s k-1 times.  Given N,
    every scale is at most N/2, so no constraint arc wraps."""
    if k is not None:
        check_order(k)
    if np.ndim(scales) == 0:
        if k is None:
            raise ParameterError("a scalar scale needs an explicit k")
        out = (float(scales),) * (k - 1)
    else:
        out = tuple(float(s) for s in scales)
    if k is not None and len(out) != k - 1:
        raise ParameterError(f"expected {k - 1} scales, got {len(out)}")
    if len(out) < 1 or not all(s > 0 for s in out):  # NaN fails too
        raise ParameterError("scales must be positive and nonempty")
    check_order(len(out) + 1)
    if n is not None:
        check_half(out, n, _SCALE_WRAPS)
    return out


def _as_boxes(boxes, n: int, k=None) -> tuple[tuple[float, float], ...]:
    """k-1 intervals (a_r, b_r) with a_r < b_r, for the signed box form of
    an order 2 <= k <= 16 (checked against k when given), every bound at
    most N/2 in size, so no constraint arc wraps."""
    if k is not None:
        check_order(k)
    out = tuple((float(a), float(b)) for a, b in boxes)
    if k is not None and len(out) != k - 1:
        raise ParameterError(f"expected {k - 1} boxes for k = {k}, got {len(out)}")
    if len(out) < 1:
        raise ParameterError("need at least one interval (k >= 2)")
    if not all(b > a for a, b in out):  # NaN fails too
        raise ParameterError("each interval needs b > a")
    check_order(len(out) + 1)
    check_half(itertools.chain.from_iterable(out), n, _BOX_WRAPS)
    return out


def _check_radius(radius: float, n: int) -> None:
    """0 < support radius <= N/2 for the weighted sums and their oracle."""
    if not radius > 0:  # NaN fails too
        raise ParameterError(f"support radius must be positive, got {radius}")
    check_half((radius,), n, "support radius {b} > N/2 = {half}")


def _exact_product_sum(factors: list):
    """sum_i prod_r factors[r][..., i] over the last axis, as exact Python
    ints: one int for 1-D factors, a list of ints for rows.  A factor is
    an array of nonnegative ints or, for values past int64, a linear form
    (coefs, x): ints c_t and an int64 array x of shape (len(coefs), ...)
    with entries within [-8, 2^24 + 8), for sum_t c_t x[t], nonnegative
    at every entry (averaged's b N 2^64 L_i, from the limbs of cnt_i and
    D_i).

    With B the product of the factors' largest values, the products are
    int64 when B < 2^63, summed in chunks of at most core._BLOCK entries
    and (2^63 - 1) // B along a row, so no partial sum passes 2^63, and
    the chunks' sums are added as Python ints.  An array given as several
    factors is read, and widened, once per chunk, and all factors but the
    last are multiplied into one accumulator.

    Every other sum (a linear form, B >= 2^63, or a lone factor whose
    chunks would be cut) is taken in 24-bit limbs (_limb_product_sum).
    """
    distinct = {id(f): f for f in factors}  # a repeated array, as r in sum r^2, is read once
    *rows, n = factors[0][1].shape[1:] if isinstance(factors[0], tuple) else factors[0].shape
    step = max(1, core._BLOCK // math.prod(rows))
    top = {key: max(int(f.max(initial=0)), 1) for key, f in distinct.items() if not isinstance(f, tuple)}
    bound = math.prod(top.get(id(f), 2**63) for f in factors)  # a linear form is past int64
    if bound * (step if len(factors) == 1 else 1) >= 2**63:
        return _limb_product_sum(factors, distinct, top, rows, n, step)
    step = min(step, (2**63 - 1) // bound)
    sums = []
    for i in range(0, max(n, 1), step):
        part = {key: f[..., i:i + step].astype(np.int64, copy=False) for key, f in distinct.items()}
        *head, last = (part[id(f)] for f in factors)
        if not head:
            sums.append(last.sum(axis=-1))
            continue
        acc = head[0] if len(head) == 1 else np.multiply(head[0], head[1])
        for f in head[2:]:
            acc *= f  # one accumulator for the head's product, whatever k
        sums.append(np.vecdot(acc, last))
    total = np.asarray(sums).astype(object).sum(axis=0)
    return total.tolist() if rows else total


# bits per limb of the exact sums past int64: two limbs multiply below
# 2^48, and 2^14 such products sum below 2^62
_LIMB = 24
_LIMB_MASK = (1 << _LIMB) - 1


def _limb_count(top: int) -> int:
    """Limbs of 24 bits that hold the ints 0, ..., top."""
    return max(1, -(-top.bit_length() // _LIMB))


def _limb_product_sum(factors, distinct, top, rows, n, step):
    """_exact_product_sum past int64, on linear forms of 24-bit limbs.

    An array factor becomes the form of its limbs (_limbs), 2^(24 t)
    times limb t.  A lone factor sums each row of its form.  Otherwise
    the product is bilinear in the last factor and the product of the
    others, the head: one vecdot per row of the head, broadcast over the
    rows of the last factor, takes the sums of all the pairs of rows, in
    sub-blocks of at most 2^14 entries of a row.  A head of one factor is
    its own form, so two factors take no limbs of their products, and a
    square takes each pair of rows once.  A head of several is
    multiplied in limbs: each distinct factor's form is carried into
    limbs once per sub-block, its rows times the signed 24-bit limbs of
    their coefficients added up and carried (_carry), and each product is
    a limb convolution (_times).  The sub-blocks shrink as the head's limbs
    grow, 2^15 entries in all of its limb rows, so its temporaries take
    a few bytes per entry of a block at every order (c_k_star's peak is
    2.0 MiB at N = 2^20 for k = 2 to 16).
    """
    forms = {key: f if isinstance(f, tuple) else
             ([1 << _LIMB * t for t in range(_limb_count(top[key]))],
              _limbs(f, np.empty((_limb_count(top[key]), *f.shape), dtype=np.int64)))
             for key, f in distinct.items()}
    *head, last = (forms[id(f)] for f in factors)
    coefs, y = last
    widths = {id(f): _limb_count(max(map(abs, f[0]))) + 2 for f in head}  # rows of a factor's limbs
    step = (max(1, min(step, 2**14) * 2 // sum(widths[id(f)] for f in head)) if len(head) > 1
            else 2**14 if head else max(n, 1))
    square = len(head) == 1 and head[0] is last  # then each pair of rows once
    total = 0
    for i in range(0, max(n, 1), step):
        at = (..., slice(i, i + step))
        if not head:  # entries within 2^24 + 8 sum below 2^63 in any row
            pairs, sums = coefs, y.sum(axis=-1)
        else:
            if len(head) == 1:
                hc, hx = head[0][0], head[0][1][at]
            else:
                limbs = {key: _carry(_columns(f, at, widths[key]))
                         for key, f in {id(f): f for f in head}.items()}  # a repeated factor once
                hx = functools.reduce(_times, (limbs[id(f)] for f in head))
                hc = [1 << _LIMB * t for t in range(len(hx))]
                del limbs
            pairs = [c * d * (1 + (square and u < v)) for u, c in enumerate(hc) for v, d in enumerate(coefs)
                     if not square or u <= v]
            sums = np.concatenate([np.vecdot(h, y[at][u if square else 0:]) for u, h in enumerate(hx)])
            del hx  # before the next sub-block's limbs
        total += np.dot(np.array(pairs, dtype=object), sums.reshape(len(pairs), -1).astype(object))
    return total.tolist() if rows else int(total[0])


def _columns(form, at, width: int) -> np.ndarray:
    """The columns, shape (width, ...), of a linear form (coefs, x) at the
    entries at: each row x[t] times the signed 24-bit limbs of its
    coefficient, added up by limb."""
    cols = np.zeros((width, *form[1][0][at].shape), dtype=np.int64)
    for c, x in zip(*form):
        for j in range(_limb_count(abs(c))):
            if limb := abs(c) >> _LIMB * j & _LIMB_MASK:
                cols[j] += (limb if c > 0 else -limb) * x[at]
    return cols


def _times(acc: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The limbs of the product of two numbers in limbs within
    [-8, 2^24 + 8), each of shape (limbs, ...): a convolution, one
    broadcast multiply-add per limb of f, below 2^51 a column while f has
    at most 8 limbs, then carried (_carry)."""
    out = np.zeros((len(acc) + len(f), *acc.shape[1:]), dtype=np.int64)
    for j, limb in enumerate(f):
        out[j:j + len(acc)] += acc * limb
    return _carry(out)


def _carry(x: np.ndarray) -> np.ndarray:
    """x, the columns sum_t x[t] 2^(24 t) of a nonnegative number below
    2^(24 len(x)), each below 2^51 in magnitude, carried twice at once in
    place: each column's carry, its arithmetic shift, goes to the next,
    which leaves every limb within [-8, 2^24 + 8).  Returns x less its
    top limbs that are zero."""
    for _ in range(2):
        carry = x[:-1] >> _LIMB
        x[:-1] &= _LIMB_MASK
        x[1:] += carry
    while len(x) > 1 and not x[-1].any():
        x = x[:-1]
    return x


def _limbs(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The 24-bit limbs of an array of nonnegative ints below
    2^(24 len(out)), least significant first, written into the rows of
    out as int64: returns out."""
    for t, limb in enumerate(out.view(x.dtype) if x.dtype.itemsize == 8 else out):  # no cast
        if t + 1 < len(out):
            np.bitwise_and(x >> _LIMB * t if t else x, _LIMB_MASK, out=limb)
        else:
            np.right_shift(x, _LIMB * t, out=limb)
    return out


def _raw_counts(grid: np.ndarray, scales, n: int, distinct: bool):
    """N R_k (distinct) or N R_k* of the scales for a sorted grid, an exact
    int, or for each row of a stack (c, m), a list of ints, one window per
    distinct scale and block of anchors (core.self_window_blocks).

    The scales are at most N/2 (_as_scales), so a window holds each point
    at most once, and z_r = end - start = #{j : ||p_j - c|| <= s_r/N}
    around an anchor c.  R_k* takes prod_r z_r, the scales in their
    order, and R_k the injective fillings prod_t max(z_t - 1 - t, 0), the
    windows ascending: the t-th filled slot uses the t-th smallest
    window.  Each block's windows are freed before its exact product
    sums, which are added per row, its distinct factors are clamped in
    place, and its counts are freed before the next block's windows.

    A scale of N/2, grid_arc (1 - 2^63, 2^63), is the whole circle: its
    z is m around every anchor of a grid of m points, so its slots are
    the constant factors m or max(m - 1 - t, 0), and no window of it is
    searched.
    """
    m = grid.shape[-1]
    arcs = {s: grid_arc(-s, s, n) for s in sorted(set(scales))}
    searched = [s for s, (lo, hi) in arcs.items() if hi - lo < GRID - 1]
    order = sorted(scales) if distinct else scales
    slots = [(t, s) for t, s in enumerate(order) if s in searched]
    circle = math.prod(max(m - 1 - t, 0) if distinct else m
                       for t, s in enumerate(order) if s not in searched)
    total = np.zeros(grid.shape[:-1], dtype=object)  # exact ints, one per row
    if not slots:  # m anchors, each with the circle's factors alone
        total += m
    else:
        for _, wins in self_window_blocks(grid, [arcs[s] for s in searched]):
            z = {s: end - start for s, (start, end) in zip(searched, wins)}
            del wins
            factors = [z[s] - (1 + t) if distinct else z[s] for t, s in slots]
            total += _exact_product_sum([np.maximum(f, 0, out=f) if distinct else f
                                         for f in factors])
            del z, factors  # before the next block's windows
    total *= circle
    return total.tolist()


def r_k_star(seq: PointSequence, scales, k=None) -> CorrelationReport:
    """Correlation count with repeated indices allowed.

    value = (1/N) sum_i prod_r z_i(s_r, N); always >= 1 since the
    diagonal tuples contribute z_i >= 1.
    """
    n = len(seq)
    scales = _as_scales(scales, k, n)
    raw = _raw_counts(seq.sorted_grid, scales, n, distinct=False)
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
    n = len(seq)
    scales = _as_scales(scales, k, n)
    raw = _raw_counts(seq.sorted_grid, scales, n, distinct=True)
    return CorrelationReport(
        "r_k", len(scales) + 1, n, {"scales": scales}, raw, raw / n
    )


# ---------------------------------------------------------------------------
# tuple enumeration from window runs: signed boxes, weighted sums


def _set_partitions(m: int, alive, r: int = 0, blocks: tuple = ()):
    """Set partitions of the slots 0..m-1, as tuples of block bitmasks.

    Slots are placed in order, each into an existing block or a new one.
    A branch is cut as soon as one of its blocks fails alive(); blocks
    only gain slots further down, so a dead block never revives.
    """
    if r == m:
        yield blocks
        return
    bit = 1 << r
    for i, b in enumerate(blocks):
        if alive(b | bit):
            yield from _set_partitions(m, alive, r + 1, blocks[:i] + (b | bit,) + blocks[i + 1:])
    if alive(bit):
        yield from _set_partitions(m, alive, r + 1, blocks + (bit,))


def r_k_box(seq: PointSequence, boxes, k=None) -> CorrelationReport:
    """Distinct-index count with signed per-slot constraints
    a_r/N <= ((x_{i_1} - x_{i_{r+1}})) <= b_r/N, over k - 1 boxes (the
    count is checked when k is given).

    Symmetric boxes (-s, s) reproduce r_k_distinct.  Per anchor the slot
    candidate sets are arcs that need not be nested, so injective tuples
    are counted by Moebius inversion on the lattice of set partitions pi
    of the k-1 slots: sum_pi mu(pi) prod_{B in pi} #{occupants meeting
    every slot of B}, with mu(pi) = prod_B (-1)^(|B|-1) (|B|-1)!.  Each
    slot's candidates are one run [start, end) of the unrolled grid
    (core.self_window_blocks), so a block B's count is
    max(min end - max start, 0), less the anchor where that run holds
    it: O(Bell(k-1) N) work at most, whatever the window occupancy.  An
    anchor no tuple can fill counts zero, and a block of such anchors
    is skipped: sparse windows cost O(k N) at any order.  Before each
    block's partition sum, Bell(k-1) terms per live anchor are added to
    a running total charged to the work budget, so dense windows at a
    high k raise BudgetError at the first such block.  Per anchor
    of a core._BLOCK block, the peak is 16 bytes per slot, 8 per
    cached block count (at most 2^(k-1) - 1) and under 40 more: 3 MiB at
    k = 3, 11.5 MiB at k = 6 (2.8 and 11.3 measured at N = 2^20).
    """
    n = len(seq)
    boxes = _as_boxes(boxes, n, k)
    k = len(boxes) + 1
    # a/N <= ((c - y)) <= b/N for anchor c and occupant y: y - c in (-hi, -lo)
    arcs = [(-hi, -lo) for lo, hi in (grid_arc(a, b, n) for a, b in boxes)]
    distinct = sorted(set(arcs))
    bell = sum(stirling_second(k - 1, j) for j in range(k))
    raw = terms = 0
    for b, wins in self_window_blocks(seq.sorted_grid, distinct):
        runs = [wins[distinct.index(arc)] for arc in arcs]
        anchor = np.arange(b, b + runs[0][0].size)

        def others(start, end):  # occupants of [start, end), the anchor left out
            return np.maximum(end - start, 0) - ((start <= anchor) & (anchor < end))

        # count only the anchors whose count can be nonzero: a candidate in
        # every slot, and at least k-1 in the hull of all slots' runs.  An
        # empty slot zeroes every partition's product (each block lies in a
        # slot); too few candidates make the partition terms cancel to zero.
        # Zeroing the other anchors' counts lets _set_partitions cut more,
        # and a block with no live anchor is skipped.
        live = others(functools.reduce(np.minimum, [s for s, _ in runs]),
                      functools.reduce(np.maximum, [e for _, e in runs])) >= k - 1
        for start, end in runs:
            live &= others(start, end) > 0
        if not live.any():
            continue
        terms += bell * int(np.count_nonzero(live))
        _charge_budget(terms, f"box partition terms Bell({k - 1}) * live anchors")

        @functools.cache
        def block_count(mask: int) -> np.ndarray:
            slots = [runs[r] for r in range(k - 1) if mask >> r & 1]
            return live * others(functools.reduce(np.maximum, [s for s, _ in slots]),
                                 functools.reduce(np.minimum, [e for _, e in slots]))

        for blocks in _set_partitions(k - 1, lambda mask: block_count(mask).any()):
            mu = 1
            for mask in blocks:
                size = mask.bit_count()
                mu *= (-1) ** (size - 1) * math.factorial(size - 1)
            raw += mu * _exact_product_sum([block_count(mask) for mask in blocks])
        block_count.cache_clear()  # before the next block's windows
    return CorrelationReport("r_k_box", k, n, {"boxes": boxes}, raw, raw / n)


def _tuple_offsets(seq: PointSequence, radius: float, k: int, chained: bool):
    """The distinct-index k-tuples whose consecutive (chained) or anchored
    index pairs are all window pairs of the given radius (in units of
    1/N), as a function that yields them slice by slice: a list of k - 1
    int64 columns, column r the grid offset g_u - g_v (sorted_grid,
    viewed as int64) of the pair (u, v) of the r-th join.  Those are
    exact, as a window radius is at most N/2: 2^63 on the grid, which
    reads as -2^63.

    Rows start as the anchors and grow depth first by k - 1 joins, on the
    last index when chained, on the anchor otherwise.  A join adds the
    key's window occupants first[key] + j mod N (its unrolled run, from
    core.self_window_blocks) in slices of at most core._BLOCK rows, drops
    the rows that repeat an index, and grows each slice or yields it.
    Before the first join, the rows of the last join, repeated indices
    included (_row_count), are charged to the work budget, so a wide
    radius or a high k raises BudgetError at once.  Peak: the runs, 16
    bytes per point, under 8 (2d + 7) bytes per row of the slice at each
    depth d < k, and what the caller makes of a slice; chained at k >= 4,
    the count holds 8 bytes per point (16 from k = 6) before the joins
    start.
    """
    n = len(seq)
    check_order(k)
    _check_radius(radius, n)
    g = seq.sorted_grid
    first = np.empty(n, dtype=np.int64)
    last = np.empty(n, dtype=np.int64)
    for b, [(start, end)] in self_window_blocks(g, [grid_arc(-radius, radius, n)]):
        first[b:b + start.size] = start
        last[b:b + end.size] = end
    _charge_budget(_row_count(first, last, k, chained),
                   f"weighted {k}-tuple rows of radius {radius}, repeated indices included")
    step = core._BLOCK

    def grow(cols):
        key = cols[-1] if chained else cols[0]
        cnt = last[key] - first[key]
        ends = np.cumsum(cnt)
        base = last[key] - ends  # output j of row r is occupant base[r] + j
        for a in range(0, int(ends[-1]), step):
            z = min(a + step, int(ends[-1]))
            r0, r1 = np.searchsorted(ends, (a, z - 1), side="right")  # the rows of outputs a..z-1
            e = ends[r0:r1 + 1]
            c = np.minimum(e, z) - np.maximum(e - cnt[r0:r1 + 1], a)  # and their outputs there
            src = np.repeat(np.arange(r0, r1 + 1), c)
            new = np.repeat(base[r0:r1 + 1], c) + np.arange(a, z)
            new %= n
            ok = np.ones(src.size, dtype=bool)
            for col in cols:
                ok &= col[src] != new
            src, new = src[ok], new[ok]
            if not new.size:
                continue
            rows = [col[src] for col in cols] + [new]
            if len(rows) < k:
                yield from grow(rows)
            else:  # the pairs of the joins: (i_1, i_(r+1)), or (i_r, i_(r+1)) chained
                yield [(g[rows[r - 1 if chained else 0]] - g[rows[r]]).view(np.int64)
                       for r in range(1, k)]

    return lambda: itertools.chain.from_iterable(
        grow([np.arange(b, min(b + step, n))]) for b in range(0, n, step))


def _tuple_weight_sum(name: str, seq: PointSequence, f, radius: float, k: int, chained: bool):
    """The report of the sum, rounded once, of the weights f gives the
    tuples of _tuple_offsets, over N: f gets an (m, k-1) float64 array
    whose column r is offset column r times N 2^-64, N((x_u - x_v)) on
    the grid, rounded once (_scaled_offsets).  The sum equals math.fsum
    over all the weights in enumeration order (core.exact_chunk_sum,
    which runs f a second time where a weight is non-finite or huge).
    With g_eval at N = 2^20 and radius 1 the peak is 19.7 MiB at k = 3
    and 25.0 at k = 6 anchored (about 1.3e9 rows, over the default
    budget); chained at k = 4, 4.85e7 rows and 25.6 MiB.
    """
    n = len(seq)
    offsets = _tuple_offsets(seq, radius, k, chained)
    total = exact_chunk_sum(lambda: (_row_weights(f, _scaled_offsets(np.column_stack(cols), n))
                                     for cols in offsets()))
    return CorrelationReport(name, k, n, {"support_radius": radius}, None, total / n)


def _row_count(first: np.ndarray, last: np.ndarray, k: int, chained: bool) -> int:
    """The rows _tuple_weight_sum's last join makes if no join drops a
    row that repeats an index: an upper bound on the rows it makes.

    With w_1(i) = c_i, the points of i's window (itself included), and
    w_(d+1)(i) the sum of w_d over i's window, the count is sum_i
    w_(k-1)(i) chained and sum_i c_i^(k-1) anchored.  Windows are
    symmetric (j is in i's window when i is in j's), so the chained count
    is sum_i w_a(i) w_b(i) for a + b = k - 1, b - a in {0, 1}: sum_i c_i
    at k = 2 and sum_i c_i^2 at k = 3, as anchored.  Above, w_(d+1) comes
    from the prefix sums of w_d over one lap (two at a time, 16 bytes per
    point), read at the ends of the unrolled runs first, last, block by
    block.  Every count is one float64 sum over the blocks, exact while
    it is below 2^53."""
    n, step = first.size, core._BLOCK
    blocks = [(lo, min(lo + step, n)) for lo in range(0, n, step)]

    def sums(prefix, lo, hi):  # w_(d+1) at lo, ..., hi - 1 from prefix, that of w_d (None: d = 0)
        f, e = first[lo:hi], last[lo:hi]
        if prefix is None:
            return (e - f).astype(np.float64)
        return prefix[e % n] - prefix[f % n] + (e // n - f // n) * prefix[-1]

    if not chained or k == 2:
        return int(sum(float(np.sum(sums(None, lo, hi) ** (k - 1))) for lo, hi in blocks))
    a = (k - 1) // 2
    prefixes = [None]  # those of w_0 = 1, w_1, ..., w_(k-2-a): the last two at the end
    for _ in range(k - 2 - a):
        del prefixes[:-1]  # the next reads only the last
        p = np.zeros(n + 1)
        for lo, hi in blocks:
            np.cumsum(sums(prefixes[-1], lo, hi), out=p[lo + 1:hi + 1])
            p[lo + 1:hi + 1] += p[lo]
        prefixes.append(p)
    return int(sum(float(np.dot(sums(prefixes[-1 if 2 * a == k - 1 else -2], lo, hi),
                                sums(prefixes[-1], lo, hi))) for lo, hi in blocks))


def _scaled_offsets(d: np.ndarray, n: int) -> np.ndarray:
    """N d 2^-64 as float64, rounded once, for int64 grid offsets d: the
    entries every test function reads.  An offset up to 2^53 in size
    converts exactly, so one product rounds; a larger one (a radius past
    N/2048) takes CPython's correctly rounded int / int.  Rounding keeps
    the order, so an offset inside grid_arc(-r, r, N) reads |y| <= r and
    one outside it |y| >= r."""
    scale = n * 2.0**-64
    y = d.astype(np.float64)
    y *= scale
    far = n * 2.0**-11  # every |d| >= 2^53 reads |y| >= far
    if y.size and (y.max() >= far or -y.min() >= far):
        at = np.flatnonzero(np.abs(y) >= far)
        np.put(y, at, [n * v / GRID for v in np.take(d, at).tolist()])
    return y


def _row_weights(f, rows: np.ndarray) -> np.ndarray:
    """The float64 weights f gives the (m, k-1) rows, one per row."""
    m, width = rows.shape
    w = np.asarray(f(rows), dtype=np.float64)
    if w.shape != (m,):
        raise ParameterError(f"f must map an ({m}, {width}) array to {m} weights, "
                             f"got shape {w.shape}")
    return w


def r_k_testfn(seq: PointSequence, f, support_radius: float, k: int) -> CorrelationReport:
    """Weighted correlation sum over distinct tuples:
    (1/N) sum f(N((x_{i_1}-x_{i_2})), ..., N((x_{i_1}-x_{i_k}))).

    ``f`` maps an (m, k-1) float64 array of such rows to m weights and
    must vanish outside [-support_radius, support_radius]^(k-1);
    enumeration is restricted to window occupants per anchor, in 16
    bytes per point and a slice of rows per depth (_tuple_weight_sum).

    f reads the offsets on the 2^-64 grid, as the counts do: the entry
    for x_u - x_v is N d 2^-64 rounded once, d the int64 grid offset of
    the pair (_scaled_offsets).  Rounding keeps the order, so a window
    pair has |y| <= support_radius and any other pair
    |y| >= support_radius: an indicator of |y| <= 1 on the points
    (j + 1/4)/12, j < 12, sums to the 12 pairs r_k_distinct counts at
    s = 1.  brute_force_r_k(testfn=...) forms the same entry for every
    tuple, window or not, so each tuple gets the same bits, and it
    agrees with this sum when f also vanishes at |y| = support_radius,
    as the tent g_s does.
    """
    return _tuple_weight_sum("r_k_testfn", seq, f, support_radius, k, chained=False)


def r_k_consecutive(seq: PointSequence, f, support_radius: float, k: int) -> CorrelationReport:
    """Weighted sum over distinct tuples with consecutive differences:
    (1/N) sum f(N((x_{i_1}-x_{i_2})), N((x_{i_2}-x_{i_3})), ...).

    ``f`` takes (m, k-1) rows as in r_k_testfn and must vanish once any
    consecutive difference leaves [-support_radius, support_radius], so
    each next index is a window occupant of the previous one; it reads
    the grid offsets as there.  For k = 2 this coincides with r_k_testfn.
    """
    return _tuple_weight_sum("r_k_consecutive", seq, f, support_radius, k, chained=True)


# ---------------------------------------------------------------------------
# brute force oracle


def _distinct_mask(n: int, m: int) -> np.ndarray:
    """Pairwise-distinct mask over [n]^m tuples, from one broadcast index
    vector per axis."""
    idx = [np.arange(n).reshape((n,) + (1,) * (m - 1 - a)) for a in range(m)]
    mask = np.ones((n,) * m, dtype=bool)
    for a in range(m):
        for b in range(a + 1, m):
            mask &= idx[a] != idx[b]
    return mask


def _anchor_tuples(slot_masks, star: bool):
    """Per anchor i1, the bool tensor over [N]^(k-1) of the tuples
    (i1, j_2, ..., j_k) with slot_masks[r][i1, j_{r+2}] for every slot r,
    and the k indices pairwise distinct unless star."""
    n = slot_masks[0].shape[0]
    distinct = None if star else _distinct_mask(n, len(slot_masks))
    ids = np.arange(n)
    for i1 in range(n):
        rows = [sm[i1] for sm in slot_masks]
        if not star:
            rows = [r & (ids != i1) for r in rows]
        tensor = rows[0]
        for r in rows[1:]:
            tensor = tensor[..., None] & r
        yield tensor if star else tensor & distinct


def brute_force_r_k(seq: PointSequence, *, scales=None, boxes=None, testfn=None,
                    support_radius=None, k=None, star=False) -> CorrelationReport:
    """Direct enumeration over all k-tuples; the reference every fast
    path is tested against.

    Exactly one of scales / boxes / testfn must be given.  Constraints
    are evaluated for every tuple of [N]^k from the pairwise grid
    differences of the points in their given order, independent of the
    sorted-window machinery; the integer arcs are those of the fast
    paths, so ties are read the same way.  ``testfn`` gets the offsets of
    every tuple, not only of window pairs, from the same differences:
    the int64 grid offset times N 2^-64, rounded once, as r_k_testfn /
    r_k_consecutive give it.
    """
    given = [scales is not None, boxes is not None, testfn is not None]
    if sum(given) != 1:
        raise ParameterError("give exactly one of scales, boxes, testfn")
    n = len(seq)
    if testfn is not None:
        if k is None or support_radius is None:
            raise ParameterError("testfn mode needs k and support_radius")
        check_order(k)
        _check_radius(support_radius, n)
        # every tuple: each slot's arc is the whole circle
        arcs, params = [grid_arc(-n / 2, n / 2, n)] * (k - 1), {"support_radius": support_radius}
    elif scales is not None:
        scales = _as_scales(scales, k, n)
        arcs, params = [grid_arc(-s, s, n) for s in scales], {"scales": scales}
    else:
        boxes = _as_boxes(boxes, n)
        arcs, params = [grid_arc(a, b, n) for a, b in boxes], {"boxes": boxes}
    k = len(arcs) + 1
    _charge_budget(n**k, f"brute-force tuple visits N^k = {n}^{k}")
    g = to_grid(seq.points)
    delta = g[:, None] - g[None, :]
    tuples = _anchor_tuples([in_arc(delta, arc) for arc in arcs], star)
    name = "brute_force_r_k_star" if star else "brute_force_r_k"
    if testfn is None:
        raw = sum(int(tensor.sum()) for tensor in tuples)
        return CorrelationReport(name, k, n, params, raw, raw / n)
    scaled = _scaled_offsets(delta.view(np.int64), n)
    terms = []
    for i1, tensor in enumerate(tuples):
        # one f call per anchor, on its tuples in lexicographic order
        cols = np.nonzero(tensor)
        if cols[0].size:
            terms += _row_weights(testfn, np.column_stack([scaled[i1, c] for c in cols])).tolist()
    return CorrelationReport(name, k, n, params, None, math.fsum(terms) / n)
