import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corrkit import arithmetic, core, correlations
from corrkit.core import grid_arc, in_arc, to_grid
from corrkit import (
    BudgetError,
    ParameterError,
    PointSequence,
    additive_energy,
    brute_force_r_k,
    c_k_star,
    c_k_star_local,
    dyadic_counterexample,
    g_eval,
    i_k_via_correlation,
    moments,
    r_k_box,
    r_k_consecutive,
    r_k_distinct,
    r_k_star,
    r_k_testfn,
    signed_distance,
    three_ap_count,
)

THREE = PointSequence([0.0, 0.1, 0.5])


def test_r2_star_hand_instance():
    # z = (2, 2, 1) at s/N = 1/6, frozen from enumerating all 9 pairs
    rep = r_k_star(THREE, (0.5,))
    assert rep.raw_count == 5
    assert rep.value == pytest.approx(5 / 3)


def test_r2_distinct_hand_instance():
    rep = r_k_distinct(THREE, (0.5,))
    assert rep.raw_count == 2  # ordered pairs (1,2) and (2,1)
    assert rep.value == pytest.approx(2 / 3)


def test_star_counts_diagonal():
    seq = PointSequence([0.42])
    for k in (2, 3, 4):
        rep = r_k_star(seq, (0.3,) * (k - 1))
        assert rep.raw_count == 1 and rep.value == 1.0


def test_star_at_least_one():
    rng = np.random.default_rng(1)
    for _ in range(10):
        seq = PointSequence(rng.random(int(rng.integers(1, 50))))
        assert r_k_star(seq, (0.2, 0.2)).value >= 1.0


def test_scale_wrap_rejected_consistently():
    seq = PointSequence([0.1, 0.2])
    with pytest.raises(ParameterError):
        r_k_star(seq, (1.5,))
    with pytest.raises(ParameterError):
        r_k_distinct(seq, (1.5,))
    with pytest.raises(ParameterError):
        brute_force_r_k(seq, scales=(1.5,))


def test_dyadic_pair_one_triple_zero():
    for m in (2, 5, 8):
        seq = dyadic_counterexample(2**m)
        assert r_k_distinct(seq, (1.5,)).raw_count == 2**m  # R_2 = 1 exactly
        assert r_k_distinct(seq, (1.5, 1.5)).raw_count == 0


def test_equal_scale_distinct_formula():
    # (1/N) sum_i w_i (w_i - 1) ... with w_i = z_i - 1 equals the count
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(4, 41))
        k = int(rng.integers(2, 5))
        s = float(rng.uniform(0.1, n / 3))
        seq = PointSequence(rng.random(n))
        fast = r_k_distinct(seq, (s,) * (k - 1)).raw_count
        g = to_grid(seq.points)
        near = in_arc(g[None, :] - g[:, None], grid_arc(-s, s, n))  # ||x_i - x_j|| <= s/N
        w = np.array([
            sum(1 for j in range(n) if j != i and near[i, j])
            for i in range(n)
        ])
        direct = 0
        for wi in w:
            t = 1
            for d in range(k - 1):
                t *= max(wi - d, 0)
            direct += t
        assert fast == direct


def test_scale_slot_permutation_invariance():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(6, 50))
        seq = PointSequence(rng.random(n))
        sc = tuple(rng.uniform(0.05, n / 3, size=3))
        counts = {r_k_distinct(seq, p).raw_count for p in itertools.permutations(sc)}
        assert len(counts) == 1


def test_box_hand_instance():
    seq = PointSequence([0.0, 0.1])
    rep = r_k_box(seq, ((0.2, 0.4),))
    assert rep.raw_count == 1
    assert rep.value == 0.5


def test_box_symmetric_matches_distinct():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(4, 40))
        k = int(rng.integers(2, 5))
        seq = PointSequence(rng.random(n))
        sc = rng.uniform(0.07, n / 3, size=k - 1)
        boxes = tuple((-s, s) for s in sc)
        assert r_k_box(seq, boxes).raw_count == r_k_distinct(seq, tuple(sc)).raw_count


def test_box_empty_region():
    seq = PointSequence([0.0, 0.5])
    assert r_k_box(seq, ((0.05, 0.2),)).raw_count == 0


def test_box_bounds_validated():
    seq = PointSequence([0.0, 0.5])
    with pytest.raises(ParameterError):
        r_k_box(seq, ((0.1, 2.0),))
    with pytest.raises(ParameterError):
        r_k_box(seq, ((0.4, 0.4),))
    assert r_k_box(seq, ((-0.5, 0.5),) * 15).raw_count == 0  # k = 16 is the highest order
    with pytest.raises(ParameterError):
        r_k_box(seq, ((-0.5, 0.5),) * 16)


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = int(rng.integers(2, 41))
        k = int(rng.integers(2, 5))
        seq = PointSequence(rng.random(n))
        sc = tuple(rng.uniform(0.05, 0.9 * n / 2, size=k - 1))
        assert r_k_distinct(seq, sc).raw_count == brute_force_r_k(seq, scales=sc).raw_count
        assert r_k_star(seq, sc).raw_count == brute_force_r_k(seq, scales=sc, star=True).raw_count
        boxes = []
        for _ in range(k - 1):
            a, b = np.sort(rng.uniform(-0.9 * n / 2, 0.9 * n / 2, size=2))
            boxes.append((float(a), float(b) if b > a else float(a) + 0.1))
        boxes = tuple(boxes)
        assert r_k_box(seq, boxes).raw_count == brute_force_r_k(seq, boxes=boxes).raw_count


def test_oracle_equivalence_with_duplicates():
    rng = np.random.default_rng(7)
    for _ in range(15):
        n = int(rng.integers(4, 30))
        seq = PointSequence(rng.integers(0, 6, size=n) / 6.0)
        k = int(rng.integers(2, 4))
        sc = tuple(rng.uniform(0.05, 0.9 * n / 2, size=k - 1))
        assert r_k_distinct(seq, sc).raw_count == brute_force_r_k(seq, scales=sc).raw_count
        assert r_k_star(seq, sc).raw_count == brute_force_r_k(seq, scales=sc, star=True).raw_count


def test_half_lap_slots_beside_searched_ones():
    # s = N/2, the whole circle, in each slot beside searched scales, on
    # points with duplicates too: its slots are constant factors
    rng = np.random.default_rng(38)
    for n in (2, 3, 7, 20):
        for points in (rng.random(n), rng.integers(0, 4, n) / 4.0):
            seq = PointSequence(points)
            for sc in ((n / 2, 1.0), (1.0, n / 2, 0.5), (n / 2, n / 2, 0.7), (0.3, n / 2, n / 2)):
                assert r_k_distinct(seq, sc).raw_count == brute_force_r_k(seq, scales=sc).raw_count
                assert r_k_star(seq, sc).raw_count == brute_force_r_k(seq, scales=sc, star=True).raw_count


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), min_size=2, max_size=16),
    st.floats(min_value=0.05, max_value=0.9),
    st.integers(min_value=2, max_value=3),
)
def test_fast_paths_match_brute_property(points, frac_scale, k):
    seq = PointSequence(points)
    s = frac_scale * len(points) / 2
    sc = (s,) * (k - 1)
    assert r_k_distinct(seq, sc).raw_count == brute_force_r_k(seq, scales=sc).raw_count
    assert r_k_star(seq, sc).raw_count == brute_force_r_k(seq, scales=sc, star=True).raw_count


def test_degenerate_all_equal_counts():
    import math

    for n in (2, 3, 4):
        seq = PointSequence([0.3] * n)
        assert brute_force_r_k(seq, scales=(0.2,) * (n - 1), star=True).raw_count == n**n
        assert brute_force_r_k(seq, scales=(0.2,) * (n - 1)).raw_count == math.factorial(n)


def test_star_dominates_distinct():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(5, 80))
        k = int(rng.integers(2, 5))
        seq = PointSequence(rng.random(n))
        sc = tuple(rng.uniform(0.05, n / 3, size=k - 1))
        assert r_k_distinct(seq, sc).value <= r_k_star(seq, sc).value


def test_testfn_indicator_matches_distinct():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(5, 40))
        k = int(rng.integers(2, 4))
        s = float(rng.uniform(0.1, n / 4))
        seq = PointSequence(rng.random(n))
        ind = lambda ys: np.all(np.abs(ys) <= s, axis=1).astype(np.float64)
        # f gets the window's tuples only, their offsets read on the grid as
        # r_k_distinct reads them: every one has |y| <= s
        assert r_k_testfn(seq, ind, s, k).value == r_k_distinct(seq, (s,) * (k - 1)).value


def test_testfn_zero_function():
    seq = PointSequence(np.random.default_rng(0).random(30))
    assert r_k_testfn(seq, lambda ys: np.zeros(len(ys)), 1.0, 3).value == 0.0
    assert r_k_consecutive(seq, lambda ys: np.zeros(len(ys)), 1.0, 3).value == 0.0


def test_testfn_special_weights_follow_fsum(monkeypatch):
    # one chunk per window pair: two weights of 1e308 overflow math.fsum,
    # so the exact chunk sum must hand every chunk to it; NaN propagates
    monkeypatch.setattr(core, "_BLOCK", 1)
    seq = PointSequence([0.1, 0.11, 0.5, 0.51])
    big_left = lambda ys: np.where(ys[:, 0] < 0, 1e308, 1.0)
    with pytest.raises(OverflowError):
        r_k_testfn(seq, big_left, 1.0, 2)
    half_nan = lambda ys: np.where(ys[:, 0] > 0, np.nan, 1.0)
    assert math.isnan(r_k_consecutive(seq, half_nan, 1.0, 2).value)
    assert r_k_testfn(seq, lambda ys: np.full(len(ys), 1e300), 1.0, 2).value == 1e300


def test_odd_testfn_sums_to_zero():
    # every pair's two offsets cancel exactly, negative differences too
    seq = PointSequence([0.1, 0.1 + 1e-12, 0.01, 0.01 + 3e-15])
    odd = lambda ys: ys[:, 0]
    assert r_k_testfn(seq, odd, 2.0, 2).value == 0.0
    assert brute_force_r_k(seq, testfn=odd, support_radius=2.0, k=2).value == 0.0


def test_testfn_matches_bruteforce():
    rng = np.random.default_rng(10)
    tent = lambda ys: np.prod(np.maximum(1.5 - np.abs(ys), 0.0), axis=1)
    for _ in range(6):
        n = int(rng.integers(6, 25))
        k = int(rng.integers(2, 4))
        seq = PointSequence(rng.random(n))
        fast = r_k_testfn(seq, tent, 1.5, k).value
        brute = brute_force_r_k(seq, testfn=tent, support_radius=1.5, k=k).value
        assert fast == pytest.approx(brute, abs=1e-12)


def _value_or_error(call):
    try:
        return call().hex()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def _testfn_by_tuple(seq, f, k, star):
    """The oracle's testfn value by one f call per tuple, on a one-row array."""
    n = len(seq)
    g = to_grid(seq.points)
    # N d 2^-64 rounded once: CPython's int / int is correctly rounded
    offsets = (g[:, None] - g[None, :]).view(np.int64).tolist()
    scaled = [[n * d / core.GRID for d in row] for row in offsets]
    tuples = itertools.product(range(n), repeat=k) if star else itertools.permutations(range(n), k)
    return math.fsum(float(f(np.array([[scaled[t[0]][j] for j in t[1:]]]))[0]) for t in tuples) / n


@pytest.mark.parametrize("star", [False, True])
def test_testfn_oracle_is_the_per_tuple_loop(star):
    weights = [
        lambda ys: np.prod(np.maximum(1.5 - np.abs(ys), 0.0), axis=1),
        lambda ys: np.exp(ys.sum(axis=1)),
        lambda ys: np.where(ys[:, 0] > 0, 1e308, 1.0),  # overflows math.fsum
        lambda ys: np.where(ys[:, 0] > 0.5, np.nan, 1.0),
        lambda ys: np.where(ys[:, 0] > 0, np.inf, -np.inf),  # inf - inf
    ]
    rng = np.random.default_rng(13)
    for _ in range(12):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, {2: 14, 3: 10, 4: 7}[k]))
        seq = PointSequence(rng.random(n))
        for f in weights:
            # the oracle gives f every tuple whatever the radius: N/2 is the widest it takes
            oracle = lambda: brute_force_r_k(seq, testfn=f, support_radius=n / 2, k=k, star=star).value
            loop = lambda: _testfn_by_tuple(seq, f, k, star)
            assert _value_or_error(oracle) == _value_or_error(loop)


def test_testfn_indicator_counts_the_window_pairs_past_n_over_2048():
    # radius 58.9 > N/2048 at N = 1822, so offsets pass 2^53: two points
    # with a pair at the end of the window, and a run of filler points;
    # rounded once, every window pair reads |y| <= r, and an indicator of
    # |y| <= r sums to the pairs r_k_distinct counts (513324 if the int64
    # offsets are rounded to float64 before the product)
    n, r = 1822, 58.91568533539358
    seq = PointSequence([0.016555949983567717, 0.04889167190200547]
                        + [0.5 + 0.4 * i / n for i in range(n - 2)])
    inside = lambda ys: (np.abs(ys[:, 0]) <= r).astype(np.float64)
    want = r_k_distinct(seq, (r,))
    assert want.raw_count == 513326
    assert r_k_testfn(seq, inside, r, 2).value == want.value
    assert r_k_consecutive(seq, inside, r, 2).value == want.value


def test_scaled_offsets_round_once():
    # N d 2^-64 against CPython's correctly rounded int / int, for N up to
    # 2^40 and offsets of every size, the extremes and 2^53 + 1 included
    rng = np.random.default_rng(85)
    odd = [(1 << 21) - 1, (1 << 21) + 1, 10**7 + 1, 2**40 + 12345]  # powers of 2 are exact
    for n in [int(v) for v in rng.integers(1, 1 << 21, 40)] + odd:
        d = rng.integers(-2**63, 2**63, 300, dtype=np.int64, endpoint=False)
        d[:5] = [-2**63, 2**63 - 1, 2**53 + 1, -(2**53) - 1, 2**53]
        d[5:100] >>= rng.integers(0, 63, 95)
        got = correlations._scaled_offsets(d, n).tolist()
        assert got == [n * v / core.GRID for v in d.tolist()], n


def test_testfn_offsets_past_n_over_2048_keep_the_window_ends():
    # random (N, r), r in (N/2048, N/2]: a point x0 and N - 1 points a few
    # ulps around x0 + r/N, so pairs sit on both sides of the window's end;
    # f must read |y| <= r on every window pair and |y| >= r on every other
    rng = np.random.default_rng(84)
    near = 0
    for _ in range(150):
        n = int(rng.integers(6, 30))
        r = float(rng.uniform(n / 2048, n / 2))
        x0 = float(rng.uniform(2**-8, 2**-6))
        x1 = x0 + r / n
        ulps = range(2 - n // 2, n - n // 2 + 1)  # N - 1 points
        seq = PointSequence([x0] + [x1 + j * math.ulp(x1) for j in ulps])
        arc = grid_arc(-r, r, n)
        g = to_grid(seq.points)
        d = g[:, None] - g[None, :]  # the oracle's offsets: anchor i (row), occupant j
        seen = []
        record = lambda ys: (seen.append(ys[:, 0].copy()), np.zeros(len(ys)))[1]
        brute_force_r_k(seq, testfn=record, support_radius=r, k=2)
        ys = np.concatenate(seen)
        inside = in_arc(d, arc)[~np.eye(n, dtype=bool)]  # j != i, in the oracle's order
        assert np.all(np.abs(ys[inside]) <= r) and np.all(np.abs(ys[~inside]) >= r), (n, r)
        seen.clear()
        r_k_testfn(seq, record, r, 2)
        fast = np.concatenate(seen)
        assert fast.size == r_k_distinct(seq, (r,)).raw_count and np.all(np.abs(fast) <= r)
        near += bool(np.any(inside & (np.abs(ys) > r * (1 - 1e-12))))
    assert near > 100


def test_consecutive_equals_testfn_for_k2():
    seq = PointSequence(np.random.default_rng(11).random(40))
    f = lambda ys: np.maximum(1.0 - np.abs(ys[:, 0]), 0.0)
    assert r_k_consecutive(seq, f, 1.0, 2).value == r_k_testfn(seq, f, 1.0, 2).value


def test_consecutive_substitution_identity():
    # g(y) = f(y_1, y_1+y_2) turns the consecutive form into the anchored form
    rng = np.random.default_rng(12)
    rho = 1.0
    k = 3

    def f(ys):
        return np.prod(np.maximum(rho - np.abs(ys), 0.0), axis=1)

    g = lambda ys: f(np.column_stack((ys[:, 0], ys[:, 0] + ys[:, 1])))
    for _ in range(8):
        n = int(rng.integers(2 * k * rho, 60))
        seq = PointSequence(rng.random(n))
        lhs = r_k_consecutive(seq, g, 2 * rho, k).value
        rhs = r_k_testfn(seq, f, rho, k).value
        assert abs(lhs - rhs) <= 1e-12 * n


def test_support_radius_validated():
    # 12 points: radius N/2 = 6 is the widest for the weighted sums and
    # their oracle alike, and the tent that vanishes there weighs every tuple
    seq = PointSequence(np.random.default_rng(12).random(12))
    f = lambda ys: np.prod(np.maximum(6.0 - np.abs(ys), 0.0), axis=1)
    for k in (2, 3):
        brute = brute_force_r_k(seq, testfn=f, support_radius=6.0, k=k).value
        assert r_k_testfn(seq, f, 6.0, k).value == brute > 0
    past = float(np.nextafter(6.0, 7.0))
    for radius, message in ((past, f"support radius {past} > N/2 = 6.0"), (8.0, "support radius 8.0 > N/2"),
                            (math.nan, "support radius must be positive, got nan")):
        for call in (lambda: r_k_testfn(seq, f, radius, 2), lambda: r_k_consecutive(seq, f, radius, 3),
                     lambda: brute_force_r_k(seq, testfn=f, support_radius=radius, k=2)):
            with pytest.raises(ParameterError, match=f"^{message}"):
                call()


@pytest.mark.parametrize("radius", [-0.5, 0.0])
def test_non_positive_support_radius_rejected(radius):
    seq = PointSequence(np.random.default_rng(5).random(50))
    ones = lambda ys: np.ones(len(ys))
    calls = [lambda: r_k_testfn(seq, ones, radius, 2),
             lambda: r_k_consecutive(seq, ones, radius, 3),
             lambda: i_k_via_correlation(seq, radius, 3),
             lambda: brute_force_r_k(seq, testfn=ones, support_radius=radius, k=2)]
    for call in calls:
        with pytest.raises(ParameterError, match="support radius must be positive"):
            call()


def test_brute_force_budget(monkeypatch):
    monkeypatch.setenv("CORRKIT_ORACLE_BUDGET", "100")
    seq = PointSequence(np.random.default_rng(1).random(20))
    with pytest.raises(BudgetError):
        brute_force_r_k(seq, scales=(0.5,))
    monkeypatch.delenv("CORRKIT_ORACLE_BUDGET")
    assert brute_force_r_k(seq, scales=(0.5,)).raw_count >= 0


def test_report_value_is_count_over_n():
    rep = r_k_distinct(THREE, (0.5,))
    assert rep.value == rep.raw_count / rep.n


def test_scale_vector_validation():
    with pytest.raises(ParameterError):
        r_k_star(THREE, ())
    with pytest.raises(ParameterError):
        r_k_star(THREE, (0.0,))
    assert r_k_star(THREE, 1.0, k=3).parameters["scales"] == (1.0, 1.0)


@pytest.mark.parametrize("bad", [(float("nan"),), (1.0, float("nan"))])
def test_nan_scales_rejected(bad):
    seq = PointSequence([0.1, 0.2, 0.5])
    for stat in (r_k_star, r_k_distinct, c_k_star):
        with pytest.raises(ParameterError):
            stat(seq, bad)
    with pytest.raises(ParameterError):
        brute_force_r_k(seq, scales=bad)


def test_nan_support_radius_rejected():
    # abs(nan) > N/2 is False, so the half-circle check must be written to fail NaN
    seq = PointSequence([0.1, 0.2, 0.5])
    for stat in (r_k_testfn, r_k_consecutive):
        with pytest.raises(ParameterError):
            stat(seq, lambda ys: np.ones(len(ys)), float("nan"), 2)


@pytest.mark.parametrize("bad", [(), ((float("nan"), 0.5),), ((0.1, float("nan")),)])
def test_empty_or_nan_boxes_rejected(bad):
    seq = PointSequence([0.1, 0.2, 0.5])
    with pytest.raises(ParameterError):
        r_k_box(seq, bad)
    with pytest.raises(ParameterError):
        brute_force_r_k(seq, boxes=bad)


def test_one_window_per_distinct_scale(monkeypatch):
    seq = PointSequence(np.random.default_rng(20).random(200))
    windows = []  # the number of windows each block computes
    real = correlations.self_window_blocks

    def counting(g, arcs):
        for b, wins in real(g, arcs):
            windows.append(len(wins))
            yield b, wins

    monkeypatch.setattr(correlations, "self_window_blocks", counting)
    monkeypatch.setattr(core, "_BLOCK", 7)
    r_k_distinct(seq, (1, 1, 1))
    assert windows == [1] * 29  # 200 anchors in blocks of 7
    windows.clear()
    r_k_star(seq, (1.0, 2.0, 1.0))
    assert windows == [2] * 29


def test_order_sixteen_counts_stay_exact():
    # products overflow int64 here; the counters must fall back to exact ints
    import math

    n, k = 50, 16
    seq = PointSequence([0.3] * n)
    star = r_k_star(seq, (1.0,) * (k - 1))
    assert star.raw_count == n**k
    dist = r_k_distinct(seq, (1.0,) * (k - 1))
    assert dist.raw_count == math.perm(n, k)
    with pytest.raises(ParameterError):
        r_k_star(seq, (1.0,) * 16)  # k = 17 is out of contract


def test_weighted_sums_name_the_order_limit():
    seq = PointSequence([0.1, 0.2, 0.9])
    ones = lambda ys: np.ones(len(ys))
    assert r_k_testfn(seq, ones, 1.0, 16).value == 0.0  # too few points for a tuple
    for call in (lambda: r_k_testfn(seq, ones, 1.0, 17),
                 lambda: r_k_consecutive(seq, ones, 1.0, 17),
                 lambda: brute_force_r_k(seq, testfn=ones, support_radius=1.0, k=17)):
        with pytest.raises(ParameterError, match="orders above k = 16 are unsupported"):
            call()


_ONES = lambda ys: np.ones(len(ys))
_ORDER_ENTRY_POINTS = {
    "r_k_star": lambda seq, k: r_k_star(seq, 1.0, k),
    "r_k_distinct": lambda seq, k: r_k_distinct(seq, 1.0, k),
    "r_k_testfn": lambda seq, k: r_k_testfn(seq, _ONES, 1.0, k),
    "r_k_consecutive": lambda seq, k: r_k_consecutive(seq, _ONES, 1.0, k),
    "brute_force_r_k": lambda seq, k: brute_force_r_k(seq, testfn=_ONES, support_radius=1.0, k=k),
    "c_k_star": lambda seq, k: c_k_star(seq, 1.0, k),
    "c_k_star_local": lambda seq, k: c_k_star_local(seq, 1.0, k, (0.0, 0.5)),
    "moments": lambda seq, k: moments(seq, 1.0, k),
    "i_k_via_correlation": lambda seq, k: i_k_via_correlation(seq, 1.0, k),
}


@pytest.mark.parametrize("k, message", [(1, "k must be >= 2"),
                                        (17, "orders above k = 16 are unsupported")])
@pytest.mark.parametrize("entry", sorted(_ORDER_ENTRY_POINTS))
def test_every_entry_point_names_the_order_limit(entry, k, message):
    seq = PointSequence([0.1, 0.2, 0.5, 0.9])
    with pytest.raises(ParameterError, match=message):
        _ORDER_ENTRY_POINTS[entry](seq, k)


def test_weighted_sums_charge_their_rows_before_the_first_join(monkeypatch):
    # radius N/2 on 2000 points: every window holds all 2000, so k = 4
    # bounds 2000 * 2000^3 = 1.6e13 rows, days of joins at the default budget
    monkeypatch.delenv("CORRKIT_ORACLE_BUDGET", raising=False)
    seq = PointSequence(np.random.default_rng(44).random(2000))
    called = []
    tent = lambda ys: called.append(len(ys)) or g_eval(4, 1000.0, ys)
    for total in (r_k_testfn, r_k_consecutive):
        t0 = time.perf_counter()
        with pytest.raises(BudgetError, match=r"rows .* = 16000000000000 .*CORRKIT_ORACLE_BUDGET"):
            total(seq, tent, 1000.0, 4)
        assert time.perf_counter() - t0 < 0.5
    assert called == []
    # the counts themselves: sum c^(k-1) anchored; chained, the walks of
    # k - 1 steps from window to window, sum_i w_3(i) with w_1 = c and
    # w_(d+1)(i) the sum of w_d over i's window: w_2 = 8, 8, 5, 5 and
    # w_3 = 21, 21, 13, 13
    seq = PointSequence([0.1, 0.3, 0.5, 0.9])  # windows of radius 1/4: 3, 3, 2 and 2 points
    ones = lambda ys: np.ones(len(ys))
    for total, bound in ((r_k_testfn, 3**3 + 3**3 + 2**3 + 2**3), (r_k_consecutive, 68)):
        monkeypatch.setenv("CORRKIT_ORACLE_BUDGET", str(bound))
        total(seq, ones, 1.0, 4)
        monkeypatch.setenv("CORRKIT_ORACLE_BUDGET", str(bound - 1))
        with pytest.raises(BudgetError, match=f"= {bound} "):
            total(seq, ones, 1.0, 4)


def _walks(seq, radius, k):
    """sum over i of the index walks i = i_1, ..., i_k, each next index in
    the previous one's window, repeats allowed: 1' A^(k-1) 1."""
    g = seq.sorted_grid
    a = in_arc(g[None, :] - g[:, None], grid_arc(-radius, radius, len(seq))).astype(object)
    w = np.ones(len(seq), dtype=object)
    for _ in range(k - 1):
        w = a.dot(w)
    return int(w.sum())


def _chains(seq, radius, k):
    """The distinct-index walks: the rows f sees."""
    g = seq.sorted_grid
    a = in_arc(g[None, :] - g[:, None], grid_arc(-radius, radius, len(seq)))
    rows = [(i,) for i in range(len(seq))]
    for _ in range(k - 1):
        rows = [r + (j,) for r in rows for j in np.flatnonzero(a[r[-1]]).tolist() if j not in r]
    return len(rows)


def test_consecutive_sum_charges_the_exact_walk_count(monkeypatch):
    # both forms charge the rows of their last join, repeated indices
    # included: the walks chained, sum_i c_i^(k-1) over the brute-force
    # window counts c_i anchored; the joins drop the rows that repeat an
    # index, so f sees fewer.  The clustered walks at k = 5 lie below the
    # old bound sum c (max c)^(k-2)
    rng = np.random.default_rng(45)
    clustered = PointSequence(np.concatenate((0.3 + 0.005 * rng.random(6), rng.random(34))))
    lattice = PointSequence((np.arange(40) + 0.5) / 40)  # neighbours 1/N apart: ties at radius 1
    radius = 1.0
    charged = []
    real = correlations._charge_budget
    monkeypatch.setattr(correlations, "_charge_budget", lambda work, what: charged.append(work)
                        or real(work, what))
    for seq in (clustered, lattice):
        arc = grid_arc(-radius, radius, len(seq))
        c = np.array([np.count_nonzero(in_arc(seq.sorted_grid - g, arc)) for g in seq.sorted_grid])
        for k in (2, 3, 4, 5):
            walks = _walks(seq, radius, k)
            if seq is clustered and k == 5:
                assert walks < int(c.sum()) * int(c.max()) ** (k - 2)
            for total, count in ((r_k_consecutive, walks),
                                 (r_k_testfn, sum(int(ci) ** (k - 1) for ci in c))):
                charged.clear()
                rows = []
                monkeypatch.setenv("CORRKIT_ORACLE_BUDGET", str(count))
                total(seq, lambda ys: rows.append(len(ys)) or np.ones(len(ys)), radius, k)
                assert charged == [count]
                if total is r_k_consecutive:
                    assert sum(rows) == _chains(seq, radius, k) < walks
                monkeypatch.setenv("CORRKIT_ORACLE_BUDGET", str(count - 1))
                with pytest.raises(BudgetError,
                                   match=f"radius 1.0, repeated indices included = {count} "):
                    total(seq, _ONES, radius, k)


def test_box_halves_recombine_to_symmetric_count():
    # [‑s,0] and [0,s] overlap exactly in the zero-difference pairs, so
    # #[-s,0] + #[0,s] - #duplicates = #symmetric, exactly, duplicates and all
    rng = np.random.default_rng(14)
    for _ in range(15):
        n = int(rng.integers(4, 40))
        pts = rng.integers(0, 7, size=n) / 7.0  # force exact duplicates
        seq = PointSequence(pts)
        s = float(rng.uniform(0.1, 0.9 * n / 2))
        pos = r_k_box(seq, ((0.0, s),)).raw_count
        neg = r_k_box(seq, ((-s, 0.0),)).raw_count
        sym = r_k_distinct(seq, (s,)).raw_count
        zeros = sum(
            1 for i in range(n) for j in range(n) if i != j and pts[i] == pts[j]
        )
        assert pos + neg - zeros == sym


def test_box_dense_occupancy_uses_plain_dfs_correctly():
    # 30 points in one tight cluster: every anchor has 29 window occupants
    rng = np.random.default_rng(15)
    pts = 0.4 + rng.random(30) * 0.004
    seq = PointSequence(pts)
    n = len(seq)
    boxes = ((-0.5, 0.5), (-0.3, 0.4))
    fast = r_k_box(seq, boxes).raw_count
    brute = brute_force_r_k(seq, boxes=boxes).raw_count
    assert fast == brute > 0


def test_chunking_does_not_change_results(monkeypatch):
    rng = np.random.default_rng(13)
    seq = PointSequence(rng.random(600))
    boxes = ((-0.8, 0.3), (0.1, 1.2))
    f = lambda ys: np.prod(np.maximum(1.0 - np.abs(ys), 0.0), axis=1)

    def run():
        return (r_k_box(seq, boxes).raw_count,
                [r_k_testfn(seq, f, 1.0, k).value.hex() for k in (2, 3, 4)],
                [r_k_consecutive(seq, f, 1.0, k).value.hex() for k in (2, 3, 4)])

    ints = np.unique(rng.integers(1, 400, size=60)).tolist()
    whole = run(), additive_energy(ints), three_ap_count(ints)
    monkeypatch.setattr(core, "_BLOCK", 7)
    assert (run(), additive_energy(ints), three_ap_count(ints)) == whole


def _split_rows(monkeypatch, form, k, n):
    monkeypatch.setattr(core, "_BLOCK", 1024)
    sizes = []

    def f(ys):
        sizes.append(len(ys))
        return np.ones(len(ys))

    rep = form(PointSequence([0.5] * n), f, 1.0, k)
    tuples = math.perm(n, k)
    assert rep.value * n == tuples
    assert sum(sizes) == tuples and max(sizes) <= 1024


@pytest.mark.parametrize("form", [r_k_testfn, r_k_consecutive])
def test_one_anchor_is_split_across_chunks(monkeypatch, form):
    # 60 equal points: each anchor grows into 59 * 58 rows, more than a
    # chunk, so the chunks must cut through anchors
    _split_rows(monkeypatch, form, 3, 60)


@pytest.mark.parametrize("form", [r_k_testfn, r_k_consecutive])
def test_one_pair_is_split_across_chunks(monkeypatch, form):
    # 45 equal points at k = 4: one (anchor, occupant) pair grows into
    # 43 * 42 = 1806 rows, more than a chunk, so the chunks must cut
    # through pairs
    _split_rows(monkeypatch, form, 4, 45)


def _forced_duplicates(rng, n):
    return PointSequence(rng.integers(0, 9, size=n) / 9.0)


@pytest.mark.parametrize("k, n_max", [(5, 14), (6, 11)])
def test_box_matches_bruteforce_high_order_with_duplicates(k, n_max):
    rng = np.random.default_rng(16 + k)
    for _ in range(6):
        n = int(rng.integers(k, n_max + 1))
        seq = _forced_duplicates(rng, n)
        lo = rng.uniform(-0.45 * n, 0.3 * n, size=k - 1)
        hi = np.minimum(lo + rng.uniform(0.05, 0.4 * n, size=k - 1), n / 2)
        boxes = tuple(zip(lo.tolist(), hi.tolist()))
        assert r_k_box(seq, boxes).raw_count == brute_force_r_k(seq, boxes=boxes).raw_count


@pytest.mark.parametrize("k", [12, 16])
def test_box_sparse_high_order_skips_the_partition_sum(monkeypatch, k):
    # 100 random points, slots of width 2/N: no anchor has k-1 candidates,
    # so no block reaches the Bell(k-1) partition sum (1.4e9 at k = 16)
    def no_partitions(*args):
        raise AssertionError("the partition sum ran")

    monkeypatch.setattr(correlations, "_set_partitions", no_partitions)
    monkeypatch.setenv("CORRKIT_ORACLE_BUDGET", "0")  # and no partition term is charged
    seq = PointSequence(np.random.default_rng(3).random(100))
    assert r_k_box(seq, ((-1.0, 1.0),) * (k - 1)).raw_count == 0


def test_box_partition_terms_are_charged_before_the_sum(monkeypatch):
    # symmetric (-4, 4) boxes on 2000 uniform points: at k = 16 each live
    # anchor brings Bell(15) = 1382958545 terms, refused before any is summed
    def no_partitions(*args):
        raise AssertionError("the partition sum ran")

    monkeypatch.delenv("CORRKIT_ORACLE_BUDGET", raising=False)
    seq = PointSequence(np.random.default_rng(1729).random(2000))
    with monkeypatch.context() as m:
        m.setattr(correlations, "_set_partitions", no_partitions)
        t0 = time.perf_counter()
        with pytest.raises(BudgetError, match=r"Bell\(15\) .* = \d+ exceeds"):
            r_k_box(seq, ((-4.0, 4.0),) * 15)
        assert time.perf_counter() - t0 < 1.0
    # the charge is Bell(k-1) per anchor with k-1 other points in its window
    # (symmetric boxes: the hull is the window), summed over the blocks
    g = seq.sorted_grid
    others = in_arc(g[None, :] - g[:, None], grid_arc(-4.0, 4.0, 2000)).sum(axis=1) - 1
    boxes = ((-4.0, 4.0),) * 4
    bound = 15 * int(np.count_nonzero(others >= 4))  # Bell(4) = 15
    want = r_k_distinct(seq, (4.0,) * 4).raw_count
    for block in (2000, 7):
        monkeypatch.setattr(core, "_BLOCK", block)
        monkeypatch.setenv("CORRKIT_ORACLE_BUDGET", str(bound))
        assert r_k_box(seq, boxes).raw_count == want
        monkeypatch.setenv("CORRKIT_ORACLE_BUDGET", str(bound - 1))
        with pytest.raises(BudgetError, match=f"= {bound} "):
            r_k_box(seq, boxes)


def test_box_pairwise_disjoint_boxes():
    # no occupant meets two disjoint slots, so every partition with a
    # block of two or more slots is pruned and only prod_r c_r survives
    rng = np.random.default_rng(17)
    boxes = ((-2.9, -1.5), (0.0, 1.45), (1.5, 2.9))
    fasts = []
    for _ in range(6):
        n = int(rng.integers(9, 14))
        seq = _forced_duplicates(rng, n)
        fast = r_k_box(seq, boxes).raw_count
        fasts.append(fast)
        assert fast == brute_force_r_k(seq, boxes=boxes).raw_count
        x = seq.points
        d = n * signed_distance(x[:, None] - x[None, :])
        np.fill_diagonal(d, np.nan)
        per_slot = [((d >= a) & (d <= b)).sum(axis=1) for a, b in boxes]
        assert fast == int(np.prod(per_slot, axis=0).sum())
    assert max(fasts) > 0
    # every other point is a duplicate or half a circle away, so the first
    # and last slots stay empty at every anchor
    assert r_k_box(PointSequence([0.1, 0.1, 0.1, 0.6, 0.6, 0.6]), boxes).raw_count == 0


def test_consecutive_matches_bruteforce_k4():
    rng = np.random.default_rng(18)
    tent = lambda ys: np.prod(np.maximum(1.2 - np.abs(ys), 0.0), axis=1)
    for i in range(4):
        n = int(rng.integers(5, 13))
        seq = _forced_duplicates(rng, n) if i % 2 else PointSequence(rng.random(n))
        d = (to_grid(seq.points)[:, None] - to_grid(seq.points)[None, :]).view(np.int64)
        terms = []
        for t in itertools.permutations(range(n), 4):
            ys = [n * (d[t[r], t[r + 1]] * 2.0**-64) for r in range(3)]
            terms.append(float(tent(np.array([ys]))[0]))
        assert r_k_consecutive(seq, tent, 1.2, 4).value == math.fsum(terms) / n


def test_testfn_receives_2d_float_rows():
    rng = np.random.default_rng(19)
    seq = PointSequence(rng.random(200))
    for k in (2, 3, 4):
        shapes = []

        def f(ys):
            shapes.append((type(ys), ys.dtype.name, ys.ndim, ys.shape[1:]))
            return np.ones(len(ys))

        r_k_testfn(seq, f, 2.0, k)
        assert shapes and set(shapes) == {(np.ndarray, "float64", 2, (k - 1,))}


def _exact_counts(x, n, s, boxes):
    """Independent counts on the stored doubles x, in exact integers:
    per anchor, the scale-window occupants c and the membership of the
    other indices in each box slot, a/N <= ((x_i - x_j)) <= b/N.

    Every x here is 0 or at least 2^-8, so X = x 2^60 is an exact
    integer, and so is every bound times 2^60; Python compares ints and
    floats exactly.
    """
    unit = 1 << 60
    xs = [Fraction(float(v)) * unit for v in x]
    assert all(v.denominator == 1 for v in xs)
    xs = [int(v) for v in xs]

    def signed(d):  # ((d)) 2^60, in (-2^59, 2^59]
        d %= unit
        return d if 2 * d <= unit else d - unit

    deltas = [[signed(xs[i] - xs[j]) * n for j in range(n) if j != i] for i in range(n)]
    lim = s * unit
    c = [sum(abs(d) <= lim for d in row) for row in deltas]
    slots = [[[a * unit <= d <= b * unit for d in row] for a, b in boxes] for row in deltas]
    return c, slots


def test_lattice_ties_match_exact_fraction_counts():
    # points on the lattice (j + shift)/N put pair distances exactly on
    # window and box boundaries; every path must read the ties on the
    # stored doubles the same way an exact rational count does
    for n in range(2, 41):
        for shift in (0.0, 0.5, 0.25):
            x = np.array([(j + shift) / n for j in range(n)]) % 1.0
            seq = PointSequence(x)
            for s in (1.0, 2.0, 3.0):
                if s > n / 2:
                    continue
                asym = ((-s, s / 2), (0.0, s))
                c, slots = _exact_counts(x, n, s, asym)
                for k in (2, 3):
                    sc = (s,) * (k - 1)
                    distinct = sum(math.perm(ci, k - 1) for ci in c)
                    star = sum((ci + 1) ** (k - 1) for ci in c)
                    if k == 2:
                        box = sum(sum(row[0]) for row in slots)
                    else:
                        box = sum(sum(row[0]) * sum(row[1]) - sum(p and q for p, q in zip(*row))
                                  for row in slots)
                    case = (n, shift, s, k)
                    assert r_k_distinct(seq, sc).raw_count == distinct, case
                    assert brute_force_r_k(seq, scales=sc).raw_count == distinct, case
                    assert r_k_star(seq, sc).raw_count == star, case
                    assert brute_force_r_k(seq, scales=sc, star=True).raw_count == star, case
                    assert r_k_box(seq, ((-s, s),) * (k - 1)).raw_count == distinct, case
                    assert r_k_box(seq, asym[:k - 1]).raw_count == box, case
                    assert brute_force_r_k(seq, boxes=asym[:k - 1]).raw_count == box, case
                    if k == 2:
                        assert distinct % 2 == 0, case


def test_thirds_count_the_stored_doubles():
    # 1/3 and 2/3 are stored just below the thirds: 0 and 2/3 sit a hair
    # more than 1/3 apart, the other two pairs a hair less
    seq = PointSequence([0.0, 1 / 3, 2 / 3])
    assert r_k_distinct(seq, (1.0,)).raw_count == 4
    assert brute_force_r_k(seq, scales=(1.0,)).raw_count == 4


def test_distinct_mask_memory_is_the_mask():
    n, m = 20, 5
    tracemalloc.start()
    try:
        mask = correlations._distinct_mask(n, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(mask.sum()) == math.perm(n, m)
    assert peak < 8 * 2**20  # the bool mask itself is 3.05 MiB
