import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from corrkit import (
    ParameterError,
    PointSequence,
    bell_prediction,
    c_k_star,
    f_count,
    falling_factorial,
    g_eval,
    i_k_via_correlation,
    moments,
    stirling_second,
    sweep_profile,
)
from corrkit import core, intervalstats
from corrkit.core import GRID, grid_arc, in_arc, to_grid


def test_f_count_examples():
    seq = PointSequence([0.0, 0.5])
    assert f_count(seq, 0.0, 1.0) == 1  # radius 1/4 catches only x_1
    assert f_count(seq, 0.25, 0.4) == 0  # t far from both points
    assert f_count(seq, 0.7, 2.0) == 2  # s = N: radius 1/2 covers everything


@given(st.integers(1, 40), st.lists(st.integers(0, 39), min_size=1, max_size=60),
       st.integers(0, 3), st.one_of(st.floats(1e-9, 1.0), st.integers(1, 160)),
       st.sampled_from(["point", "zero", "one"]), st.integers(0, 59), st.sampled_from([-1, 0, 1]))
@example(4, [0, 1, 1, 3], 0, 1.0, "zero", 0, 0)  # s = N: the clipped arc, the whole circle once
@example(4, [0, 1, 1, 3], 0, 4, "point", 1, 1)   # s = N/2, t on an arc end
def test_f_count_is_the_arc_count_of_the_grid_differences(m, cells, shift, scale, near, pick, side):
    # lattice points (j + shift/4)/m with duplicates; an integer scale
    # puts s/(2N) on multiples of a quarter of the spacing, so t on an arc
    # end (side = +-1) meets lattice points; t near a point, near 0 or
    # near 1, where the arc wraps; s up to N.  Then again in blocks of 2
    # points, which make every grid of 3 or more points long: its one key
    # is searched in the confined runs instead of one search of the grid
    points = [((c % m) + shift / 4) / m for c in cells]
    n = len(points)
    s = min(scale * n / (2 * m), float(n)) if isinstance(scale, int) else scale * n
    seq = PointSequence(points)
    t = {"point": points[pick % n], "zero": 0.0, "one": 1.0}[near] + side * s / (2 * n)
    c = intervalstats._grid_of([t])
    want = np.count_nonzero(in_arc(seq.sorted_grid - c, grid_arc(-s / 2, s / 2, n)))
    for block in (core._BLOCK, 2):
        with mock.patch.object(core, "_BLOCK", block):
            assert f_count(seq, t, s) == want, block


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_t_is_a_parameter_error(bad):
    seq = PointSequence([0.0, 0.5])
    with pytest.raises(ParameterError):
        f_count(seq, bad, 1.0)
    prof = sweep_profile(seq, 1.0)
    with pytest.raises(ParameterError):
        prof.value_at(bad)
    with pytest.raises(ParameterError):
        prof.value_at([0.25, bad])


def test_profile_single_point():
    prof = sweep_profile(PointSequence([0.3]), 0.5)
    assert prof.breakpoints.size == 2
    assert sorted(prof.values.tolist()) == [0, 1]
    assert prof.total_mass() == pytest.approx(0.5)


def test_profile_mass_is_s():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(1, 2000))
        s = float(rng.uniform(0.05, n))
        seq = PointSequence(rng.random(n))
        assert abs(sweep_profile(seq, s).total_mass() - s) <= 1e-12 * n


def test_value_lengths_are_the_exact_grid_mass():
    # the L_v count grid points: they cover the circle once, and each arc
    # puts its 2R+1 points into the mass sum_v v L_v
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 2000))
        s = float(rng.uniform(0.05, n))
        prof = sweep_profile(PointSequence(rng.random(n)), s)
        hist = prof.value_lengths()
        r = grid_arc(-0.5 * s, 0.5 * s, n)[1]
        assert sum(hist.values()) == GRID
        assert sum(v * ln for v, ln in hist.items()) == n * min(2 * r + 1, GRID)
        assert set(hist) == set(prof.values.tolist())


def test_value_lengths_equal_a_python_int_histogram():
    # lattice points with duplicates put many segments on each value; the
    # wrapping uint64 sums must equal per-segment Python-int sums, the
    # whole-circle profile (s = N, one breakpoint) included
    for n, shift in ((12, 0.0), (30, 0.5), (64, 1 / 3), (97, 0.25)):
        lattice = (np.arange(n) + shift) / n % 1.0
        seq = PointSequence(np.concatenate((lattice, lattice[::3])))
        m = len(seq)
        for s in (1, 2, 3, m / 2, m):
            prof = sweep_profile(seq, s)
            bp, vals = prof.breakpoints.tolist(), prof.values.tolist()
            want: dict[int, int] = {}
            for i, v in enumerate(vals):
                end = bp[i + 1] if i + 1 < len(bp) else bp[0] + GRID
                want[v] = want.get(v, 0) + end - bp[i]
            assert prof.value_lengths() == want
            assert sum(want.values()) == GRID
            assert (s == m) == (len(bp) == 1)


def _unique_profile(seq, s):
    """(breakpoints, values) by np.unique(..., return_inverse=True): an
    independent construction to check the one-sort sweep against."""
    n = len(seq)
    arc = grid_arc(-0.5 * s, 0.5 * s, n)
    r = arc[1]
    if 2 * r + 1 >= GRID:
        return np.zeros(1, np.uint64), np.array([n])
    g = seq.sorted_grid
    starts, ends = g - np.uint64(r), g + np.uint64(r + 1)
    uniq, inverse = np.unique(np.concatenate((starts, ends)), return_inverse=True)
    jumps = np.bincount(inverse[:n], minlength=uniq.size)
    jumps -= np.bincount(inverse[n:], minlength=uniq.size)
    base = in_arc(uniq[-1:] - g, (-r, r)).sum()  # F on the wrap segment
    return uniq, base + np.cumsum(jumps)


def _profile_inputs(test):
    """(points, frac) with s = frac N: lattice points j/16 make coincident
    endpoints, duplicates and arcs that end exactly where another starts;
    besides, all points equal, and s = 1e-19 N, where R = 0."""
    test = example([0.375] * 6, 0.5)(example([0.0, 0.5, 0.5, 0.9375], 1e-19)(test))
    return settings(max_examples=200, deadline=None)(given(
        st.lists(st.one_of(st.integers(min_value=0, max_value=15).map(lambda j: j / 16),
                           st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
                 min_size=1, max_size=30),
        st.floats(min_value=1e-3, max_value=1.0),
    )(test))


@_profile_inputs
def test_sweep_profile_equals_unique_construction(points, frac):
    seq = PointSequence(points)
    s = frac * len(seq)
    prof = sweep_profile(seq, s)
    bp, values = _unique_profile(seq, s)
    assert np.array_equal(prof.breakpoints, bp)
    assert np.array_equal(prof.values, values)


@_profile_inputs
def test_moments_histogram_equals_the_profile_value_lengths(points, frac):
    # moments folds the lengths the windows give, value_lengths the
    # differences of the profile's breakpoints after their slots and merges
    seq = PointSequence(points)
    s = frac * len(seq)
    assert intervalstats._law(seq, s) == sweep_profile(seq, s).value_lengths()


def test_sweep_profile_in_blocks_of_seven_equals_unique_construction():
    # blocks of 7 anchors cut the windows, and the merged runs, many times
    with mock.patch.object(core, "_BLOCK", 7):
        test_sweep_profile_equals_unique_construction()


def test_profile_point_queries_match_f_count():
    rng = np.random.default_rng(1)
    for _ in range(5):
        n = int(rng.integers(2, 300))
        s = float(rng.uniform(0.2, n / 2))
        seq = PointSequence(rng.random(n))
        prof = sweep_profile(seq, s)
        ts = rng.random(1000)
        got = prof.value_at(ts)
        want = np.array([f_count(seq, t, s) for t in ts])
        assert np.array_equal(got, want)


def test_f_count_and_profile_at_exact_ties():
    # lattice points (j + shift)/N, and t at the arc ends (j + shift +- s/2)/N,
    # where ||x_m - t|| = s/(2N) can hold exactly on the stored doubles;
    # both must count the closed arc as an exact rational count does
    unit = 1 << 60  # every x and t here is 0 or >= 2^-8, so x 2^60 is an integer
    ties = 0
    for n in range(2, 41):
        for shift in (0.0, 0.5, 0.25):
            x = np.array([(j + shift) / n for j in range(n)]) % 1.0
            seq = PointSequence(x)
            xs = [int(Fraction(float(v)) * unit) for v in x]
            for s in (1.0, 2.0, 3.0):
                if s > n / 2:
                    continue
                ts = np.array([(j + shift + e * s / 2) / n for j in range(n) for e in (-1, 1)]) % 1.0
                prof = sweep_profile(seq, s)
                got = prof.value_at(ts)
                for t, v in zip(ts.tolist(), got.tolist()):
                    tt = Fraction(t) * unit
                    assert tt.denominator == 1
                    dists = [min((xm - int(tt)) % unit, (int(tt) - xm) % unit) for xm in xs]
                    # ||x_m - t|| 2^60 <= s 2^60 / (2N), compared exactly
                    want = sum(2 * n * d <= int(s) * unit for d in dists)
                    ties += any(2 * n * d == int(s) * unit for d in dists)
                    case = (n, shift, s, t)
                    assert f_count(seq, t, s) == want, case
                    assert v == want, case
    assert ties == 1284  # the boundary is hit exactly, not just approached


def test_profile_merges_coincident_endpoints():
    seq = PointSequence([0.2, 0.2, 0.2])
    prof = sweep_profile(seq, 0.9)
    assert prof.breakpoints.size == 2  # triple-multiplicity jumps merged
    assert set(prof.values.tolist()) == {0, 3}


def test_profile_wrap_full_circle():
    seq = PointSequence([0.1, 0.6])
    prof = sweep_profile(seq, 2.0)  # radius 1/2: F constant N
    assert prof.values.tolist() == [2]
    assert prof.value_at(0.37) == 2


def _grid_moments(seq, s, k):
    """(I_k, I_k*) as exact Fractions: F summed over every grid point by a
    Python-int event walk, arc m being [g_m - R, g_m + R + 1) mod 2^64."""
    n = len(seq)
    r = int(Fraction(s) * GRID / (2 * n))  # floor: s 2^64 / (2N) >= 0
    if 2 * r + 1 >= GRID:
        return Fraction(math.perm(n, k)), Fraction(n**k)
    gs = [int(v) for v in seq.sorted_grid]
    delta = {}
    for g in gs:
        delta[(g - r) % GRID] = delta.get((g - r) % GRID, 0) + 1
        delta[(g + r + 1) % GRID] = delta.get((g + r + 1) % GRID, 0) - 1
    value = sum((-1 - (g - r)) % GRID < 2 * r + 1 for g in gs)  # F at grid point -1
    pos, fact, power = 0, 0, 0
    for p in sorted(delta) + [GRID]:
        fact += math.perm(value, k) * (p - pos)
        power += value**k * (p - pos)
        pos, value = p, value + delta.get(p, 0)
    return Fraction(fact, GRID), Fraction(power, GRID)


def test_moments_are_the_exact_rationals_rounded_once():
    # the lattice inputs of the tie tests: arc ends land on other points
    # and on each other; s = N covers the whole circle, s in (N/2, N)
    # nearly so
    cases = 0
    for n in range(2, 41):
        for shift in (0.0, 0.5, 0.25):
            seq = PointSequence(np.array([(j + shift) / n for j in range(n)]) % 1.0)
            for s in {1.0, 2.0, 3.0, n - 0.5, float(n)}:
                if s > n:
                    continue
                for k in range(2, 6):
                    rep = moments(seq, s, k)
                    i_k, i_k_star = _grid_moments(seq, s, k)
                    assert (rep.i_k, rep.i_k_star) == (float(i_k), float(i_k_star)), (n, shift, s, k)
                    cases += 1
    assert cases == 2304


def test_moments_hand_instances():
    # N = 1, s = 1: F is the indicator of the full circle
    rep = moments(PointSequence([0.4]), 1.0, 2)
    assert rep.i_k == 0.0
    assert rep.i_k_star == pytest.approx(1.0)
    # two coincident points, s = 1: F = 2 on an arc of length 1/2
    rep = moments(PointSequence([0.3, 0.3]), 1.0, 2)
    assert rep.i_k == pytest.approx(1.0)
    assert rep.i_k_star == pytest.approx(2.0)


def test_factorial_below_power_moment():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 400))
        s = float(rng.uniform(0.1, n / 2))
        k = int(rng.integers(2, 6))
        rep = moments(PointSequence(rng.random(n)), s, k)
        assert rep.i_k <= rep.i_k_star + 1e-12
        assert rep.i_k >= -1e-12


def test_g_examples():
    assert g_eval(2, 1.0, [[0.4]])[0] == pytest.approx(0.6)
    assert g_eval(3, 1.0, [[0.2, -0.3]])[0] == pytest.approx(0.5)
    assert g_eval(3, 1.0, [[1.5, 0.0]])[0] == 0.0  # outside the support box
    # several rows at once, one value per row; a 1-D array is one tuple, one value
    assert g_eval(3, 1.0, [[0.2, -0.3], [1.5, 0.0]]).tolist() == pytest.approx([0.5, 0.0])
    assert float(g_eval(3, 1.0, np.array([0.2, -0.3]))) == pytest.approx(0.5)


def test_g_clamp_examples():
    # the final {x}^+ at x = s - |y| = -3, 0 and 2.5
    assert g_eval(2, 1.0, [[4.0]])[0] == 0.0
    assert g_eval(2, 1.0, [[-1.0]])[0] == 0.0
    assert g_eval(2, 3.0, [[0.5]])[0] == 2.5


def test_g_validation():
    with pytest.raises(ParameterError):
        g_eval(1, 1.0, [[]])
    with pytest.raises(ParameterError):
        g_eval(2, 0.0, [[0.1]])
    with pytest.raises(ParameterError):
        g_eval(3, 1.0, [[0.1]])  # one coordinate where k - 1 = 2 are needed


@settings(max_examples=100)
@given(
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=0.1, max_value=4.0),
    st.lists(st.floats(min_value=-6, max_value=6), min_size=1, max_size=4),
)
def test_g_support_and_bounds(k, s, ys):
    ys = ys[: k - 1] + [0.0] * max(0, k - 1 - len(ys))
    v = g_eval(k, s, [ys])[0]
    assert 0.0 <= v <= s
    if any(abs(y) > s for y in ys):
        assert v == 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_scale_is_a_parameter_error(bad):
    with pytest.raises(ParameterError):
        g_eval(2, bad, [[0.1]])


def _tent_lattice_sum(k, s, h=1.0):
    """h^(k-1) sum of g_s^(k) over the points of hZ^(k-1) with |y_i| <= s."""
    m = int(s / h)
    z = np.indices((2 * m + 1,) * (k - 1)).reshape(k - 1, -1).T - m
    return h ** (k - 1) * g_eval(k, s, h * z).sum()


def test_tent_integral_is_s_to_the_k():
    # k = 2 closed form: integral of {s - |y|}^+ over R is exactly s^2
    # the tent is piecewise linear: the trapezoid rule on a grid holding its
    # kinks -s, 0, s is exact up to rounding
    for s in (0.5, 1.0, 2.5):
        y = np.union1d(np.linspace(-2 * s, 2 * s, 1001), [-s, 0.0, s])
        assert abs(np.trapezoid(g_eval(2, s, y[:, None]), y) - s**2) <= 1e-12
    # every k: g_L is linear on the Kuhn simplices of Z^(k-1), so its
    # lattice sum is its integral L^k, with no rounding
    for k in range(2, 6):
        for s in (1, 2, 3, 7, 10):
            assert _tent_lattice_sum(k, s) == s**k
    assert _tent_lattice_sum(3, 2.5, h=0.25) == 2.5**3


def test_i_k_via_correlation_matches_sweep():
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(8, 61))
        k = int(rng.integers(2, 5))
        s = float(rng.uniform(0.2, n / 4))
        seq = PointSequence(rng.random(n))
        assert i_k_via_correlation(seq, s, k) == moments(seq, s, k).i_k
    # a degenerate cluster: all points equal, one arc, at 0 where it wraps
    for x, n, s, k in ((0.25, 7, 0.5, 3), (0.0, 8, 2.0, 4)):
        seq = PointSequence([x] * n)
        assert i_k_via_correlation(seq, s, k) == moments(seq, s, k).i_k


def test_i_k_via_correlation_at_lattice_ties():
    # the lattice points of the tie test in test_correlations put pair
    # offsets exactly at |y| = s: the integer tent reads them on the grid,
    # as the sweep does, so the two agree bit for bit
    cases = 0
    for n in range(4, 41):
        for shift in (0.0, 0.5, 0.25):
            seq = PointSequence(np.array([(j + shift) / n for j in range(n)]) % 1.0)
            for s in (1.0, 2.0, 3.0):
                if 4 * s > n:
                    continue
                for k in (2, 3):
                    assert i_k_via_correlation(seq, s, k) == moments(seq, s, k).i_k, \
                        (n, shift, s, k)
                    cases += 1
    assert cases == 594


def test_i_k_via_correlation_degenerate_cluster():
    # all points identical: I_k = falling(N,k) * s/N on one arc
    n, s, k = 7, 0.5, 3
    seq = PointSequence([0.25] * n)
    expected = falling_factorial(n, k) * (s / n)
    assert i_k_via_correlation(seq, s, k) == pytest.approx(expected)
    assert moments(seq, s, k).i_k == pytest.approx(expected)


def test_i_k_requires_n_at_least_4s():
    with pytest.raises(ParameterError):
        i_k_via_correlation(PointSequence([0.1, 0.2, 0.3]), 1.0, 2)
    with pytest.raises(ParameterError):  # N < 4s is False for NaN
        i_k_via_correlation(PointSequence([0.1, 0.2, 0.3]), float("nan"), 2)


def test_i2_chain_through_second_moment():
    # I_2 = int F^2 - s, and int F^2 equals the averaged pair statistic
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(10, 200))
        s = float(rng.uniform(0.3, n / 4))
        seq = PointSequence(rng.random(n))
        rep = moments(seq, s, 2)
        assert rep.i_k == pytest.approx(rep.i_k_star - s, abs=1e-10 * n)
        assert rep.i_k_star == pytest.approx(c_k_star(seq, (s,)), rel=1e-9)


def test_power_moment_stirling_decomposition():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(10, 61))
        k = int(rng.integers(2, 5))
        s = float(rng.uniform(0.2, n / 4))
        seq = PointSequence(rng.random(n))
        # on the grid, in integers: I_1 = s is the mass N (2R + 1) of sum_v v L_v
        hist = sweep_profile(seq, s).value_lengths()
        mass = n * (2 * grid_arc(-0.5 * s, 0.5 * s, n)[1] + 1)
        rhs = stirling_second(k, 1) * mass + sum(
            stirling_second(k, j) * intervalstats._tent_sum(seq, s, j) for j in range(2, k + 1)
        )
        assert sum(v**k * ln for v, ln in hist.items()) == rhs
        assert moments(seq, s, k).i_k_star == rhs / GRID


def test_ball_cover_counting_identity():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        k = int(rng.integers(2, 4))
        s = float(rng.uniform(0.5, n / 2))
        seq = PointSequence(rng.random(n))
        t = float(rng.random())
        # ||x_i - t|| <= s/(2N) on the grid
        inside = in_arc(to_grid(seq.points) - to_grid(t), grid_arc(-0.5 * s, 0.5 * s, n))
        direct = sum(
            1
            for tup in itertools.permutations(range(n), k)
            if all(inside[i] for i in tup)
        )
        assert falling_factorial(f_count(seq, t, s), k) == direct


def test_bell_prediction_values():
    assert bell_prediction(2, 2.0) == pytest.approx(6.0)  # s^2 + s
    assert bell_prediction(3, 1.0) == pytest.approx(5.0)  # 1 + 3 + 1


@pytest.mark.parametrize("k, s", [(4, 0.0), (2, -1.0), (2, float("nan")), (2, float("inf")),
                                  (9, 1e40), (2, 1e160)])
def test_bell_prediction_needs_a_finite_positive_scale_and_value(k, s):
    # s as g_eval takes it, and a moment that overflows a float is named
    with pytest.raises(ParameterError):
        bell_prediction(k, s)


def test_orders_above_sixteen_are_named():
    seq = PointSequence([0.1, 0.9])
    assert moments(seq, 1.0, 16).k == 16
    for call in (lambda: moments(seq, 1.0, 17), lambda: bell_prediction(17, 1.0)):
        with pytest.raises(ParameterError, match="orders above k = 16 are unsupported"):
            call()


def test_bell_prediction_takes_order_one():
    # Bell(1, s) = s; below 1 and above 16 the orders are named
    assert bell_prediction(1, 2.5) == 2.5
    with pytest.raises(ParameterError, match="k must be >= 1"):
        bell_prediction(0, 2.5)
    with pytest.raises(ParameterError, match="orders above k = 16 are unsupported"):
        bell_prediction(17, 2.5)


def test_moments_validation():
    seq = PointSequence([0.1, 0.9])
    with pytest.raises(ParameterError):
        moments(seq, 3.0, 2)
    with pytest.raises(ParameterError):
        moments(seq, 1.0, 1)


def _arc_intersection_measure(centers, radius):
    """lambda of the common intersection of closed arcs B(c, radius), by
    interval arithmetic on a cut circle (radius < 1/4 keeps one component)."""
    base = centers[0]
    los, his = [], []
    for c in centers:
        d = c - base
        d = d - round(d)  # representative in [-1/2, 1/2]
        los.append(d - radius)
        his.append(d + radius)
    return max(0.0, min(his) - max(los))


def test_tent_function_equals_arc_intersection_per_tuple():
    import itertools as it

    from corrkit import r_k_testfn

    seq = PointSequence([0.1, 0.13, 0.15, 0.6, 0.97])
    n, s, k = len(seq), 0.9, 3
    r = 0.5 * s / n
    x = seq.points
    d = (to_grid(x)[:, None] - to_grid(x)[None, :]).view(np.int64)  # the offsets the tent gets
    direct = 0.0
    for tup in it.permutations(range(n), k):
        direct += _arc_intersection_measure([x[i] for i in tup], r)
    corr = r_k_testfn(seq, lambda ys: g_eval(k, s, ys), s, k).value
    assert corr == pytest.approx(direct, abs=1e-12)
    # per-tuple identity: N * lambda(cap B) = g at the scaled differences
    for tup in it.permutations(range(n), k):
        lam = _arc_intersection_measure([x[i] for i in tup], r)
        g = g_eval(k, s, [[n * (d[tup[0], i] * 2.0**-64) for i in tup[1:]]])[0]
        assert n * lam == pytest.approx(g, abs=1e-12)


def test_power_moment_leading_order_in_s():
    # only the leading order of I_k* is pinned for large s: the ratio
    # I_k*/s^k falls toward 1 like 1 + S(k,k-1)/s + ...
    from corrkit import uniform_random

    seq = uniform_random(10**5, 1729)
    for k in (2, 3):
        ratios = []
        for s in (5.0, 10.0, 20.0, 40.0):
            ratio = moments(seq, s, k).i_k_star / s**k
            assert abs(ratio - 1.0) <= 2.0 * stirling_second(k, k - 1) / s
            ratios.append(ratio)
        assert ratios == sorted(ratios, reverse=True)  # monotone approach from above
