import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from corrkit import core
from corrkit import (
    PointSequence,
    ParameterError,
    falling_factorial,
    order_comparison_threshold,
    signed_distance,
    stirling_first_unsigned,
    stirling_second,
)
from corrkit.core import check_half, exact_chunk_sum, exact_sum, to_grid

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


def _grid_distance(x, y) -> float:
    """||x - y|| read on the 2^-64 grid, rounded once to a float."""
    d = int((to_grid([x]) - to_grid([y]))[0])
    return min(d, (1 << 64) - d) * 2.0**-64


def test_grid_distance_examples():
    # ||x - y|| as the window reads it (the grid arc) and as a float weight
    assert _grid_distance(0.9, 0.1) == pytest.approx(0.2)
    assert abs(signed_distance(0.9 - 0.1)) == pytest.approx(0.2)
    assert _grid_distance(0.37, 0.37) == 0.0 == abs(signed_distance(0.37 - 0.37))
    assert _grid_distance(0.25, 0.75) == 0.5 == abs(signed_distance(0.25 - 0.75))


def test_signed_distance_examples():
    assert signed_distance(0.75) == -0.25
    assert signed_distance(0.5) == 0.5  # boundary belongs to the first branch
    assert signed_distance(0.2) == 0.2


@given(unit, unit)
def test_grid_distance_is_abs_signed(x, y):
    # the float |((x-y))| is within one rounding of the exact grid distance,
    # which is symmetric bit for bit
    assert _grid_distance(x, y) == pytest.approx(abs(signed_distance(x - y)), abs=1e-15)
    assert _grid_distance(x, y) == _grid_distance(y, x)


@given(unit, unit, unit)
def test_circle_triangle_inequality(x, y, z):
    assert _grid_distance(x, z) <= _grid_distance(x, y) + _grid_distance(y, z) + 1e-15


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-1e-12)
@example(-0.5)
@example(2.5)
@example(-0.75)
@example(-2.0**52 - 0.5)
def test_signed_distance_range(x):
    # ((x)) exactly: x less an integer, in (-1/2, 1/2], and odd off +-1/2
    d = signed_distance(x)
    assert -0.5 < d <= 0.5
    assert (Fraction(x) - Fraction(d)).denominator == 1
    if abs(d) != 0.5:
        assert signed_distance(-x) == -d


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _falling_poly(m):
    """Coefficients (ascending) of y(y-1)...(y-m) by integer convolution."""
    poly = [0, 1]  # y
    for t in range(1, m + 1):
        poly = _poly_mul(poly, [-t, 1])
    return poly


def test_stirling_second_examples():
    assert stirling_second(3, 3) == 1
    # oracle: the expansion identity at x = 0..10 pins S(3,2) = 3, S(4,2) = 7
    for k, j, expected in [(3, 2, 3), (4, 2, 7)]:
        assert stirling_second(k, j) == expected
        for x in range(11):
            lhs = sum(stirling_second(k, jj) * falling_factorial(x, jj) for jj in range(1, k + 1))
            assert lhs == x**k


def test_stirling_first_unsigned_against_polynomial_oracle():
    assert stirling_first_unsigned(1, 1) == 1
    assert (stirling_first_unsigned(2, 2), stirling_first_unsigned(2, 1)) == (3, 2)
    assert stirling_first_unsigned(3, 3) == 6
    for m in range(1, 8):
        poly = _falling_poly(m)
        for i in range(1, m + 1):
            assert abs(poly[i]) == stirling_first_unsigned(m, i)
            # alternating signs below the leading y^(m+1)
            assert poly[i] == (-1) ** (m + 1 - i) * stirling_first_unsigned(m, i)


def test_stirling_second_expansion_full_range():
    for k in range(1, 9):
        for x in range(21):
            lhs = sum(stirling_second(k, j) * falling_factorial(x, j) for j in range(1, k + 1))
            assert lhs == x**k


def test_stirling_recurrences_hold_for_stored_entries():
    # S(k,j) and the unsigned first-kind c(k,j) = stirling_first_unsigned(k-1, j),
    # both zero above the diagonal
    def s2(k, j):
        return stirling_second(k, j) if j <= k else 0

    def c1(k, j):
        return stirling_first_unsigned(k - 1, j) if j <= k else 0

    for k in range(1, 11):
        assert s2(k, k) == 1
        assert s2(k, 0) == 0
        for j in range(1, k + 1):
            assert s2(k, j) == j * s2(k - 1, j) + s2(k - 1, j - 1)
            assert c1(k, j) == (k - 1) * c1(k - 1, j) + c1(k - 1, j - 1)


def test_stirling_range_errors():
    with pytest.raises(ParameterError):
        stirling_second(30, 2)
    with pytest.raises(ParameterError):
        stirling_second(3, 4)
    with pytest.raises(ParameterError):
        stirling_first_unsigned(20, 1)


def test_order_comparison_threshold():
    assert order_comparison_threshold(2) == 6.0   # coefficients {3, 2}
    assert order_comparison_threshold(3) == 22.0  # coefficients {6, 11, 6}
    values = [order_comparison_threshold(m) for m in range(2, 10)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_point_sequence_sorted_view():
    seq = PointSequence([0.5, 0.1, 0.9, 0.1])
    assert len(seq) == 4
    assert np.all(np.diff(seq.sorted_points) >= 0)
    assert np.array_equal(seq.sorted_points, np.sort(seq.points))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -2.5])
def test_check_half_rejects_nan_and_wrapping_bounds(bad):
    check_half((0.5, -2.0, 2.0), 4, "{b} > {half}")
    with pytest.raises(ParameterError, match="> 2.0"):
        check_half((0.5, bad), 4, "{b} > {half}")


def test_point_sequence_rejects_bad_values():
    for bad in ([1.0], [-0.1], [float("nan")], []):
        with pytest.raises(ParameterError):
            PointSequence(bad)


def test_point_sequence_builds_without_argsort(monkeypatch):
    calls = []
    real = np.argsort

    def counting(*args, **kwargs):
        calls.append(kwargs.get("kind"))
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    PointSequence(np.random.default_rng(3).integers(0, 5, 200) / 5)
    assert calls == []


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("at", [0, 2, 4])
def test_point_sequence_rejects_non_finite_anywhere(bad, at):
    points = [0.1, 0.0, 0.5, 0.9, 0.3]
    points.insert(at, bad)
    with pytest.raises(ParameterError, match=r"\[0,1\)"):
        PointSequence(points)


def _outcome(total, *args):
    """The sum, or the type of the error it raised."""
    try:
        return total(*args)
    except (OverflowError, ValueError) as err:
        return type(err)


def _same(got, want):
    return got == want if isinstance(want, type) else float(got).hex() == want.hex()


any_double = st.floats(allow_nan=True, allow_infinity=True)
scaled_double = st.builds(math.ldexp, st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
                          st.integers(-1080, 1024))
huge = st.sampled_from([1e308, -1e308, 1.7976931348623157e308, -8.98846567431158e307, 1.0, -1.0])
tiny = st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308])


@given(st.lists(st.one_of(scaled_double, huge, tiny, any_double), max_size=40),
       st.lists(st.integers(0, 40), max_size=4))
@example([], [])
@example([-0.0], [])
@example([-0.0, -0.0], [1])
@example([1e308, 1e308, -1e308], [])
@example([1e308, -1e308, 1.0, 1e-300], [2])
@example([5e-324, 5e-324, -2.2250738585072014e-308], [1])
@example([float("inf"), 1.0, float("-inf")], [1])
def test_exact_sum_is_fsum_bit_for_bit(values, cuts):
    want = _outcome(math.fsum, values)
    x = np.array(values, dtype=np.float64)
    assert _same(_outcome(exact_sum, x), want)
    # the same terms in chunks give one rounding of the whole sum
    cuts = sorted(min(c, len(values)) for c in cuts)
    chunks = np.split(x, cuts)
    assert _same(_outcome(exact_chunk_sum, lambda: iter(chunks)), want)


@given(st.lists(st.one_of(scaled_double, tiny), min_size=1, max_size=60), st.integers(1, 7))
def test_exact_sum_across_blocks(values, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK", block)
        assert _same(_outcome(exact_sum, np.array(values)), _outcome(math.fsum, values))


near_limit = st.builds(lambda m, e: math.ldexp(m, e), st.floats(-1.0, 1.0, exclude_min=True,
                                                                 exclude_max=True),
                       st.integers(985, 1000))
subnormal = st.builds(lambda m: m * 5e-324, st.integers(-(1 << 52) + 1, (1 << 52) - 1))


@given(st.lists(st.tuples(st.one_of(scaled_double, near_limit, subnormal, tiny), st.booleans()),
                min_size=1, max_size=40),
       st.integers(1, 9), st.randoms(use_true_random=False))
@example([(5e-324, True), (2.0**999, True), (1.0, False)], 3, None)
@example([(2.0**997, False), (-2.0**995, False), (3e-320, True)], 2, None)
@example([(math.ldexp(0.75, 1000), False), (1.0, False)], 1, None)
def test_exact_sum_mixes_subnormals_the_limit_and_cancellation(pairs, block, rnd):
    # each flagged term with its negation, in some order, so that the
    # blocks' partial sums and the whole sum cancel exactly; terms near
    # _EXACT_LIMIT put the sum on either side of the math.fsum route
    values = [v for x, both in pairs for v in ((x, -x) if both else (x,))]
    if rnd is not None:
        rnd.shuffle(values)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK", block)
        assert _same(_outcome(exact_sum, np.array(values)), _outcome(math.fsum, values))


def test_exact_sum_of_many_terms():
    # 2^17 + 3 terms, so the default block is crossed; exponents spread wide
    rng = np.random.default_rng(7)
    x = np.ldexp(rng.standard_normal((1 << 17) + 3), rng.integers(-60, 60, (1 << 17) + 3))
    assert exact_sum(x).hex() == math.fsum(x.tolist()).hex()


def test_point_sequence_immutable():
    seq = PointSequence([0.1, 0.2])
    with pytest.raises(ValueError):
        seq.points[0] = 0.5
