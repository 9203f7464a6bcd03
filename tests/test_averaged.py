import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from corrkit import averaged, core
from corrkit import (
    ParameterError,
    PointSequence,
    brute_force_r_k,
    c_k_star,
    c_k_star_local,
    moments,
    signed_distance,
    uniform_random,
)


def test_c2_star_two_point_overlaps():
    # C_2* = sum_i sum_j lambda(s; i, j) on two points: the two diagonal
    # terms are s/N each, the two off-diagonal ones lambda(s; 0, 1)
    seq = PointSequence([0.0, 0.3])
    assert c_k_star(seq, (1.0,)) == pytest.approx(2 * 0.5 + 2 * 0.2)
    far = PointSequence([0.0, 0.5])
    assert c_k_star(far, (0.6,)) == pytest.approx(2 * 0.3)  # disjoint arcs add nothing


def test_c2_star_scale_validation():
    # s > N is rejected (the pair-index check went with the scalar helper)
    seq = PointSequence([0.0, 0.3])
    with pytest.raises(ParameterError):
        c_k_star(seq, (3.0,))


def test_c2_star_single_point():
    # N = 1: the single diagonal term gives exactly s
    for s in (0.25, 0.5, 1.0):
        assert c_k_star(PointSequence([0.7]), (s,)) == pytest.approx(s)


def test_c_k_star_matches_direct_double_sum():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 50))
        s = float(rng.uniform(0.2, n))
        seq = PointSequence(rng.random(n))
        x = seq.points
        direct = math.fsum(
            max(s / n - abs(signed_distance(x[i] - x[j])), 0.0)
            for i in range(n)
            for j in range(n)
        )
        assert c_k_star(seq, (s,)) == pytest.approx(direct, rel=1e-12, abs=1e-14)


def test_c_k_star_equals_second_moment_of_window_count():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(100, 3000))
        s = float(rng.choice([0.5, 1.0, 5.0, 50.0]))
        seq = PointSequence(rng.random(n))
        left = moments(seq, s, 2).i_k_star
        right = c_k_star(seq, (s,))
        assert abs(left - right) <= 1e-9 * abs(right)


def test_c_k_star_lower_bound():
    rng = np.random.default_rng(2)
    for _ in range(15):
        n = int(rng.integers(10, 400))
        s = float(rng.uniform(0.2, min(n / 2, 8.0)))
        k = int(rng.integers(2, 5))
        seq = PointSequence(rng.random(n))
        assert c_k_star(seq, (s,) * (k - 1)) >= s ** (2 * (k - 1)) * (1 - 1e-12)


def test_c_k_star_scale_box_integral_k3():
    # 2-D integration of brute-force R_3* over its exact breakpoints
    rng = np.random.default_rng(3)
    for _ in range(3):
        n = int(rng.integers(10, 22))
        seq = PointSequence(rng.random(n))
        s1, s2 = float(rng.uniform(0.3, 1.2)), float(rng.uniform(0.3, 1.2))
        x = seq.points
        dvals = np.unique(np.abs(signed_distance(x[:, None] - x[None, :]))) * n

        def breaks(s):
            return np.unique(np.concatenate(([0.0], dvals[(dvals > 0) & (dvals < s)], [s])))

        total = 0.0
        b1, b2 = breaks(s1), breaks(s2)
        for a1, a2 in zip(b1[:-1], b1[1:]):
            for c1, c2 in zip(b2[:-1], b2[1:]):
                r = brute_force_r_k(seq, scales=((a1 + a2) / 2, (c1 + c2) / 2), star=True).value
                total += r * (a2 - a1) * (c2 - c1)
        assert c_k_star(seq, (s1, s2)) == pytest.approx(total, rel=1e-3)


def test_hoelder_chain_pair_vs_k():
    rng = np.random.default_rng(4)
    for _ in range(15):
        n = int(rng.integers(20, 300))
        s = float(rng.uniform(0.3, 10.0))
        k = int(rng.integers(3, 5))
        seq = PointSequence(rng.random(n))
        assert c_k_star(seq, (s,)) ** (k - 1) <= c_k_star(seq, (s,) * (k - 1)) * (1 + 1e-12)


def test_local_full_interval_matches_global():
    rng = np.random.default_rng(5)
    for _ in range(8):
        n = int(rng.integers(5, 200))
        s = float(rng.uniform(0.3, 5.0))
        k = int(rng.integers(2, 5))
        seq = PointSequence(rng.random(n))
        assert c_k_star_local(seq, s, k, (0.0, 1.0)) == pytest.approx(
            c_k_star(seq, (s,) * (k - 1)), rel=1e-12
        )


def test_local_empty_interval():
    seq = PointSequence([0.1, 0.2, 0.3])
    assert c_k_star_local(seq, 1.0, 3, (0.8, 0.9)) == 0.0


def test_local_superadditivity_over_partition():
    rng = np.random.default_rng(6)
    for _ in range(8):
        n = int(rng.integers(50, 1500))
        s = float(rng.uniform(0.5, 4.0))
        k = int(rng.integers(2, 4))
        seq = PointSequence(rng.random(n))
        parts = 8
        total = sum(
            c_k_star_local(seq, s, k, (j / parts, (j + 1) / parts)) for j in range(parts)
        )
        assert total <= c_k_star(seq, (s,) * (k - 1)) * (1 + 1e-12)


def test_local_lower_bound_for_uniform():
    a, s, k = 0.5, 2.0, 3
    seq = uniform_random(10**4, 11)
    assert c_k_star_local(seq, s, k, (0.0, a)) >= 0.9 * a * s ** (2 * (k - 1))


def test_one_overlap_sum_per_distinct_scale(monkeypatch):
    seq = PointSequence(np.random.default_rng(8).random(300))
    n, g = len(seq), seq.sorted_grid
    real = averaged._overlap_sums
    l1, l2 = (np.concatenate(list(real(g, s, n))) for s in (1.0, 2.0))
    calls, windows = [], []
    real_blocks = averaged.self_window_blocks

    def counting(g, s, n):
        calls.append(s)
        return real(g, s, n)

    def counting_blocks(g, arcs):
        for b, wins in real_blocks(g, arcs):
            windows.append(len(wins))
            yield b, wins

    monkeypatch.setattr(averaged, "_overlap_sums", counting)
    monkeypatch.setattr(averaged, "self_window_blocks", counting_blocks)
    monkeypatch.setattr(core, "_BLOCK", 7)
    # the values are those of one L per slot, multiplied in slot order
    assert c_k_star(seq, (2.0, 2.0)) == n * math.fsum((l2 * l2).tolist())
    assert c_k_star(seq, (1.0, 2.0, 1.0)) == n**2 * math.fsum((l1 * l2 * l1).tolist())
    assert sorted(calls) == [1.0, 2.0, 2.0]
    assert windows == [1] * (3 * 43)  # 300 anchors in blocks of 7, per overlap sum


def _lattice_inputs():
    # the points (j + shift)/N of the lattice tie tests, and the same sites
    # taken twice each (exact duplicates)
    for n in range(2, 41):
        for shift in (0.0, 0.5, 0.25):
            yield np.array([(j + shift) / n for j in range(n)]) % 1.0
            if n % 2 == 0:
                yield np.repeat(np.array([(j + shift) / (n // 2) for j in range(n // 2)]) % 1.0, 2)


def _exact_overlap_sums(x, s, n):
    """L_i = sum_j {s/N - ||x_i - x_j||}^+ over the given points, exactly:
    integer numerators over one common denominator."""
    unit = 1 << 60  # every lattice point is a multiple of 2^-60
    p, q = Fraction(s).as_integer_ratio()
    xs = [int(Fraction(float(v)) * unit) for v in x]
    nums = [sum(max(p * unit - q * n * min((a - b) % unit, (b - a) % unit), 0) for b in xs)
            for a in xs]
    return nums, q * n * unit


def _exact_c_k_star(ls, n):
    """N^(k-2) sum_i prod_r L_i(s_r) as a Fraction, from _exact_overlap_sums per slot."""
    total = sum(math.prod(row) for row in zip(*(nums for nums, _ in ls)))
    return Fraction(n ** (len(ls) - 1) * total, math.prod(den for _, den in ls))


def test_c_k_star_matches_exact_fraction_double_sum_on_lattice():
    # ties at ||x_i - x_j|| = s/N, duplicates, and s in (N/2, N], where the
    # window is the whole circle
    worst, cases = 0.0, 0
    for x in _lattice_inputs():
        n = x.size
        seq = PointSequence(x)
        unit_scale = _exact_overlap_sums(x, 1.0, n)
        for s in sorted({1.0, 2.0, 3.0, 0.75 * n, float(n)}):
            if s > n:
                continue
            ls = _exact_overlap_sums(x, s, n)
            for scales, slots in (((s,), [ls]), ((s, s), [ls, ls]), ((s, 1.0), [ls, unit_scale])):
                exact = _exact_c_k_star(slots, n)
                worst = max(worst, abs(Fraction(c_k_star(seq, scales)) - exact) / exact)
                cases += 1
    assert cases == 2592
    assert worst <= 1e-15


def test_c_k_star_local_matches_exact_fraction_double_sum_on_lattice():
    # intervals that start at 0, end at 1, and cut the lattice at a point
    worst, cases = 0.0, 0
    for x in _lattice_inputs():
        n = x.size
        seq = PointSequence(x)
        for interval in ((0.0, 0.5), (0.5, 1.0), (0.0, 1.0), (0.25, 0.75)):
            inside = x[(interval[0] <= x) & (x < interval[1])]
            for s in sorted({1.0, 3.0, float(n)}):
                if s > n:
                    continue
                ls = _exact_overlap_sums(inside, s, n)
                for k in (2, 3):
                    got = c_k_star_local(seq, s, k, interval)
                    if inside.size == 0:
                        assert got == 0.0
                        continue
                    exact = _exact_c_k_star([ls] * (k - 1), n)
                    worst = max(worst, abs(Fraction(got) - exact) / exact)
                    cases += 1
    assert cases == 4160
    assert worst <= 1e-15


def test_c_k_star_memory_is_linear():
    # an expansion of the ~1e7 window pairs would need ~240 MB
    seq = uniform_random(10**4, 31)
    tracemalloc.start()
    try:
        c_k_star(seq, (500.0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_c_k_star_at_a_wide_scale_equals_the_second_moment():
    # N = 1e5, s = 1e4: each window holds ~2e4 points, 2e9 pairs in all
    seq = uniform_random(10**5, 32)
    s = 1e4
    assert c_k_star(seq, (s,)) == pytest.approx(moments(seq, s, 2).i_k_star, rel=1e-12)
