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


@pytest.mark.parametrize("m", [1, 2, 7, 40])
def test_unrolled_limbs_rebuild_the_unrolled_grid(m):
    # U_p = g_(p mod m) + 2^64 floor(p/m) from its high and low 32-bit
    # limbs, and mod 2^64 from the one wrapping limb, over every range
    # -m < first <= last < 2m of grids from 0 and up to 2^64 - 1
    stack = np.sort(np.random.default_rng(m).integers(0, 1 << 64, (3, m), dtype=np.uint64), axis=1)
    stack[0, 0], stack[-1, -1] = 0, (1 << 64) - 1
    for g in stack:
        vals = g.tolist()
        for first in range(1 - m, 2 * m):
            for last in range(first, 2 * m):
                u = [vals[p % m] + ((p // m) << 64) for p in range(first, last)]
                hi, lo = (averaged._unrolled_limb(g, first, last, limb).tolist() for limb in (0, 1))
                assert [(h << 32) + low for h, low in zip(hi, lo)] == u, (first, last)
                assert averaged._unrolled_limb(g, first, last, None).tolist() == [
                    v % core.GRID for v in u], (first, last)


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
    # the values are those of one L per slot, multiplied in slot order, and
    # rounded once
    l1, l2 = _exact_ls(l1, 1.0, n, n), _exact_ls(l2, 2.0, n, n)
    assert c_k_star(seq, (2.0, 2.0)) == float(n * sum(v * v for v in l2))
    assert c_k_star(seq, (1.0, 2.0, 1.0)) == float(n**2 * sum(u * v * u for u, v in zip(l1, l2)))
    assert sorted(calls) == [1.0, 2.0, 2.0]
    assert windows == [1] * (3 * 43)  # 300 anchors in blocks of 7, per overlap sum


def _exact_ls(rows, s, n, m):
    """The L_i of _overlap_sums' rows over a grid of m points, as Fractions:
    each row holds the 24-bit limbs of cnt_i, then those of D_i, and
    averaged._kernel gives their coefficients and the denominator."""
    coefs, den = averaged._kernel(s, n, m)
    return [Fraction(sum(c * v for c, v in zip(coefs, row)), den) for row in rows.tolist()]


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
    misses, cases = 0, 0
    for x in _lattice_inputs():
        n = x.size
        seq = PointSequence(x)
        unit_scale = _exact_overlap_sums(x, 1.0, n)
        for s in sorted({1.0, 2.0, 3.0, 0.75 * n, float(n)}):
            if s > n:
                continue
            ls = _exact_overlap_sums(x, s, n)
            for scales, slots in (((s,), [ls]), ((s, s), [ls, ls]), ((s, 1.0), [ls, unit_scale])):
                misses += c_k_star(seq, scales) != float(_exact_c_k_star(slots, n))
                cases += 1
    assert cases == 2592
    assert misses == 0


def test_c_k_star_local_matches_exact_fraction_double_sum_on_lattice():
    # intervals that start at 0, end at 1, and cut the lattice at a point
    misses, cases = 0, 0
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
                    misses += got != float(_exact_c_k_star([ls] * (k - 1), n))
                    cases += 1
    assert cases == 4160
    assert misses == 0


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


def _regime_inputs():
    """(points, s) around the one-limb bound of _overlap_sums, (max cnt - 1) R
    < 2^64 with R = grid_arc(-s, s, N)[1]: a lattice and a lattice of
    duplicates whose widest windows put it just below 2^64 and, at an s
    2^-30 larger, just above; N = 1000 at s = 400, where D_i passes 2^64
    and the runs merge; and a dense cluster among spread points, whose
    blocks switch regime within one call.  Every point is a multiple of
    2^-60, as _exact_overlap_sums needs."""
    rng = np.random.default_rng(27)
    lattice, pairs = np.arange(50) / 50, np.repeat(np.arange(25) / 25, 2)
    yield lattice, 5.0, "below"  # 11 points a window: 10 R = 2^64 - 6
    yield lattice, 5.0 * (1 + 2**-30), "above"
    yield pairs, math.nextafter(50 / 9, 0.0), "below"  # 10 points: 9 R = 2^64 - 3607
    yield pairs, 50 / 9 * (1 + 2**-30), "above"
    yield np.floor(rng.random(1000) * 2**40) / 2**40, 400.0, "above"
    cluster = 0.4 + np.floor(rng.random(60) * 2**20) / 2**40
    yield np.concatenate((cluster, np.floor(rng.random(40) * 2**40) / 2**40)), 2.0, "both"


def test_overlap_sums_agree_with_the_fraction_oracle_across_the_limb_bound(monkeypatch):
    # each block takes one wrapping uint64 limb below the bound and two
    # 32-bit limbs at or above it; the L_i are the oracle's, exactly, and
    # C_k* and its localized sum its rounding, at blocks of 1, 7 and N, and
    # bit for bit those of two limbs everywhere
    real_blocks = averaged._block_distances
    taken = []

    def spy(*args):
        taken.append(len(args[-1]))
        return real_blocks(*args)

    def two_limbs(*args):
        return real_blocks(*args[:-1], (0, 1))

    for x, s, side in _regime_inputs():
        seq = PointSequence(x)
        n, g = len(seq), seq.sorted_grid
        r = core.grid_arc(-s, s, n)[1]
        monkeypatch.setattr(core, "_BLOCK", n)
        [(_, [(start, end)])] = core.self_window_blocks(g, [core.grid_arc(-s, s, n)])
        assert ((int((end - start).max()) - 1) * r < core.GRID) == (side == "below"), side
        nums, den = _exact_overlap_sums(np.sort(x), s, n)
        inside = x[(0.25 <= x) & (x < 0.75)]
        local = _exact_overlap_sums(inside, s, n)
        want = [_exact_c_k_star([(nums, den)], n), _exact_c_k_star([(nums, den)] * 2, n),
                _exact_c_k_star([local] * 2, n)]
        results = []
        for block in (1, 7, n):
            monkeypatch.setattr(core, "_BLOCK", block)
            for blocks in (spy, two_limbs):
                monkeypatch.setattr(averaged, "_block_distances", blocks)
                taken.clear()
                ls = np.concatenate(list(averaged._overlap_sums(g, s, n)))
                if blocks is spy:
                    regimes = set(taken)
                got = [c_k_star(seq, (s,)), c_k_star(seq, (s, s)),
                       c_k_star_local(seq, s, 3, (0.25, 0.75))]
                results.append([ls.tobytes()] + [v.hex() for v in got])
            # one block: one limb below the bound, two above; the cluster's
            # blocks of 7 take both
            if block == n:
                assert regimes == ({1} if side == "below" else {2}), side
            if side == "both" and block == 7:
                assert regimes == {1, 2}
            assert got == [float(e) for e in want]
            assert _exact_ls(ls, s, n, n) == [Fraction(num, den) for num in nums]
        assert all(res == results[0] for res in results), side


def test_c_k_star_is_the_rounded_fraction_at_higher_orders():
    # k = 4 and 5, equal and unequal scales, on lattices with ties and
    # duplicates, and on the inputs around the limb bound, whose blocks
    # take two 32-bit limbs: products past 2^63 through the head's limbs
    cases = 0
    inputs = [(x, 2.0) for x in list(_lattice_inputs())[::7]]
    for x, s in inputs + [(x, s) for x, s, _ in _regime_inputs()]:
        n = x.size
        seq = PointSequence(x)
        ls = {v: _exact_overlap_sums(x, v, n) for v in {s, 1.0}}
        for scales in ((s, s, s), (s, 1.0, s), (s,) * 4, (1.0, s, s, 1.0)):
            assert c_k_star(seq, scales) == float(_exact_c_k_star([ls[v] for v in scales], n)), (n, scales)
            cases += 1
        inside = x[(0.25 <= x) & (x < 0.75)]
        local = _exact_overlap_sums(inside, s, n)
        for k in (4, 5):
            assert c_k_star_local(seq, s, k, (0.25, 0.75)) == float(_exact_c_k_star([local] * (k - 1), n))
    assert cases == 4 * (len(inputs) + 6)
