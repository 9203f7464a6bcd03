import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from corrkit import arithmetic, core
from corrkit import (
    BudgetError,
    ConsistencyError,
    IntegerSet,
    ParameterError,
    additive_energy,
    additive_energy_bruteforce,
    additive_energy_range_closed_form,
    dyadic_counterexample,
    integer_range,
    PointSequence,
    exact_frac_parts,
    metric_r3_experiment,
    r_k_distinct,
    random_correlation_stats,
    run_verify,
    three_ap_count,
    three_ap_count_bruteforce,
    trial_rng,
)
from corrkit.arithmetic import MetricExperimentReport
from corrkit.core import grid_arc, in_arc
from corrkit.correlations import _exact_product_sum


def test_energy_examples():
    assert additive_energy([1]) == 1
    assert additive_energy([1, 2, 3]) == 19  # frozen from the O(|A|^4) oracle
    assert additive_energy_bruteforce([1, 2, 3]) == 19


def test_energy_closed_form_range():
    for n in (1, 2, 3, 10, 100, 1000):
        assert additive_energy(integer_range(n)) == additive_energy_range_closed_form(n)
    for n in range(1, 31):
        assert additive_energy_range_closed_form(n) == additive_energy_bruteforce(
            integer_range(n)
        )


def test_three_ap_examples():
    assert three_ap_count([1, 2, 3]) == 2
    assert three_ap_count([1, 2, 4]) == 0
    assert three_ap_count([5]) == 0
    # pair sums of these elements overflow int64
    assert three_ap_count([2**62, 2**62 + 1, 2**62 + 2]) == 2
    assert three_ap_count([1, 2**62, 2**63 - 1]) == 2


def test_brute_agreement_random_sets(monkeypatch):
    rng = np.random.default_rng(0)
    flat_limits = (arithmetic._FLAT_SUM_LIMIT, 0)  # 0 sends every set down the wide path
    for _ in range(20):
        size = int(rng.integers(1, 31))
        a = np.unique(rng.integers(1, 300, size=size)).tolist()
        for b in (a, [x + 2**40 for x in a]):
            energy, aps = additive_energy_bruteforce(b), three_ap_count_bruteforce(b)
            for flat_limit in flat_limits:
                monkeypatch.setattr(arithmetic, "_FLAT_SUM_LIMIT", flat_limit)
                assert additive_energy(b) == energy
                assert three_ap_count(b) == aps


def _force_fft(d):
    return 1 << (2 * int(d[-1])).bit_length()


def _counts(a, monkeypatch, fft_length):
    monkeypatch.setattr(arithmetic, "_fft_length", fft_length)
    return additive_energy(a), three_ap_count(a)


def test_fft_agrees_with_sweep_and_brute_force(monkeypatch):
    rng = np.random.default_rng(10)
    sets = [[7], [3, 4], [5, 9]]  # |A| = 1 and 2, forced onto the FFT
    sets += [np.sort(rng.choice(2 * n + 3, n, replace=False) + 1000).tolist()
             for n in (3, 8, 15, 22, 30) for _ in range(2)]
    for a in sets:
        want = additive_energy_bruteforce(a), three_ap_count_bruteforce(a)
        assert _counts(a, monkeypatch, _force_fft) == want
        assert _counts(a, monkeypatch, lambda d: 0) == want


def test_fft_cost_rule_boundary_and_benchmark_shape(monkeypatch):
    # L = 2^16 at spans 16384..32767, and L log2 L = 2^20 = 1024^2: 1024
    # elements take the FFT, 1023 the sweep
    rng = np.random.default_rng(11)
    inner = rng.choice(np.arange(2, 20001), 1022, replace=False).tolist()
    boundary = sorted(inner + [1, 20001])
    below = boundary[:-2] + [20001]
    shape = np.sort(rng.choice(np.arange(1, 32001), 4000, replace=False)).tolist()
    fft_length = arithmetic._fft_length
    for a, dense in ((boundary, True), (below, False), (shape, True), (list(range(1, 9)), True)):
        d = np.array(a) - a[0]
        assert bool(fft_length(d)) == dense
        assert _counts(a, monkeypatch, _force_fft) == _counts(a, monkeypatch, lambda d: 0)


def test_dense_set_skips_the_pair_sweep(monkeypatch):
    def no_sweep(d):
        raise AssertionError("the pair-sum sweep ran on a dense set")

    monkeypatch.setattr(arithmetic, "_pair_sum_blocks", no_sweep)
    assert additive_energy(integer_range(4000)) == additive_energy_range_closed_form(4000)
    assert three_ap_count(integer_range(4000)) == 2 * 2000 * 1999


@pytest.mark.parametrize("shift, what", [(0.3, "rounding gap 0.3"), (1.0, "sum 65")])
def test_perturbed_fft_raises_consistency_error(monkeypatch, shift, what):
    irfft = np.fft.irfft

    def perturbed(*args, **kwargs):
        out = irfft(*args, **kwargs)
        out[3] += shift
        return out

    monkeypatch.setattr(np.fft, "irfft", perturbed)
    for count in (additive_energy, three_ap_count):
        with pytest.raises(ConsistencyError, match=what):
            count(integer_range(8))  # 64 pair sums plus the shift


def test_fft_memory_is_within_its_stated_bound():
    # about three float64 arrays of L = 2^20 (8 MiB each)
    a = integer_range(2**19)
    d = np.asarray(a.elements) - 1
    assert arithmetic._fft_length(d) == 2**20
    tracemalloc.start()
    try:
        energy = additive_energy(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert energy == additive_energy_range_closed_form(2**19)
    assert peak <= 3 * 8 * 2**20 + 2**20


def test_pair_sweep_holds_one_block():
    # squares take the sweep; its blocks share one buffer and one buffer of
    # table words next to the bit table of d over [0, span], 0.48 MiB (4.21
    # MiB peak with a bool table, 23.8 MiB with an 8 MiB block per step and
    # a table over [0, 2 span])
    squares = [m * m for m in range(1, 2001)]
    tracemalloc.start()
    try:
        aps = three_ap_count(squares)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert aps == 2926
    assert peak <= 1.6 * 2**20


@pytest.mark.parametrize("regime", ["sweep", "wide"])
def test_parity_split_three_aps_match_brute_force(monkeypatch, regime):
    # x + z = 2y pairs only x = z (mod 2): sets of one parity class (after
    # translation by min A), of both, and of one element
    if regime == "sweep":
        monkeypatch.setattr(arithmetic, "_fft_length", lambda d: 0)
    else:
        monkeypatch.setattr(arithmetic, "_FLAT_SUM_LIMIT", 0)
    rng = np.random.default_rng(12)
    mixed = np.unique(rng.integers(1, 400, 40)).tolist()
    sets = {
        "all even": [2 * m for m in range(1, 30)] + [90, 130],
        "all odd": [2 * m + 1 for m in range(3, 40, 2)] + [201],
        "mixed": mixed,
        "one odd among evens": [2, 4, 6, 9, 10, 14],
        "single": [7],
    }
    for base in (0, 2**62, 2**62 + 1):
        for name, a in sets.items():
            b = [base + x for x in a]
            assert three_ap_count(b) == three_ap_count_bruteforce(b), (name, base)
    near = sorted([2**62 + i * 2**57 for i in range(9)] + [2**62 + 3, 2**62 + 2**57 + 5])
    assert three_ap_count(near) == three_ap_count_bruteforce(near)


def test_parity_classes_sweep_half_the_pairs(monkeypatch):
    # the squares of 1..2000 split into 1000 even and 1000 odd ones, and
    # each class forms the sums of its unordered pairs once: the squares
    # of its blocks of 32 rows in both orders, the rest in one order of
    # two, 515904 sums where the ordered pairs are n^2 = 1e6
    seen = []
    blocks = arithmetic._pair_sum_blocks

    def recording(h):
        seen.append([h.size, 0, 0])
        for block, weight in blocks(h):
            seen[-1][1] += block.size
            seen[-1][2] += weight * block.size
            yield block, weight

    monkeypatch.setattr(arithmetic, "_pair_sum_blocks", recording)
    assert three_ap_count([m * m for m in range(1, 2001)]) == 2926
    assert [n for n, _, _ in seen] == [1000, 1000]
    rows = core._BLOCK // 1000
    for n, formed, ordered in seen:
        assert ordered == n * n
        assert n * (n + 1) // 2 <= formed <= n * (n + rows) // 2


def _row_block(n):
    """The rows of one block of _pair_sum_blocks over n elements."""
    return min(n, max(1, core._BLOCK // n))


def _class_sizes():
    """Parity class sizes 0 and 1, and sizes whose last block of rows
    holds rows - 1 rows, all rows, and one row past full blocks, at the
    current core._BLOCK (the first such sizes up to 600)."""
    sizes = {0, 1}
    for last in (-1, 0, 1):
        sizes.add(next(n for n in range(2, 601)
                       if n % _row_block(n) == last % _row_block(n)
                       and (last <= 0 or n > _row_block(n))))
    return sorted(sizes)


def _pair_oracles(a):
    """E(A) and T(A) by enumerating the ordered pairs: the pair-sum
    counts r(sigma), and the pairs x != z whose midpoint is in A."""
    sums = Counter(x + z for x in a for z in a)
    members = set(a)
    aps = sum(1 for x in a for z in a if x != z and (x + z) % 2 == 0 and (x + z) // 2 in members)
    return sum(r * r for r in sums.values()), aps


@pytest.mark.parametrize("block", [1, 7, 1 << 15])
def test_unordered_sweeps_match_the_ordered_pairs(monkeypatch, block):
    # parity classes at sizes where the sweep's last block of rows is short
    # by one, full, or one row past full blocks, next to an empty class
    # and a class of one (translation by min A may swap the two classes):
    # flat and wide 3-AP counts and the flat energy table, against every
    # ordered pair
    monkeypatch.setattr(core, "_BLOCK", block)
    monkeypatch.setattr(arithmetic, "_fft_length", lambda d: 0)
    flat_limit = arithmetic._FLAT_SUM_LIMIT
    rng = np.random.default_rng(29)
    sizes = _class_sizes()
    assert len(sizes) >= 3
    cases = 0
    for n_even in sizes:
        for n_odd in sizes:
            if n_even + n_odd == 0:
                continue
            span = 2 * (n_even + n_odd) + 2  # 2 span <= 4 |A|^2: the flat tables
            evens = 2 * rng.choice(span // 2, n_even, replace=False)
            odds = 2 * rng.choice(span // 2, n_odd, replace=False) + 1
            a = sorted(int(x) + 1000 for x in np.concatenate((evens, odds)))
            energy, aps = _pair_oracles(a)
            for limit in (flat_limit, 0):
                monkeypatch.setattr(arithmetic, "_FLAT_SUM_LIMIT", limit)
                assert three_ap_count(a) == aps, (block, n_even, n_odd, limit)
            monkeypatch.setattr(arithmetic, "_FLAT_SUM_LIMIT", flat_limit)
            assert arithmetic._translated(a)[1]
            assert additive_energy(a) == energy, (block, n_even, n_odd)
            cases += 1
    assert cases == len(sizes) ** 2 - 1


def test_flat_energy_table_is_int32():
    # the squares of 1..2000 take the flat sweep over [0, 8e6]: an int64
    # table took 61 MiB (69 MiB peak), an int32 one takes 30.5 MiB
    squares = [m * m for m in range(1, 2001)]
    tracemalloc.start()
    try:
        energy = additive_energy(squares)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
    d = np.array(squares, dtype=np.uint64)
    counts = np.unique(np.add.outer(d, d), return_counts=True)[1].astype(np.int64)
    assert energy == int(counts @ counts)


def test_sum_of_squares_past_int64(monkeypatch):
    # energy's sum of r^2 is correlations._exact_product_sum([r, r])
    r = np.full(10, 2**31, dtype=np.int64)  # sum r^2 = 10 * 2^62
    assert _exact_product_sum([r, r]) == 10 * 2**62
    r = np.arange(5000, dtype=np.int64)
    assert _exact_product_sum([r, r]) == sum(v * v for v in range(5000))
    r = np.full(3 << 16, 2**31 - 1, dtype=np.int32)  # int32 counts, each square past int32
    assert _exact_product_sum([r, r]) == (3 << 16) * (2**31 - 1) ** 2
    r = np.array([2**32, 3, 2**32 + 1])  # one product past 2^63: Python ints
    assert _exact_product_sum([r, r, r]) == 2**96 + 27 + (2**32 + 1) ** 3
    # rows, one sum per row, at chunks of 7 entries and of less than one row
    rows = np.random.default_rng(5).integers(0, 2**20, (3, 50))
    want = [sum(int(v) ** 3 for v in row) for row in rows]
    for block in (core._BLOCK, 21, 1):
        monkeypatch.setattr(core, "_BLOCK", block)
        assert _exact_product_sum([rows, rows, rows]) == want
        assert _exact_product_sum([rows[0]]) == int(rows[0].sum())
        # 2 products just below 2^62 per chunk at most: edges every 2 entries
        r = np.full(block % 5 + 5, 2**31 - 1, dtype=np.int64)
        assert _exact_product_sum([r, r]) == r.size * (2**31 - 1) ** 2
        # a lone factor of entries up to 2^62 (tent sums), summed as 32-bit halves
        r = np.array([2**62, 2**62 - 1, 2**32, 2**32 - 1, 0] * 7, dtype=np.int64)
        assert _exact_product_sum([r]) == 7 * (2**63 + 2**33 - 2)


def test_energy_diagonal_lower_bound():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = np.unique(rng.integers(1, 10**7, size=25)).tolist()
        assert additive_energy(a) >= len(a) ** 2


def test_energy_large_elements_hash_path():
    a = [10**9 + 1, 10**9 + 5, 10**9 + 9]  # large elements, small span after translation
    assert additive_energy(a) == additive_energy_bruteforce(a)
    for a in ([2**62, 2**62 + 1, 2**62 + 2], [1, 2**40, 2**62, 2**63 - 1]):
        assert additive_energy(a) == additive_energy_bruteforce(a)


def test_sparse_wide_set_skips_the_flat_table():
    # a flat table over [0, 2 span] would be 2^26 entries for 4 pair sums
    a = [1, 2**25]
    for count, want in ((additive_energy, 6), (three_ap_count, 0)):
        tracemalloc.start()
        try:
            got = count(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 2**20


def test_wide_energy_agrees_with_brute_force():
    # random sets whose span takes the sorted-run path, near 2^62 too; the
    # narrow spreads and the progression repeat pair sums off the diagonal
    rng = np.random.default_rng(62)
    for trial in range(60):
        base = (1, 2**62)[trial % 2]
        spread = (2**40, 2**61, 64)[trial % 3]
        a = sorted(set((base + rng.integers(0, spread, int(rng.integers(2, 13)))).tolist()))
        assert additive_energy(a) == additive_energy_bruteforce(a)
    ap = [2**62 + i * 2**57 for i in range(9)]
    assert additive_energy(ap) == additive_energy_bruteforce(ap)


def test_wide_energy_memory_is_the_sorted_pair_sums():
    # 4e6 pair sums sorted in place take 30.5 MiB; a dict entry per
    # distinct sum took ~196 MiB
    a = sorted(set(np.random.default_rng(40).integers(1, 2**40, 2000).tolist()))
    tracemalloc.start()
    try:
        energy = additive_energy(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20
    d = np.array(a, dtype=np.uint64)
    counts = np.unique(np.add.outer(d, d), return_counts=True)[1].astype(np.int64)
    assert energy == int(counts @ counts)


def test_wide_energy_is_charged_to_the_oracle_budget(monkeypatch):
    # 11 elements on the wide path sort 121 pair sums, over a budget of 100
    a = [2**40 + 2**30 * i for i in range(1, 12)]
    monkeypatch.setenv("CORRKIT_ORACLE_BUDGET", "100")
    with pytest.raises(BudgetError, match=r"\|A\|\^2 = 121.*CORRKIT_ORACLE_BUDGET"):
        additive_energy(a)
    assert three_ap_count(a) == three_ap_count_bruteforce(a)  # chunked, not charged
    monkeypatch.setenv("CORRKIT_ORACLE_BUDGET", "121")
    assert additive_energy(a) == additive_energy_bruteforce(a)


def test_integer_set_validation():
    with pytest.raises(ParameterError):
        IntegerSet((3, 2))
    with pytest.raises(ParameterError):
        IntegerSet((0, 1))
    with pytest.raises(ParameterError):
        IntegerSet(())
    for count in (additive_energy, three_ap_count, additive_energy_bruteforce):
        with pytest.raises(ParameterError):
            count([1, 2**63])


def test_dilation_measure_on_the_alpha_lattice():
    # |{alpha : ||d alpha|| <= s/N}| = 2s/N; on the lattice j/M, M = 2^t,
    # d j mod M runs over the multiples of g = gcd(d, M), each g times
    rng = np.random.default_rng(28)
    cases = []
    for _ in range(60):
        d, n, t = int(rng.integers(1, 201)), int(rng.integers(1, 301)), int(rng.integers(4, 13))
        m = 2**t
        cases += [(d, n, float(rng.uniform(0, n / 2)), m),  # random
                  (d, n, n * int(rng.integers(m // 2 + 1)) / m, m),  # arc ends on the lattice
                  (d, n, n / 2, m),  # delta = 1/2: the whole circle
                  # d shares powers of 2 with M, up to d = 5 * 2M
                  (2 ** int(rng.integers(t + 2)) * int(rng.choice([1, 3, 5])), n,
                   n * int(rng.integers(m // 2 + 1)) / m, m)]
    ties = 0
    for d, n, s, m in cases:
        frac = exact_frac_parts([d], np.arange(m) / m)  # one alpha row per j
        got = int(np.count_nonzero(in_arc(core.to_grid(frac), grid_arc(-s, s, n))))
        g, scaled = math.gcd(d, m), Fraction(s) * m / n
        brute = sum(n * min(r, m - r) <= Fraction(s) * m for r in (d * j % m for j in range(m)))
        assert got == brute == g * min(2 * math.floor(scaled / g) + 1, m // g), (d, n, s, m)
        ties += scaled.denominator == 1
    assert ties >= 120
    [check] = [c for c in run_verify().checks if c.name == "dilation_constraint_measure"]
    assert (check.status, check.tolerance) == ("pass", "exact")


def test_metric_experiment_reproducible():
    a = integer_range(64)
    r1 = metric_r3_experiment(a, 0.2, 64, 5, 99)
    r2 = metric_r3_experiment(a, 0.2, 64, 5, 99)
    assert r1 == r2
    assert r1.lower_bound == pytest.approx(2 * 0.2 * three_ap_count(a) / 64**2)


def _metric_by_trial_loop(a, s, n, trials, seed):
    """metric_r3_experiment by the public per-trial calls."""
    head = np.asarray(a.elements if isinstance(a, IntegerSet) else a, dtype=np.int64)[:n]
    vals = np.empty(trials)
    for t in range(trials):
        alpha = float(trial_rng(seed, t).random())
        vals[t] = r_k_distinct(PointSequence(exact_frac_parts(head, alpha)), (s, s)).value
    var = float(vals.var(ddof=1)) if trials > 1 else 0.0
    return MetricExperimentReport(float(s), n, trials, seed, float(vals.mean()), var,
                                  2.0 * s * three_ap_count(head) / n**2,
                                  float(np.mean(vals > 4.0 * s * s)))


@pytest.mark.parametrize("a, s, n, trials", [
    (integer_range(512), 0.5, 512, 200),      # 102400 points: several chunks
    (integer_range(512), 0.5, 512, 1),
    ([m * 2**60 for m in range(1, 8)], 1.0, 7, 30),   # every point at 0
    ([m * 2**60 for m in range(1, 8)], 3.5, 7, 30),   # ... in the whole-circle window
    ([m * m for m in range(1, 301)], 150.0, 300, 40),  # the widest arc, s = N/2
])
def test_batched_metric_experiment_is_the_per_trial_loop(a, s, n, trials):
    got = metric_r3_experiment(a, s, n, trials, 1729)
    assert got == _metric_by_trial_loop(a, s, n, trials, 1729)
    if trials == 200:
        assert n * trials > 2 * core._BLOCK


def test_metric_experiment_chunk_edges(monkeypatch):
    # chunks of 3 rows with a partial last chunk, and of less than one row
    a = [m * m for m in range(1, 101)]
    want = _metric_by_trial_loop(a, 0.7, 100, 10, 5)
    for chunk in (300, 1):
        monkeypatch.setattr(core, "_BLOCK", chunk)
        assert metric_r3_experiment(a, 0.7, 100, 10, 5) == want


def test_metric_experiment_memory_is_one_chunk():
    # chunks of 16 rows of 2000 points, about 40 bytes a point, and the
    # 3-AP count's bit table before them (4.22 MiB with the bool table);
    # the first call imports numpy.random, which is not the experiment's
    squares = [m * m for m in range(1, 2001)]
    metric_r3_experiment(squares, 0.5, 2000, 1, 2901)
    tracemalloc.start()
    try:
        rep = metric_r3_experiment(squares, 0.5, 2000, 200, 2901)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.lower_bound == 2 * 0.5 * 2926 / 2000**2
    assert peak <= 2.4 * 2**20


def _trial_rows(rng, rows, n, arc, count=7):
    """count sorted grid rows of n points of one kind."""
    if rows == "lattice":  # grid points R apart, with repeats, across the wrap: ties at both ends
        steps = rng.integers(0, 8, (count, n)).astype(np.uint64) - np.uint64(3)  # wraps below 0
        return np.sort(steps * np.uint64(arc[1]), axis=1)
    if rows == "random":
        pts = rng.random((count, n))
    elif rows == "clustered":  # ties and runs of equal points across the wrap
        pts = (rng.integers(0, 6, (count, n)) / 6 + rng.choice([0.0, 0.999], (count, 1))) % 1.0
    else:
        pts = np.zeros((count, n))
    return np.stack([PointSequence(row).sorted_grid for row in pts])


def _windows(grid, arc):
    """start, end of every anchor of a grid or of a stack, the blocks joined;
    a block holds at most core._BLOCK entries, or one position."""
    wins = [w for _, [w] in core.self_window_blocks(grid, [arc])]
    assert all(w[0].size <= max(core._BLOCK, grid[0].size) for w in wins)
    return np.concatenate([w[0] for w in wins]), np.concatenate([w[1] for w in wins])


def _assert_trial_window_counts(grid, arc, columns=True):
    # the rows side by side, one grid per column, as the trials hand them
    # over: z = end - start are the pairwise arc counts, and each column's
    # windows are the ones the grid has on its own
    start, end = _windows(np.ascontiguousarray(grid.T), arc)
    assert start.shape == end.shape == grid.T.shape
    for r, g in enumerate(grid):
        want = np.count_nonzero(in_arc(g[None, :] - g[:, None], arc), axis=1)
        assert np.array_equal(end[:, r] - start[:, r], want), (r, arc)
        if columns:
            one = _windows(g, arc)
            assert np.array_equal(start[:, r], one[0]) and np.array_equal(end[:, r], one[1])


@pytest.mark.parametrize("rows", ["random", "clustered", "coinciding", "lattice"])
@pytest.mark.parametrize("s", [1e-6, 0.5, 3.0, 12.0, 25.0])
def test_trial_window_counts_are_the_pairwise_arc_counts(rows, s):
    # rows of n = 50, and of n <= 9, where the passes stop after n - 1 and
    # equal points lie a lap apart; a scale past n/2 is taken as n/2, the
    # whole circle (s = 25 at n = 50).  s = 3 and 12 at n = 50 hold 2 or
    # more points a side on average: no passes, one search of the ends
    # per row and the starts read off them.  An arc that is not symmetric
    # is searched grid by grid
    rng = np.random.default_rng(50)
    for n in (1, 2, 5, 8, 9, 50):
        h = min(s, n / 2)
        arc = grid_arc(-h, h, n)
        grid = _trial_rows(rng, rows, n, arc)
        _assert_trial_window_counts(grid, arc)
        _assert_trial_window_counts(grid, grid_arc(-h, h / 3, n))


@pytest.mark.parametrize("count", [1, 7])
def test_trial_window_counts_in_blocks_of_a_row(monkeypatch, count):
    # blocks of 16 points: one row of 50 in blocks of 16 anchors, and 7
    # rows in blocks of 2 anchors each, with their wrapping offsets
    monkeypatch.setattr(core, "_BLOCK", 16)
    rng = np.random.default_rng(51)
    for rows in ("random", "clustered", "lattice"):
        for s in (0.5, 3.0, 12.0, 25.0):
            arc = grid_arc(-s, s, 50)
            grid = _trial_rows(rng, rows, 50, arc, count)
            _assert_trial_window_counts(grid, arc)
            _assert_trial_window_counts(grid, grid_arc(-s, s / 3, 50))


def test_trial_windows_of_random_rows_take_no_search(monkeypatch):
    # at s = 0.5 a window holds about two points: the passes close them all
    def no_search(*args):
        raise AssertionError("a window was searched")

    for search in ("_unrolled_search", "_starts_off_ends"):
        monkeypatch.setattr(core, search, no_search)
    rng = np.random.default_rng(52)
    for n, count in ((50, 7), (2000, 16)):
        arc = grid_arc(-0.5, 0.5, n)
        _assert_trial_window_counts(_trial_rows(rng, "random", n, arc, count), arc, columns=False)


def test_wide_trial_windows_take_no_passes(monkeypatch):
    # windows of 2 or more points a side on average: no passes and no
    # search per anchor, one search of the ends per trial
    def refused(*args):
        raise AssertionError("a pass ran")

    real, searched = core._unrolled_search, []

    def spy(rows, keys, off, side):  # the keys of every anchor: the ends of the whole grids
        searched.append((rows.shape, keys.shape, side))
        return real(rows, keys, off, side)

    monkeypatch.setattr(core, "_offset_gaps", refused)
    monkeypatch.setattr(core, "_unrolled_search", spy)
    rng = np.random.default_rng(53)
    for n, count, s in ((50, 7, 2.5), (500, 20, 20.0), (1000, 16, 8.0)):
        arc = grid_arc(-s, s, n)
        _assert_trial_window_counts(_trial_rows(rng, "random", n, arc, count), arc, columns=False)
    assert searched == [(shape, shape, "right") for shape in ((7, 50), (20, 500), (16, 1000))]


def test_metric_experiment_validation(monkeypatch):
    monkeypatch.delenv("CORRKIT_ORACLE_BUDGET", raising=False)  # the default budget, 1e8
    a = integer_range(32)
    with pytest.raises(ParameterError):
        metric_r3_experiment(a, 0.1, 64, 5, 0)
    with pytest.raises(ParameterError):
        metric_r3_experiment(a, 20.0, 32, 5, 0)
    with pytest.raises(BudgetError):
        metric_r3_experiment(integer_range(10**4), 0.1, 10**4, 10**5, 0)


def test_experiments_name_the_half_lap_before_any_trial(monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(arithmetic, "trial_rng", no_trials)
    with pytest.raises(ParameterError, match=r"^scale 20.0 > N/2 = 16.0: constraint arc wraps$"):
        metric_r3_experiment(integer_range(32), 20.0, 32, 5, 0)
    with pytest.raises(ParameterError, match=r"^box bound beyond N/2 = 8.0$"):
        random_correlation_stats(3, ((0.0, 1.0), (-9.0, 2.0)), 16, 4, 0)


@pytest.mark.parametrize("n", [0, -3])
def test_experiments_name_a_sequence_length_below_one(monkeypatch, n):
    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(arithmetic, "trial_rng", no_trials)
    message = rf"^N must be >= 1, got N = {n}$"
    with pytest.raises(ParameterError, match=message):
        metric_r3_experiment(integer_range(32), 0.5, n, 5, 0)
    with pytest.raises(ParameterError, match=message):
        random_correlation_stats(2, ((0.0, 1.0),), n, 3, 0)


def test_experiments_are_charged_to_the_oracle_budget(monkeypatch):
    monkeypatch.setenv("CORRKIT_ORACLE_BUDGET", "100")
    with pytest.raises(BudgetError, match=r"N \* trials = 200 .*CORRKIT_ORACLE_BUDGET"):
        metric_r3_experiment(integer_range(50), 0.5, 50, 4, 0)
    with pytest.raises(BudgetError, match=r"N \* trials = 200 .*CORRKIT_ORACLE_BUDGET"):
        random_correlation_stats(2, ((0.0, 1.0),), 50, 4, 0)
    monkeypatch.setenv("CORRKIT_ORACLE_BUDGET", "200")  # the budget itself is allowed
    assert metric_r3_experiment(integer_range(50), 0.5, 50, 4, 0).trials == 4
    assert len(random_correlation_stats(2, ((0.0, 1.0),), 50, 4, 0)) == 2


def test_metric_experiment_mean_respects_ap_bound():
    rep = metric_r3_experiment(integer_range(256), 0.1, 256, 120, 7)
    se = math.sqrt(rep.variance / rep.trials)
    assert rep.mean >= 0.9 * rep.lower_bound - 3 * se


def test_metric_experiment_vanishing_scale():
    # empty constraint region: generic dilations have no coincidences
    rep = metric_r3_experiment(integer_range(128), 1e-9, 128, 10, 21)
    assert rep.mean == 0.0


def test_metric_experiment_single_trial():
    rep = metric_r3_experiment(integer_range(64), 0.3, 64, 1, 5)
    again = metric_r3_experiment(integer_range(64), 0.3, 64, 1, 5)
    assert rep == again
    assert rep.variance == 0.0


def test_random_correlation_stats_mean_near_box_volume():
    mean, var = random_correlation_stats(2, ((0.0, 1.0),), 2000, 60, 17)
    se = math.sqrt(var / 60)
    assert abs(mean - 1.0) <= 5 * se
    mean2, _ = random_correlation_stats(2, ((-0.5, 0.5),), 2000, 60, 18)
    assert abs(mean2 - 1.0) <= 0.2


def test_random_correlation_stats_validation():
    with pytest.raises(ParameterError):
        random_correlation_stats(2, ((0.0, 1.0),), 100, 1, 0)
    with pytest.raises(ParameterError):
        random_correlation_stats(3, ((0.0, 1.0),), 100, 4, 0)


def test_dyadic_triple_far_from_poisson_target():
    s = 1.5
    for m in range(2, 15):
        seq = dyadic_counterexample(2**m)
        r3 = r_k_distinct(seq, (s, s)).value
        assert abs(r3 - (2 * s) ** 2) > 1.0
        assert r3 == 0.0
