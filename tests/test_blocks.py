"""Every bounded pass runs in blocks of core._BLOCK elements, the 1-D
window statistics in blocks of that many anchors: their results must
not depend on where the blocks are cut, their windows must be those two
plain searches find, however many passes run, and their transient
memory must not grow with N."""

import bisect
import tracemalloc

import numpy as np
import pytest

from corrkit import (PointSequence, additive_energy, averaged, c_k_star, c_k_star_local, core,
                     g_eval, metric_r3_experiment, moments, r_k_box, r_k_consecutive, r_k_distinct,
                     r_k_star, r_k_testfn, read_points, sweep_profile, three_ap_count,
                     uniform_random, write_points)
from corrkit.core import GRID, exact_sum, grid_arc, in_arc


def _inputs():
    # the lattice points (j + shift)/N of the tie tests, the same sites
    # taken twice each, clusters whose windows span many blocks of 7, and
    # points on both sides of 0, so that the first and last blocks' windows
    # and unrolled slices reach across it
    for n in (2, 3, 5, 8, 13, 21, 34, 40):
        for shift in (0.0, 0.5, 0.25):
            yield np.array([(j + shift) / n for j in range(n)]) % 1.0
            if n % 2 == 0:
                yield np.repeat(np.array([(j + shift) / (n // 2) for j in range(n // 2)]) % 1.0, 2)
    rng = np.random.default_rng(41)
    yield 0.4 + rng.random(60) * 1e-3
    yield np.concatenate((0.2 + rng.random(30) * 1e-4, 0.7 + rng.random(30) * 1e-4))
    yield (rng.random(50) * 0.02 - 0.01) % 1.0
    yield np.concatenate(((rng.random(25) * 0.004 - 0.002) % 1.0, rng.random(25)))


def _tilted_tent(s):
    # a tent times a weight that tells the columns and their signs apart
    return lambda ys: np.prod(np.maximum(s - np.abs(ys), 0.0), axis=1) * (2.0 + ys[:, 0] / s)


def _results(seq):
    n = len(seq)
    out = []
    for s in sorted({1.0, n / 2}):
        out += [r_k_distinct(seq, (s,)).raw_count, r_k_distinct(seq, (s, 1.0)).raw_count,
                r_k_star(seq, (s, s)).raw_count,
                c_k_star(seq, (s,)).hex(), c_k_star(seq, (s, 1.0)).hex(),
                c_k_star_local(seq, s, 3, (0.0, 0.5)).hex(),
                c_k_star_local(seq, s, 2, (0.25, 1.0)).hex(),
                # slot arcs that hold 0 or not, and the whole circle at s = N/2
                r_k_box(seq, ((-s, 0.5 * s), (0.25 * s, s), (-s, s))).raw_count]
        # the weighted sums' rows go in slices of a block too, at blocks of
        # one an f call each: at k = 3 where the rows are few, sum_i z_i^2,
        # else at k = 2, at most N^2 rows, cut at the same window blocks
        k = 3 if r_k_star(seq, (s, s)).raw_count <= 3000 else 2
        out += [k, r_k_testfn(seq, _tilted_tent(s), s, k).value.hex(),
                r_k_consecutive(seq, _tilted_tent(s), s, k).value.hex()]
    for s in sorted({1.0, n / 2, float(n)}):
        rep = moments(seq, s, 3)
        prof = sweep_profile(seq, s)
        out += [rep.i_k.hex(), rep.i_k_star.hex(), prof.breakpoints.tolist(), prof.values.tolist()]
    return out


def test_block_boundaries_do_not_change_results(monkeypatch):
    _check_block_boundaries(monkeypatch)


def test_block_boundaries_do_not_change_results_with_searches_only(monkeypatch):
    monkeypatch.setattr(core, "_PASS_CAP", 0)
    _check_block_boundaries(monkeypatch)


def _check_block_boundaries(monkeypatch):
    cases = 0
    for x in _inputs():
        seq = PointSequence(x)
        results = []
        for block in (1, 7, len(seq)):
            monkeypatch.setattr(core, "_BLOCK", block)
            results.append(_results(seq))
        assert results[0] == results[1] == results[2], x
        cases += 1
    assert cases == 40


def _dense_cluster():
    # 700 points within 1e-6 and 20 far apart: one block's windows close
    # one anchor at a time over 699 offsets, so the passes count past a byte
    rng = np.random.default_rng(43)
    return np.concatenate((0.4 + rng.random(700) * 1e-6, rng.random(20)))


def _window_cases():
    """(grid, arcs) pairs: the _inputs() sets at scales from a few points
    to N/2 (the whole circle), two arcs at once, the slice of the grid
    c_k_star_local passes (arcs of the full N), one point, equal points a
    lap apart, and a cluster whose windows take more passes than a byte
    counts."""
    for x in [*_inputs(), [0.3], [0.0], [0.5, 0.5, 0.5, 0.5 + 1e-9, 0.5 + 1e-9],
              _dense_cluster()]:
        seq = PointSequence(x)
        g, n = seq.sorted_grid, len(seq)
        for s in sorted({0.5, 1.0, 2.5, n / 3, n / 2}):
            yield g, [grid_arc(-s, s, n)]
        yield g, [grid_arc(-1.0, 1.0, n), grid_arc(-n / 2, n / 2, n)]
        a, b = np.searchsorted(seq.sorted_points, (0.25, 1.0))
        if a < b:
            yield g[a:b], [grid_arc(-1.0, 1.0, n), grid_arc(-n / 3, n / 3, n)]


def _unrolled_window(g, arc):
    """Every anchor's [start, end) from two plain searches, one of each
    arc end: lo is the first occupant's position, cnt the occupants (N
    for the whole circle, plus N where the arc wraps past 0), and start
    is lo, or lo - N where lo passes the anchor."""
    n = g.size
    first = g + np.uint64(arc[0] % GRID)
    lo = np.searchsorted(g, first, side="left")
    if arc[1] - arc[0] >= GRID - 1:
        cnt = n
    else:
        last = first + np.uint64(arc[1] - arc[0])
        cnt = np.searchsorted(g, last, side="right") - lo
        cnt[last < first] += n
    start = lo - np.where(lo > np.arange(n), n, 0)
    return start, start + cnt


# pass caps: every window searched, one pass, and passes over every window
@pytest.mark.parametrize("cap", [0, 1, 1 << 30])
@pytest.mark.parametrize("block", [1, 7, 1 << 15])
def test_window_passes_match_plain_searches(monkeypatch, cap, block):
    monkeypatch.setattr(core, "_PASS_CAP", cap)
    monkeypatch.setattr(core, "_BLOCK", block)
    cases = 0
    for g, arcs in _window_cases():
        wins = [w for _, ws in core.self_window_blocks(g, arcs) for w in ws]
        for a, arc in enumerate(arcs):
            start, end = _unrolled_window(g, arc)
            got = wins[a::len(arcs)]
            assert np.array_equal(np.concatenate([st for st, _ in got]), start), (g, arc)
            assert np.array_equal(np.concatenate([en for _, en in got]), end), (g, arc)
        cases += 1
    assert cases > 250


def test_window_passes_count_past_a_byte(monkeypatch):
    monkeypatch.setattr(core, "_PASS_CAP", 1 << 30)
    real, passes = core._window_passes, []

    def spy(grid, b, size, cap, r):
        out = real(grid, b, size, cap, r)
        passes.append(int(out[0].max()))  # the passes that moved some end
        return out

    monkeypatch.setattr(core, "_window_passes", spy)
    g = PointSequence(_dense_cluster()).sorted_grid
    arc = grid_arc(-0.5, 0.5, g.size)
    [(_, [(start, end)])] = core.self_window_blocks(g, [arc])
    assert max(passes) > 255
    want = _unrolled_window(g, arc)
    assert np.array_equal(start, want[0]) and np.array_equal(end, want[1])


def test_wide_windows_of_one_block_take_no_passes(monkeypatch):
    # a grid in one block whose windows hold 2 or more points a side on
    # average takes no passes and no search per anchor: one search of the
    # ends, and every start read off them
    real_search, real_read, searches, reads = core._unrolled_search, core._starts_off_ends, [], []
    real_passes = core._window_passes

    def passes(rows, b, size, cap, r):
        assert not cap, "a pass ran"
        return real_passes(rows, b, size, cap, r)

    def search(rows, keys, off, side):  # the keys of every anchor: the ends of the whole grid
        searches.append((rows.shape, keys.shape, side))
        return real_search(rows, keys, off, side)

    def read(end, start):
        reads.append(end.size)
        real_read(end, start)

    monkeypatch.setattr(core, "_window_passes", passes)
    monkeypatch.setattr(core, "_unrolled_search", search)
    monkeypatch.setattr(core, "_starts_off_ends", read)
    cases = 0
    for x in _inputs():
        g, n = PointSequence(x).sorted_grid, len(x)
        for s in {2.5, n / 3}:
            if 2.5 <= s < n / 2:
                arc = grid_arc(-s, s, n)
                searches.clear()
                [(_, [(start, end)])] = core.self_window_blocks(g, [arc])
                assert searches == [((1, n), (1, n), "right")], (x, s)
                want = _unrolled_window(g, arc)
                assert np.array_equal(start, want[0]) and np.array_equal(end, want[1]), (x, s)
                cases += 1
    assert len(reads) == cases > 40


@pytest.mark.parametrize("block", [1, 7, 1 << 15])
def test_windows_of_any_arc_are_its_occupants(monkeypatch, block):
    # arcs on one side of 0, ending at 0, empty, and the whole circle from
    # -2^63: the run [start, end) holds each occupant once, the anchor only
    # where the arc holds 0
    monkeypatch.setattr(core, "_BLOCK", block)
    for x in _inputs():
        g, n = PointSequence(x).sorted_grid, len(x)
        arcs = [grid_arc(0.25, 1.0, n), grid_arc(-2.5, -0.5, n), grid_arc(-1.0, 0.0, n),
                grid_arc(0.5, float(np.nextafter(0.5, 1.0)), n), (-2**63, 2**63 - 1)]
        wins = [w for _, ws in core.self_window_blocks(g, arcs) for w in ws]
        for a, arc in enumerate(arcs):
            start = np.concatenate([st for st, _ in wins[a::len(arcs)]])
            end = np.concatenate([en for _, en in wins[a::len(arcs)]])
            for i in range(n):
                occupants = np.flatnonzero(in_arc(g - g[i], arc))
                assert sorted(np.arange(start[i], end[i]) % n) == occupants.tolist(), (x, arc)


# pass caps: every window searched, one pass, the default, and passes
# over every window
@pytest.mark.parametrize("cap", [0, 1, 8, 1 << 30])
@pytest.mark.parametrize("block", [1, 7, 1 << 15])
def test_symmetric_arcs_past_half_a_lap_are_unrolled_windows(monkeypatch, cap, block):
    # (-r, r) with 2^63 <= r < 2^64 (F's windows of radius 2R for s > N/2)
    # is [g_i - r, g_i + r] unrolled, longer than the circle: the
    # positions p whose U_p lie in it, counted in Python ints over laps
    # -1, 0 and 1, which hold [g_i - r, g_i + r], a point twice where it
    # lies within r of the anchor both ways (lattices of even N put points
    # exactly 2^63 off, the repeated sets equal points a lap apart)
    monkeypatch.setattr(core, "_PASS_CAP", cap)
    monkeypatch.setattr(core, "_BLOCK", block)
    longer = 0
    for x in _inputs():
        g = PointSequence(x).sorted_grid
        n, gs = g.size, [int(v) for v in g]
        radii = [2**63, 2**63 + 1, 2 * grid_arc(-0.375 * n, 0.375 * n, n)[1], 2**64 - 2]
        laps = [v + lap * core.GRID for lap in range(-1, 2) for v in gs]  # U_p at p + N
        wins = [w for _, ws in core.self_window_blocks(g, [(-r, r) for r in radii]) for w in ws]
        for a, r in enumerate(radii):
            start = np.concatenate([st for st, _ in wins[a::len(radii)]])
            end = np.concatenate([en for _, en in wins[a::len(radii)]])
            for i in range(n):
                lo = bisect.bisect_left(laps, gs[i] - r) - n
                hi = bisect.bisect_right(laps, gs[i] + r) - n
                assert (start[i], end[i]) == (lo, hi), (x, r, i)
                longer += hi - lo > n
    assert longer > 0


def test_sweep_profile_peak_is_its_output_and_one_block():
    seq = uniform_random(1 << 20, 7)
    tracemalloc.start()
    try:
        prof = sweep_profile(seq, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = prof.breakpoints.nbytes + prof.values.nbytes
    assert out == 32 * 2**20
    assert peak < out + 4 * 2**20


# N = 2^20 points, where full-length temporaries would take 47 MiB for
# r_k_distinct and r_k_star, 84 MiB for c_k_star, 80 MiB for moments and
# a window pair list about 370 MiB for r_k_box and 100 MiB for the
# weighted sums.  The bounds are those the docstrings state for windows
# of a few points at _BLOCK = 2^15; the weighted sums hold 16 bytes
# per point besides, their window runs.
@pytest.mark.parametrize("stat, bound_mib", [
    (lambda seq: r_k_distinct(seq, (1.0, 1.0)), 1),
    (lambda seq: r_k_distinct(seq, (1.0, 2.0, 1.0, 2.0)), 2.1),
    (lambda seq: r_k_star(seq, (1.0, 1.0)), 1),
    (lambda seq: c_k_star(seq, (1.0,)), 8),
    (lambda seq: c_k_star(seq, (2.0, 1.0)), 8),
    (lambda seq: c_k_star_local(seq, 1.0, 3, (0.1, 0.9)), 8),
    (lambda seq: moments(seq, 2.0, 3), 4),
    (lambda seq: r_k_box(seq, ((-4.0, 4.0), (-2.0, 3.0))), 3),
    (lambda seq: r_k_testfn(seq, lambda ys: g_eval(3, 1.0, ys), 1.0, 3), 16 + 10),
    (lambda seq: r_k_consecutive(seq, lambda ys: g_eval(3, 1.0, ys), 1.0, 3), 16 + 10),
], ids=["r_k_distinct", "r_k_distinct_k5", "r_k_star", "c_k_star", "c_k_star_k3",
        "c_k_star_local", "moments", "r_k_box", "r_k_testfn", "r_k_consecutive"])
def test_blocked_statistics_memory_does_not_grow_with_n(stat, bound_mib):
    assert core._BLOCK == 1 << 15
    seq = uniform_random(1 << 20, 7)
    tracemalloc.start()
    try:
        stat(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


@pytest.mark.parametrize("s", [4e5, 2.0**20])
def test_c_k_star_wide_window_peak_is_a_block(s):
    # windows of 8e5 points and the whole circle: the first block's runs
    # start at its own cursors, so no block's prefix sums span a window
    assert core._BLOCK == 1 << 15
    seq = uniform_random(1 << 20, 7)
    tracemalloc.start()
    try:
        c_k_star(seq, (s,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.6 * 2**20  # averaged's docstring


@pytest.mark.parametrize("s, bound_mib", [(1.0, 2.6), (1000.0, 3.2)])
def test_c_k_star_peak_on_one_and_two_limbs(s, bound_mib):
    # windows of a few points, every block on one uint64 limb, and of
    # about 2000 points, every block on two 32-bit limbs
    assert core._BLOCK == 1 << 15
    seq = uniform_random(1 << 20, 7)
    tracemalloc.start()
    try:
        c_k_star(seq, (s,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20  # averaged's docstring


def test_c_k_star_local_peak_holds_one_block():
    # each block's overlap sums go before the next block's are summed:
    # holding the last one too peaks at 2.5 MiB
    assert core._BLOCK == 1 << 15
    seq = uniform_random(1 << 20, 7)
    tracemalloc.start()
    try:
        c_k_star_local(seq, 1.0, 3, (0.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.4 * 2**20


def test_c_k_star_takes_both_prefix_layouts(monkeypatch):
    # a block's runs of starts, anchors and ends overlap where the windows
    # are narrower than the block (one prefix sum per limb over their union)
    # and not where they are wider (one per run); its sums take one wrapping
    # uint64 limb where (max cnt - 1) R < 2^64 and two 32-bit limbs where
    # not: every pairing is taken, with the same bits at every block size
    real_blocks, real_prefix = averaged._block_distances, averaged._prefix
    taken, prefixes = set(), []

    def counting_prefix(x):
        prefixes.append(x.size)
        return real_prefix(x)

    def spy(*args):
        prefixes.clear()
        out = real_blocks(*args)
        limbs = len(args[-1])
        runs, rest = divmod(len(prefixes), limbs)
        assert rest == 0 and runs in (1, 3)
        taken.add(("merged" if runs == 1 else "three runs", limbs))
        return out

    monkeypatch.setattr(averaged, "_prefix", counting_prefix)
    monkeypatch.setattr(averaged, "_block_distances", spy)
    for x in _inputs():
        seq = PointSequence(x)
        n = len(seq)
        results = []
        for block in (1, 7, n):
            monkeypatch.setattr(core, "_BLOCK", block)
            results.append([c_k_star(seq, (s,)).hex() for s in sorted({0.5, 1.0, n / 2, float(n)})])
        assert results[0] == results[1] == results[2], x
    assert taken == {("merged", 1), ("merged", 2), ("three runs", 1), ("three runs", 2)}


def test_overlap_sums_are_the_whole_grid_sums(monkeypatch):
    # one block per anchor against one block in all
    seq = PointSequence(np.random.default_rng(42).random(100))
    g, n = seq.sorted_grid, len(seq)
    whole = np.concatenate(list(averaged._overlap_sums(g, 3.0, n)))
    monkeypatch.setattr(core, "_BLOCK", 1)
    parts = list(averaged._overlap_sums(g, 3.0, n))
    assert len(parts) == n
    assert np.array_equal(np.concatenate(parts), whole)


def _every_blocked_pass(path):
    """The results of each pass that runs in blocks of core._BLOCK, as
    exact ints, hex, lists and bytes."""
    rng = np.random.default_rng(25)
    # a cluster whose windows span many small blocks, and 30 points spread out
    seq = PointSequence(np.concatenate((0.4 + rng.random(30) * 1e-3, rng.random(30))))
    lattice = PointSequence(np.repeat(np.arange(20) / 20, 2))  # equal endpoints merge
    squares = [m * m for m in range(1, 101)]  # the flat pair-sum sweep
    wide = [m * 2**34 + 7 for m in range(1, 41)]  # a progression past the flat tables
    out = [r_k_distinct(seq, (1.0, 2.0)).raw_count, r_k_star(seq, (1.0, 2.0)).raw_count,
           r_k_box(seq, ((-1.0, 2.0), (0.5, 3.0))).raw_count,
           c_k_star(seq, (1.0,)).hex(), c_k_star(seq, (2.0, 20.0)).hex(),
           c_k_star_local(seq, 1.0, 3, (0.25, 0.75)).hex(),
           r_k_testfn(seq, _tilted_tent(2.0), 2.0, 3).value.hex(),
           r_k_consecutive(seq, _tilted_tent(2.0), 2.0, 3).value.hex(),
           exact_sum(np.ldexp(rng.standard_normal(200), rng.integers(-60, 60, 200))).hex(),
           additive_energy(squares), three_ap_count(squares),
           additive_energy(wide), three_ap_count(wide),
           metric_r3_experiment(squares, 0.7, 100, 10, 5)]
    for pts in (seq, lattice):
        for s in (2.0, 20.0):
            rep, prof = moments(pts, s, 3), sweep_profile(pts, s)
            out += [rep.i_k.hex(), rep.i_k_star.hex(), prof.breakpoints.tolist(), prof.values.tolist()]
    # points that go to repr (0, below 1e-4, powers of two) among the blocked digits
    write_points(path, PointSequence([0.0, 3e-7, 0.5, *rng.random(20).tolist(), 2.0**-3]))
    return out + [path.read_bytes(), read_points(path).points.tobytes()]


def test_tiny_blocks_give_the_default_results(tmp_path, monkeypatch):
    # blocks of 5 cut every pass many times: anchors, join rows and their
    # anchors, extraction terms, pair sums, trial rows and lines
    want = _every_blocked_pass(tmp_path / "default.txt")
    monkeypatch.setattr(core, "_BLOCK", 5)
    assert _every_blocked_pass(tmp_path / "tiny.txt") == want
