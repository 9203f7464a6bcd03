"""The 1-D window statistics run in blocks of core._WINDOW_BLOCK anchors:
their results must not depend on where the blocks are cut, their windows
must be those two plain searches find, however many passes run, and
their transient memory must not grow with N."""

import tracemalloc

import numpy as np
import pytest

from corrkit import (PointSequence, averaged, c_k_star, c_k_star_local, core, moments,
                     r_k_box, r_k_distinct, r_k_star, sweep_profile, uniform_random)
from corrkit.core import grid_arc, in_arc


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
            monkeypatch.setattr(core, "_WINDOW_BLOCK", block)
            results.append(_results(seq))
        assert results[0] == results[1] == results[2], x
        cases += 1
    assert cases == 40


def _window_cases():
    """(grid, arcs) pairs: the _inputs() sets at scales from a few points
    to N/2 (the whole circle), two arcs at once, the slice of the grid
    c_k_star_local passes (arcs of the full N), one point, and equal
    points a lap apart."""
    for x in [*_inputs(), [0.3], [0.0], [0.5, 0.5, 0.5, 0.5 + 1e-9, 0.5 + 1e-9]]:
        seq = PointSequence(x)
        g, n = seq.sorted_grid, len(seq)
        for s in sorted({0.5, 1.0, 2.5, n / 3, n / 2}):
            yield g, [grid_arc(-s, s, n)]
        yield g, [grid_arc(-1.0, 1.0, n), grid_arc(-n / 2, n / 2, n)]
        a, b = np.searchsorted(seq.sorted_points, (0.25, 1.0))
        if a < b:
            yield g[a:b], [grid_arc(-1.0, 1.0, n), grid_arc(-n / 3, n / 3, n)]


def _unrolled_window(g, arc):
    """core.window(g, g, arc), two plain searches per anchor, as unrolled
    [start, end): start is lo, or lo - N where lo passes the anchor."""
    lo, cnt = core.window(g, g, arc)
    start = lo - np.where(lo > np.arange(g.size), g.size, 0)
    return start, start + cnt


# pass caps: every window searched, one pass, and passes over every window
@pytest.mark.parametrize("cap", [0, 1, 1 << 30])
@pytest.mark.parametrize("block", [1, 7, 1 << 15])
def test_window_passes_match_plain_searches(monkeypatch, cap, block):
    monkeypatch.setattr(core, "_PASS_CAP", cap)
    monkeypatch.setattr(core, "_WINDOW_BLOCK", block)
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


@pytest.mark.parametrize("block", [1, 7, 1 << 15])
def test_windows_of_any_arc_are_its_occupants(monkeypatch, block):
    # arcs on one side of 0, ending at 0, empty, and the whole circle from
    # -2^63: the run [start, end) holds each occupant once, the anchor only
    # where the arc holds 0
    monkeypatch.setattr(core, "_WINDOW_BLOCK", block)
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
# a window pair list for r_k_box about 370 MiB.
# The bounds are those the docstrings state for windows of a few points
# at _WINDOW_BLOCK = 2^15.
@pytest.mark.parametrize("stat, bound_mib", [
    (lambda seq: r_k_distinct(seq, (1.0, 1.0)), 4),
    (lambda seq: r_k_distinct(seq, (1.0, 2.0, 1.0, 2.0)), 4),
    (lambda seq: r_k_star(seq, (1.0, 1.0)), 4),
    (lambda seq: c_k_star(seq, (1.0,)), 8),
    (lambda seq: c_k_star(seq, (2.0, 1.0)), 8),
    (lambda seq: c_k_star_local(seq, 1.0, 3, (0.1, 0.9)), 8),
    (lambda seq: moments(seq, 2.0, 3), 4),
    (lambda seq: r_k_box(seq, ((-4.0, 4.0), (-2.0, 3.0))), 3),
], ids=["r_k_distinct", "r_k_distinct_k5", "r_k_star", "c_k_star", "c_k_star_k3",
        "c_k_star_local", "moments", "r_k_box"])
def test_blocked_statistics_memory_does_not_grow_with_n(stat, bound_mib):
    assert core._WINDOW_BLOCK == 1 << 15
    seq = uniform_random(1 << 20, 7)
    tracemalloc.start()
    try:
        stat(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


def test_overlap_sums_are_the_whole_grid_sums(monkeypatch):
    # one block per anchor against one block in all
    seq = PointSequence(np.random.default_rng(42).random(100))
    g, n = seq.sorted_grid, len(seq)
    whole = np.concatenate(list(averaged._overlap_sums(g, 3.0, n)))
    monkeypatch.setattr(core, "_WINDOW_BLOCK", 1)
    parts = list(averaged._overlap_sums(g, 3.0, n))
    assert len(parts) == n
    assert np.array_equal(np.concatenate(parts), whole)
