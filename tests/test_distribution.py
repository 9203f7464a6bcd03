from fractions import Fraction

import numpy as np
import pytest

from corrkit import (
    ParameterError,
    PointSequence,
    density_moment_lower_bound,
    dyadic_counterexample,
    dyadic_profile,
    ecdf,
    star_discrepancy,
    uniform_random,
    van_der_corput,
)


def test_ecdf_examples():
    seq = PointSequence([0.2, 0.8])
    assert ecdf(seq, 1.0) == 1.0
    assert ecdf(seq, 0.0) == 0.0
    assert ecdf(seq, 0.5) == 0.5
    with pytest.raises(ParameterError):
        ecdf(seq, 1.5)


def test_dyadic_profile_uniform_grid():
    n, r = 64, 3
    seq = PointSequence(np.arange(n) / n)
    prof = dyadic_profile(seq, r)
    assert np.allclose(prof.masses, 1 / 2**r)
    assert prof.masses.sum() == pytest.approx(1.0)


def test_dyadic_profile_concentrated():
    prof = dyadic_profile(PointSequence([0.0, 0.0, 0.0]), 4)
    assert prof.masses[0] == 1.0
    assert prof.masses[1:].sum() == 0.0


def test_dyadic_profile_boundaries_exact():
    # points exactly on dyadic boundaries land in the right-open bucket
    seq = PointSequence([0.0, 0.25, 0.5, 0.75])
    prof = dyadic_profile(seq, 2)
    assert prof.masses.tolist() == [0.25, 0.25, 0.25, 0.25]


def test_density_moment_extremes():
    n, r, k = 256, 3, 3
    uniform_grid = PointSequence(np.arange(n) / n)
    assert density_moment_lower_bound(uniform_grid, r, k) == pytest.approx(1.0)
    concentrated = PointSequence([0.1] * n)
    assert density_moment_lower_bound(concentrated, r, k) == pytest.approx(2 ** (r * (k - 1)))


def test_density_moment_nondecreasing_in_level():
    rng = np.random.default_rng(0)
    for seq in (
        PointSequence(rng.random(4000)),
        dyadic_counterexample(4000),
        PointSequence(rng.random(4000) / 2),
    ):
        vals = [density_moment_lower_bound(seq, r, 2) for r in range(8)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_density_moment_separates_dyadic_from_uniform():
    n = 10**5
    dy = density_moment_lower_bound(dyadic_counterexample(n), 6, 2)
    un = density_moment_lower_bound(uniform_random(n, 1729), 6, 2)
    assert dy > 1.02
    assert 0.9 <= un <= 1.5


def _star_discrepancy_oracle(seq):
    """max_i max(i/N - x_(i), x_(i) - (i-1)/N) over Fractions, rounded once."""
    n, xs = len(seq), seq.sorted_points.tolist()
    return float(max(max(Fraction(i, n) - Fraction(x), Fraction(x) - Fraction(i - 1, n))
                     for i, x in enumerate(xs, 1)))


def test_star_discrepancy_examples():
    n = 50
    optimal = PointSequence((2 * np.arange(1, n + 1) - 1) / (2 * n))
    assert star_discrepancy(optimal) == pytest.approx(1 / (2 * n))
    assert star_discrepancy(PointSequence([0.0, 0.0])) == 1.0
    assert star_discrepancy(uniform_random(10**5, 7)) <= 0.05
    # the float terms gave 4.203613281250629e-05
    assert star_discrepancy(van_der_corput(10**5)) == 4.20361328125e-05
    rng = np.random.default_rng(26)
    sets = [[0.0], [0.5], [1 - 2.0**-53], [5e-324], rng.integers(0, 64, 500) / 64,
            # the maximum is x_(1) = 2e-4 itself, odd on the 2^-65 lattice: off the
            # exact 2^-64 grid, which floors it
            np.concatenate(([2e-4], np.arange(1, 5000) / 5000 + 1e-4))]
    for n in (1, 2, 3, 17, 64, 299):
        sets += [rng.random(n), (np.arange(1, n + 1) * 0.6180339887498949) % 1.0,
                 rng.integers(0, 64, n) / 64, rng.random(n) * 2.0**-20,
                 np.concatenate((rng.random(n) * 2.0**-11, rng.random(n))),
                 (2 * np.arange(1, n + 1) - 1) / (2 * n)]
    # shifted lattices: near-ties, where the float maximum's term is not always the exact one's
    for n in range(2, 80, 3):
        sets += [(np.arange(n) + rng.random()) / n, np.arange(n) / n + rng.random() / n]
    for x in sets:
        seq = PointSequence(x)
        assert star_discrepancy(seq) == _star_discrepancy_oracle(seq), x


def test_half_supported_sample_has_pair_excess():
    from corrkit import r_k_distinct

    half = PointSequence(np.random.default_rng(3).random(10**4) / 2)
    assert r_k_distinct(half, (5.0,)).value >= 1.5 * (2 * 5.0)
