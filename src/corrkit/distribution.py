"""Uniform-distribution diagnostics: empirical distribution, dyadic
density profiles, the density-moment functional, and star discrepancy.

Empirical bucket masses stand in for any limit distribution function;
level r is an explicit parameter and nothing here claims convergence.
Bucket boundaries are the half-open dyadic intervals [i/2^r, (i+1)/2^r),
which partition [0,1) exactly (and are float-exact: scaling by 2^r is
an exact operation on the stored doubles).  Levels stop at _MAX_LEVEL,
so a profile holds at most 2^24 buckets (128 MiB of counts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import GRID, PointSequence, check_order, exact_sum
from .errors import ParameterError

_MAX_LEVEL = 24


@dataclass(frozen=True)
class DyadicProfile:
    level: int
    masses: np.ndarray  # 2^level entries summing to 1


def ecdf(seq: PointSequence, x: float) -> float:
    """(1/N) #{m : x_m <= x} for x in [0,1]."""
    if not (0.0 <= x <= 1.0):
        raise ParameterError("x must be in [0,1]")
    n = len(seq)
    return float(np.searchsorted(seq.sorted_points, x, side="right")) / n


def dyadic_profile(seq: PointSequence, r: int) -> DyadicProfile:
    """Exact bucket masses over the 2^r dyadic intervals."""
    if not (0 <= r <= _MAX_LEVEL):
        raise ParameterError(f"level must be in 0..{_MAX_LEVEL} (at most 2^{_MAX_LEVEL} buckets)")
    n = len(seq)
    buckets = np.floor(seq.points * (1 << r)).astype(np.int64)
    counts = np.bincount(buckets, minlength=1 << r)
    return DyadicProfile(int(r), counts / n)


def density_moment_lower_bound(seq: PointSequence, r: int, k: int) -> float:
    """sum_i 2^(r(k-1)) masses[i]^k: the empirical density k-th moment at
    dyadic level r.  Equals 1 for perfectly uniform masses, 2^(r(k-1))
    for full concentration, and is non-decreasing in r for any fixed
    sequence (refining a bucket can only raise the power mean).
    """
    check_order(k)
    return profile_moment(dyadic_profile(seq, r), k)


def profile_moment(prof: DyadicProfile, k: int) -> float:
    """density_moment_lower_bound read off a profile already built, at its
    level; the caller checks k (check_order) before building it."""
    return float(2.0 ** (prof.level * (k - 1))) * exact_sum(prof.masses**k)


def star_discrepancy(seq: PointSequence) -> float:
    """Exact 1-D star discrepancy max_i max(i/N - x_(i), x_(i) - (i-1)/N)
    from the sorted view, rounded once.  Each float term is within 2^-52 of
    exact, so only those within 2^-50 of the float maximum are compared
    exactly.  On core's 2^-64 grid, exact for x >= 2^-11, a numerator
    i 2^64 - N g or N g - (i-1) 2^64 over N 2^64 lies in [base, base + N 2^16):
    it is base plus its residue mod 2^64, +-N g in wrapping uint64.  The few
    candidates below 2^-11 are Fractions."""
    n, xs, g = len(seq), seq.sorted_points, seq.sorted_grid
    terms = (np.arange(1, n + 1) / n - xs, xs - np.arange(n) / n)
    top = max(float(t.max()) for t in terms)
    base = math.floor((Fraction(top) - Fraction(1, 1 << 49)) * n * GRID)
    best = Fraction(0)
    for sign, t in zip((-1, 1), terms):
        c = np.flatnonzero(t >= top - 2.0**-50)
        small = xs[c] < 2.0**-11
        r = g[c[~small]] * np.uint64(sign * n % GRID) - np.uint64(base % GRID)
        best = max(best, Fraction(base + int(r.max(initial=0)), n * GRID),
                   *(sign * (Fraction(xs[j]) - Fraction(j + (sign < 0), n)) for j in c[small].tolist()))
    return float(best)
