"""The identity/inequality verification harness behind ``corrkit verify``.

Every invariant from the library modules appears exactly once in the
catalog below.  Checks are either pass/fail (exact identities, proved
inequalities, oracle agreements) or report-only (finite-N trends whose
asymptotic statements cannot fail a finite run).

Tiers: "quick" covers the exact identities and small oracles; "full"
adds the N = 1e5 statistical checks.  Every check derives its own PCG64
stream from (seed, catalog index), so a report is reproducible given
the seed regardless of which tier ran.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from . import arithmetic, averaged, correlations, distribution, intervalstats, seqgen
from .core import (
    GRID,
    PointSequence,
    falling_factorial,
    grid_arc,
    in_arc,
    order_comparison_threshold,
    signed_distance,
    stirling_first_unsigned,
    stirling_second,
    to_grid,
)
from .seqgen import trial_rng

DEFAULT_SEED = 1729

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    statement: str
    status: str  # "pass" | "fail" | "report"
    measured: str
    target: str
    tolerance: str


@dataclass
class VerifyReport:
    tier: str
    seed: int
    checks: list = field(default_factory=list)

    @property
    def failed(self) -> list:
        return [c for c in self.checks if c.status == "fail"]

    @property
    def ok(self) -> bool:
        return not self.failed

    def to_dict(self) -> dict:
        return {
            "schema": "corrkit/1",
            "kind": "verify",
            "tier": self.tier,
            "seed": self.seed,
            "ok": self.ok,
            "checks": [asdict(c) for c in self.checks],
        }


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _result(name, statement, ok, measured, target, tol, report_only=False):
    # trend checks never fail the run; their values are on record
    status = "report" if report_only else ("pass" if ok else "fail")
    return CheckResult(name, statement, status, _fmt(measured), _fmt(target), _fmt(tol))


# ---------------------------------------------------------------------------
# core


def _chk_grid_offset_exact(rng, tier):
    # the int64 grid offset of a pair, the one the weighted sums' test
    # functions read, against Fractions: a tenth of the x lie below 2^-11,
    # where to_grid floors instead of being exact
    xs, ys = rng.random(10**4), rng.random(10**4)
    xs[::10] *= 2.0**-11
    got = (to_grid(xs) - to_grid(ys)).view(np.int64).tolist()
    half = GRID // 2
    bad = sum(d != (math.floor(Fraction(x) * GRID) - math.floor(Fraction(y) * GRID) + half) % GRID - half
              for x, y, d in zip(xs.tolist(), ys.tolist(), got))
    return _result("grid_offset_exact",
                   "the int64 view of to_grid(x) - to_grid(y) is floor(x 2^64) - floor(y 2^64) "
                   "wrapped into [-2^63, 2^63) on 1e4 random pairs, a tenth of the x below 2^-11",
                   bad == 0, bad, 0, "exact")


def _chk_grid_arc_exact_ties(rng, tier):
    # lattice points (j + shift)/N put pair offsets exactly on the arc ends
    bad = 0
    for _ in range(12):
        n = int(rng.integers(2, 41))
        x = (np.arange(n) + float(rng.choice([0.0, 0.5, 0.25]))) / n
        s = float(rng.choice([1.0, 2.0, 3.0, rng.uniform(0.1, n / 2)]))
        g = to_grid(x)
        delta = g[None, :] - g[:, None]  # y - c for centre c (row), occupant y (column)
        fx = [Fraction(float(v)) for v in x]
        for a, b in ((-s, s), (-s, s / 2)):
            got = in_arc(delta, grid_arc(a, b, n))
            lo, hi = Fraction(a) / n, Fraction(b) / n
            for i, c in enumerate(fx):
                for j, y in enumerate(fx):
                    d = (y - c) % 1
                    d = d if d <= Fraction(1, 2) else d - 1  # ((y - c))
                    bad += bool(got[i, j]) != (lo <= d <= hi)
    return _result("grid_arc_exact_ties",
                   "in_arc/grid_arc decide a/N <= ((y-c)) <= b/N as exact rationals do, "
                   "ties included (lattice points)",
                   bad == 0, bad, 0, "exact")


def _chk_stirling_second_expansion(rng, tier):
    bad = 0
    for k in range(1, 9):
        for x in range(0, 21):
            lhs = sum(stirling_second(k, j) * falling_factorial(x, j) for j in range(1, k + 1))
            bad += lhs != x**k
    return _result("stirling_second_expansion",
                   "sum_j S(k,j) x(x-1)...(x-j+1) = x^k, x in 0..20, k <= 8",
                   bad == 0, bad, 0, "exact")


def _chk_stirling_first_expansion(rng, tier):
    bad = 0
    for m in range(1, 8):
        for y in range(0, 21):
            direct = falling_factorial(y, m + 1)
            recon = y ** (m + 1) + sum(
                (-1) ** (m + 1 - i) * stirling_first_unsigned(m, i) * y**i
                for i in range(1, m + 1)
            )
            bad += direct != recon
    return _result("stirling_first_expansion",
                   "y(y-1)...(y-m) = y^(m+1) - c_m y^m + ... for y in 0..20, m <= 7",
                   bad == 0, bad, 0, "exact")


# ---------------------------------------------------------------------------
# seqgen


def _chk_generated_in_unit(rng, tier):
    seed = int(rng.integers(2**31))
    seqs = [
        seqgen.uniform_random(500, seed),
        seqgen.kronecker(500, GOLDEN),
        seqgen.polynomial(500, math.pi % 1.0, 2),
        seqgen.dilated(200, range(1, 201), float(rng.random())),
        seqgen.dyadic_counterexample(500),
        seqgen.van_der_corput(500),
    ]
    bad = sum(int(s.points.min() < 0 or s.points.max() >= 1) for s in seqs)
    return _result("generated_points_in_unit", "every generated point lies in [0,1)",
                   bad == 0, bad, 0, "exact")


def _chk_dilated_exact(rng, tier):
    alpha = float(rng.random())
    ints = np.cumsum(rng.integers(1, 2**40, size=50)).tolist()
    got = seqgen.exact_frac_parts(ints, alpha)
    fr = Fraction(alpha)
    expect = np.array([float(Fraction(a) * fr % 1) for a in ints])
    worst = float(np.max(np.abs(got - expect)))
    return _result("dilated_exact_reduction",
                   "{a*alpha} equals exact rational reduction for a up to 2^40",
                   worst == 0.0, worst, 0.0, "exact")


def _chk_dyadic_structure(rng, tier):
    ok = True
    for m in range(1, 15):
        pts = seqgen.dyadic_counterexample(2**m).points
        vals, counts = np.unique(pts, return_counts=True)
        if not np.all(counts == 2):
            ok = False
        if vals.size > 1 and not math.isclose(np.diff(vals).min(), 2.0 / 2**m):
            ok = False
    return _result("dyadic_multiplicity_and_gap",
                   "first 2^m doubled-dyadic points: every value twice, min gap 2/2^m (m <= 14)",
                   ok, "structure holds" if ok else "violated", "multiplicity 2, gap 2/2^m", "exact")


# ---------------------------------------------------------------------------
# correlations


def _instance_set(rng, count, nmax=200):
    out = []
    for _ in range(count):
        n = int(rng.integers(10, nmax + 1))
        out.append(PointSequence(rng.random(n)))
    return out


def _chk_star_dominates(rng, tier):
    # the raw counts compare as exact ints: R = raw / N on both sides
    worst = math.inf
    for seq in _instance_set(rng, 25):
        n = len(seq)
        k = int(rng.integers(2, 5))
        sc = tuple(rng.uniform(0.1, n / 3, size=k - 1))
        worst = min(worst, correlations.r_k_star(seq, sc).raw_count
                    - correlations.r_k_distinct(seq, sc).raw_count)
    return _result("star_dominates_distinct", "R_k <= R_k* on every instance",
                   worst >= 0, worst, ">= 0", "exact")


def _chk_star_distinct_stirling_bound(rng, tier):
    # N times both sides: raw_k* <= raw_k + N + sum_m S(k,m) raw_m
    worst = math.inf
    for seq in _instance_set(rng, 25):
        n = len(seq)
        k = int(rng.integers(2, 5))
        sc = sorted(rng.uniform(0.1, n / 3, size=k - 1), reverse=True)
        rhs = correlations.r_k_distinct(seq, sc).raw_count + stirling_second(k, 1) * n
        for m in range(2, k):
            rhs += stirling_second(k, m) * correlations.r_k_distinct(seq, sc[: m - 1]).raw_count
        worst = min(worst, rhs - correlations.r_k_star(seq, sc).raw_count)
    return _result("star_distinct_stirling_bound",
                   "R_k* <= R_k + sum_m S(k,m) R_m for decreasing scales",
                   worst >= 0, worst, ">= 0", "exact")


def _chk_pair_power_lower_bound(rng, tier):
    # N^(k-1) times both sides: raw_2^(k-1) <= raw_k N^(k-2)
    worst = math.inf
    for seq in _instance_set(rng, 25):
        n = len(seq)
        k = int(rng.integers(3, 6))
        s = float(rng.uniform(0.1, n / 3))
        worst = min(worst, correlations.r_k_star(seq, (s,) * (k - 1)).raw_count * n ** (k - 2)
                    - correlations.r_k_star(seq, (s,)).raw_count ** (k - 1))
    return _result("pair_power_lower_bound", "R_2*(s,N)^(k-1) <= R_k*(s,N)",
                   worst >= 0, worst, ">= 0", "exact")


def _chk_scale_vector_hoelder(rng, tier):
    # N^(k-1) times both sides: raw^(k-1) <= prod_r raw_r; the slack is
    # measured relative to the right side, exactly, and rounded once
    worst = math.inf
    for seq in _instance_set(rng, 25):
        n = len(seq)
        k = int(rng.integers(3, 6))
        sc = tuple(rng.uniform(0.1, n / 3, size=k - 1))
        lhs = correlations.r_k_star(seq, sc).raw_count ** (k - 1)
        rhs = math.prod(correlations.r_k_star(seq, (s,) * (k - 1)).raw_count for s in sc)
        worst = min(worst, Fraction(rhs - lhs, rhs))
    return _result("scale_vector_hoelder",
                   "R_k*(s_1..s_{k-1})^(k-1) <= prod_r R_k*(s_r)",
                   worst >= 0, float(worst), ">= 0", "exact")


def _chk_cross_order_inequality(rng, tier):
    n = 10**5 if tier == "full" else 10**4
    seqs = {
        "uniform": seqgen.uniform_random(n, int(rng.integers(2**31))),
        "kronecker": seqgen.kronecker(n, GOLDEN),
    }
    worst = math.inf
    for seq in seqs.values():
        for m in (2, 3):
            s = 3.0 * order_comparison_threshold(m)
            lhs = correlations.r_k_distinct(seq, (s / 3,) * (m - 1)).value
            rhs = (6.0 / s) * correlations.r_k_distinct(seq, (s,) * m).value
            worst = min(worst, rhs - lhs)
    return _result("cross_order_scale_inequality",
                   f"R_m(s/3,N) <= (6/s) R_(m+1)(s,N) at s = 3x threshold, N = {n}",
                   worst >= 0.0, worst, ">= 0", "exact")


def _chk_slot_permutation(rng, tier):
    bad = 0
    for seq in _instance_set(rng, 10, nmax=60):
        n = len(seq)
        k = int(rng.integers(3, 5))
        sc = tuple(rng.uniform(0.1, n / 3, size=k - 1))
        counts = {
            correlations.r_k_distinct(seq, perm).raw_count
            for perm in itertools.permutations(sc)
        }
        bad += len(counts) != 1
    return _result("scale_slot_permutation_invariance",
                   "R_k count is invariant under permuting scale slots (exact integers)",
                   bad == 0, bad, 0, "exact")


def _chk_power_mean_inequality(rng, tier):
    # Chebyshev's sum inequality on the window counts c_i (the anchor
    # counted), as exact ints: raw_k* = sum_i c_i^(k-1), so
    # N sum c_i^(m+1) >= (sum c_i)(sum c_i^m) is N raw_(m+2)* >= raw_2* raw_(m+1)*
    worst = math.inf
    for seq in _instance_set(rng, 25):
        n = len(seq)
        m = int(rng.integers(1, 6))
        s = float(rng.uniform(0.1, n / 3))
        raw = [correlations.r_k_star(seq, (s,) * (k - 1)).raw_count for k in (2, m + 1, m + 2)]
        worst = min(worst, n * raw[2] - raw[0] * raw[1])
    return _result("power_mean_product_inequality",
                   "N R_(m+2)*(s,N) >= R_2*(s,N) R_(m+1)*(s,N): sum c_i^(m+1) >= "
                   "(1/N)(sum c_i)(sum c_i^m) on the window counts",
                   worst >= 0, worst, ">= 0", "exact")


def _chk_partition_shift(rng, tier):
    failures = 0
    checked = 0
    for trial in range(6):
        n, s = (30, 3.0) if trial % 2 == 0 else (40, 2.0)
        x = rng.random(n)
        kcells = round(n / s)
        g = to_grid(x)
        near = in_arc(g[None, :] - g[:, None], grid_arc(-s / 3, s / 3, n))
        for m_order in (2, 3):
            for tup in itertools.permutations(range(n), m_order):
                i1 = tup[0]
                if not all(near[i1, j] for j in tup[1:]):
                    continue
                checked += 1
                if not any(
                    len({min(int(((x[i] - d) % 1.0) * kcells), kcells - 1) for i in tup}) == 1
                    for d in (0.0, s / (3 * n), 2 * s / (3 * n))
                ):
                    failures += 1
    return _result("partition_shift_cover",
                   "tuples counted at scale s/3 fit one cell of a partition shifted by 0, s/3N or 2s/3N",
                   failures == 0, f"{failures} of {checked} tuples escaped", "0 escapes", "exact")


# ---------------------------------------------------------------------------
# averaged


def _chk_scale_average_matches_integral(rng, tier):
    # k = 3: 2-D integration of brute-force R_3* over its exact breakpoints
    # (k = 2, C_2* = int F^2, is second_moment_scale_integral_identity).
    # A tolerance stays: c_k_star forms L_i = s/N cnt - D_i 2^-64 and its
    # products in floats, so it is not exactly rounded, and the integral
    # sums float cells over float breakpoints
    worst = 0.0
    for _ in range(3):
        n = int(rng.integers(12, 26))
        seq = PointSequence(rng.random(n))
        s1, s2 = float(rng.uniform(0.3, 1.2)), float(rng.uniform(0.3, 1.2))
        x = seq.points
        dvals = np.unique(np.abs(signed_distance(x[:, None] - x[None, :]))) * n

        def breaks(s):
            return np.unique(np.concatenate(([0.0], dvals[(dvals > 0) & (dvals < s)], [s])))

        b1, b2 = breaks(s1), breaks(s2)
        total = 0.0
        for a1, a2 in zip(b1[:-1], b1[1:]):
            for c1, c2 in zip(b2[:-1], b2[1:]):
                r = correlations.brute_force_r_k(
                    seq, scales=((a1 + a2) / 2, (c1 + c2) / 2), star=True
                ).value
                total += r * (a2 - a1) * (c2 - c1)
        f = averaged.c_k_star(seq, (s1, s2))
        worst = max(worst, abs(total - f) / abs(f))
    return _result("scale_average_matches_integral",
                   "C_3* equals int of R_3* over the scale box (vs brute force)",
                   worst <= 1e-9, float(worst), 0, "1e-9 relative")


def _chk_averaged_hoelder_chain(rng, tier):
    # a tolerance stays: c_k_star forms L_i = s/N cnt - D_i 2^-64 and its
    # products in floats, so neither side is exactly rounded
    worst = math.inf
    for _ in range(15):
        n = int(rng.integers(20, 400))
        s = float(rng.uniform(0.3, 10.0))
        k = int(rng.integers(3, 5))
        seq = PointSequence(rng.random(n))
        lhs = averaged.c_k_star(seq, (s,)) ** (k - 1)
        rhs = averaged.c_k_star(seq, (s,) * (k - 1))
        worst = min(worst, (rhs - lhs) / max(abs(rhs), 1e-30))
    return _result("averaged_hoelder_chain", "C_2*(s,N)^(k-1) <= C_k*(s,N)",
                   worst >= -1e-12, worst, ">= 0", "1e-12 relative")


def _chk_localized_lower_bound_trend(rng, tier):
    sizes = (10**3, 10**4, 10**5) if tier == "full" else (10**3, 10**4)
    a, s, k = 0.5, 2.0, 3
    vals = []
    ok = True
    for n in sizes:
        seq = seqgen.uniform_random(n, int(rng.integers(2**31)))
        v = averaged.c_k_star_local(seq, s, k, (0.0, a))
        vals.append(v)
        ok &= v >= 0.9 * a * s ** (2 * (k - 1))
    return _result("localized_lower_bound_trend",
                   "C_k*([0,a],s,N) >= 0.9 a s^(2(k-1)) for uniform sequences (trend over N)",
                   ok, "; ".join(f"N={n}: {v:.3f}" for n, v in zip(sizes, vals)),
                   f">= {0.9 * a * s ** (2 * (k - 1)):.3f}", "slack factor 0.9",
                   report_only=True)


# ---------------------------------------------------------------------------
# intervalstats


def _chk_second_moment_identity(rng, tier):
    # int F^2 = sum_v v^2 L_v / 2^64 against c_k_star's pair average; and, where
    # N >= 4s, I_2* = s + I_2 in integers on the grid: sum_v v^2 L_v is the mass
    # sum_v v L_v = N (2R+1) plus T_2, the integer tent summed over distinct pairs.
    # The c_k_star half keeps a tolerance: c_k_star forms L_i = s/N cnt - D_i 2^-64
    # and its products in floats, so it is not exactly rounded
    worst, misses = 0.0, []
    for _ in range(12):
        n = int(rng.integers(120, 10**4))
        s = float(rng.choice([0.5, 1.0, 5.0, 50.0]))
        seq = PointSequence(rng.random(n))
        hist = intervalstats.sweep_profile(seq, s).value_lengths().items()
        power = sum(v * v * ln for v, ln in hist)
        right = averaged.c_k_star(seq, (s,))
        worst = max(worst, abs(power / GRID - right) / abs(right))
        if n >= 4 * s:
            misses.append(power != sum(v * ln for v, ln in hist) + intervalstats._tent_sum(seq, s, 2))
    return _result("second_moment_scale_integral_identity",
                   "int F^2 dt = int_0^s R_2* dsigma, and sum_v v^2 L_v = N(2R+1) + T_2 if N >= 4s",
                   not any(misses) and worst <= 1e-9,
                   f"{sum(misses)} of {len(misses)} integer identities fail; {worst!r}",
                   "0; 0.0", "exact; 1e-9 relative")


def _chk_power_moment_decomposition(rng, tier):
    # I_k = R_k(g_s^(k),N) and I_k* = sum_j S(k,j) I_j with I_1 = s, in integers on
    # the grid: T_j the integer tent summed over distinct j-tuples, and for j = 1
    # the arcs' mass sum_v v L_v = N (2R+1)
    bad = 0
    for _ in range(12):
        n = int(rng.integers(10, 61))
        k = int(rng.integers(2, 5))
        s = float(rng.uniform(0.2, n / 4.0))
        seq = PointSequence(rng.random(n))
        hist = intervalstats.sweep_profile(seq, s).value_lengths().items()
        tents = {j: intervalstats._tent_sum(seq, s, j) for j in range(2, k + 1)}
        tents[1] = sum(v * ln for v, ln in hist)
        bad += sum(falling_factorial(v, k) * ln for v, ln in hist) != tents[k]
        bad += sum(v**k * ln for v, ln in hist) != sum(stirling_second(k, j) * t
                                                       for j, t in tents.items())
    return _result("power_moment_stirling_decomposition",
                   "I_k = R_k(g_s^(k),N) and I_k* = sum_j S(k,j) I_j, I_1 = s, in grid integers",
                   bad == 0, bad, 0, "exact")


def _chk_ball_cover_counting(rng, tier):
    bad = 0
    for _ in range(20):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(2, 4))
        s = float(rng.uniform(0.5, n / 2.0))
        seq = PointSequence(rng.random(n))
        t = float(rng.random())
        inside = in_arc(to_grid(seq.points) - to_grid(t), grid_arc(-0.5 * s, 0.5 * s, n))
        fval = intervalstats.f_count(seq, t, s)
        direct = sum(
            1
            for tup in itertools.permutations(range(n), k)
            if all(inside[i] for i in tup)
        )
        bad += falling_factorial(fval, k) != direct
    return _result("ball_cover_counting_identity",
                   "F(F-1)...(F-k+1) at t counts distinct tuples whose arcs all contain t",
                   bad == 0, bad, 0, "exact")


def _chk_profile_mass(rng, tier):
    # on the grid each arc has 2R+1 points (all 2^64 once it covers the circle)
    bad = 0
    for _ in range(20):
        n = int(rng.integers(1, 4000))
        s = float(rng.uniform(0.1, n))
        seq = PointSequence(rng.random(n))
        hist = intervalstats.sweep_profile(seq, s).value_lengths()
        r = grid_arc(-0.5 * s, 0.5 * s, n)[1]
        bad += sum(v * ln for v, ln in hist.items()) != n * min(2 * r + 1, GRID)
    return _result("profile_mass_equals_s",
                   "int_0^1 F(t,s,N) dt = s (profile mass): sum_v v L_v = N (2R+1) grid points",
                   bad == 0, bad, 0, "exact")


def _chk_max_count_log_bound(rng, tier):
    n = 10**5
    seq = seqgen.uniform_random(n, int(rng.integers(2**31)))
    mx = intervalstats.sweep_profile(seq, 1.0).max_value()
    bound = 2.0 * math.log(n)
    return _result("max_window_count_log_bound",
                   "max_t F(t,1,N) stays within C log N for uniform points (N = 1e5)",
                   mx <= bound, mx, f"<= {bound:.2f}", "report-only", report_only=True)


# ---------------------------------------------------------------------------
# arithmetic


def _chk_energy_diagonal(rng, tier):
    bad = 0
    for _ in range(20):
        size = int(rng.integers(1, 40))
        a = np.unique(rng.integers(1, 10**6, size=size)).tolist()
        bad += arithmetic.additive_energy(a) < len(a) ** 2
    return _result("energy_diagonal_lower_bound", "E(A) >= |A|^2 (diagonal quadruples)",
                   bad == 0, bad, 0, "exact")


def _chk_energy_ap_brute(rng, tier):
    bad = 0
    sets = [np.unique(rng.integers(1, 200, size=int(rng.integers(1, 31)))).tolist()
            for _ in range(12)]
    # an affine image of the largest set: translated, and spread past the flat tables
    sets.append([2**40 + 2**30 * x for x in max(sets, key=len)])
    sets.append(list(range(1, 31)))  # dense: its pair sums are counted by the FFT
    for a in sets:
        bad += arithmetic.additive_energy(a) != arithmetic.additive_energy_bruteforce(a)
        bad += arithmetic.three_ap_count(a) != arithmetic.three_ap_count_bruteforce(a)
    return _result("energy_ap_brute_agreement",
                   "E(A) and T(A) match O(|A|^4)/O(|A|^3) enumeration for |A| <= 30,"
                   " also on a translated wide set",
                   bad == 0, bad, 0, "exact")


def _chk_dilation_measure(rng, tier):
    # d j mod M runs over the multiples of g = gcd(d, M), each g times
    bad = ties = 0
    for _ in range(200):
        d, n, m = int(rng.integers(1, 201)), int(rng.integers(1, 301)), 2 ** int(rng.integers(4, 13))
        s = float(rng.choice([n / 2, n * int(rng.integers(m // 2 + 1)) / m, rng.uniform(0, n / 2)]))
        frac = seqgen.exact_frac_parts([d], np.arange(m) / m)  # alpha rows j/M
        got = int(np.count_nonzero(in_arc(to_grid(frac), grid_arc(-s, s, n))))
        g, scaled = math.gcd(d, m), Fraction(s) * m / n
        bad += got != g * min(2 * math.floor(scaled / g) + 1, m // g)
        ties += scaled.denominator == 1
    return _result("dilation_constraint_measure",
                   "#{j < M : ||d j/M|| <= s/N} = g min(2 floor(sM/(gN)) + 1, M/g), g = gcd(d, M), "
                   "on the alpha-lattice M = 2^t (exact frac parts), 200 random d, N, t, s <= N/2",
                   bad == 0, f"{bad} wrong ({ties} arc ends on the lattice)", 0, "exact")


def _chk_dyadic_triple_far(rng, tier):
    s = 1.5
    worst = math.inf
    for m in range(2, 15):
        seq = seqgen.dyadic_counterexample(2**m)
        r3 = correlations.r_k_distinct(seq, (s, s)).value
        worst = min(worst, abs(r3 - (2 * s) ** 2))
    return _result("dyadic_triple_correlation_stays_far",
                   "|R_3(1.5, 2^m) - (2s)^2| > 1 for all m <= 14 (here R_3 = 0 exactly)",
                   worst > 1.0, worst, "> 1", "exact")


# ---------------------------------------------------------------------------
# distribution


def _chk_density_functional_trend(rng, tier):
    n = 10**5 if tier == "full" else 2**14
    uni = seqgen.uniform_random(n, int(rng.integers(2**31)))
    dya = seqgen.dyadic_counterexample(n)
    fu = distribution.density_moment_lower_bound(uni, 6, 2)
    fd = [distribution.density_moment_lower_bound(dya, r, 2) for r in range(7)]
    nondecr = all(b >= a - 1e-12 for a, b in zip(fd, fd[1:]))
    grows = fd[-1] > 1.02
    in_band = 0.9 <= fu <= 1.5
    ok = nondecr and grows and in_band
    return _result("density_functional_trend",
                   "sum 2^(r(k-1)) m_i^k grows with r for the doubled-dyadic sequence, "
                   "stays near 1 for uniform (r = 6)",
                   ok, f"dyadic r6 {fd[-1]:.4f} (nondecr {nondecr}), uniform r6 {fu:.4f}",
                   "dyadic > 1.02, uniform in [0.9, 1.5]", "band")


def _chk_nonuniform_pair_excess(rng, tier):
    n = 10**5 if tier == "full" else 10**4
    half = PointSequence(trial_rng(int(rng.integers(2**31)), 0).random(n) / 2.0)
    r2 = correlations.r_k_distinct(half, (5.0,)).value
    return _result("nonuniform_pair_correlation_excess",
                   "uniform-on-[0,1/2] points: R_2(5,N) >= 1.5 * (2*5), density-squared excess",
                   r2 >= 15.0, r2, ">= 15", "slack 1.5 of 2s")


# ---------------------------------------------------------------------------
# cli-level invariants


def _chk_json_round_trip(rng, tier):
    from .cli import _report_payload  # cli imports this module

    rep = correlations.r_k_distinct(PointSequence(rng.random(50)), (1.0, 0.5))
    payload = _report_payload("corr", rep)
    ok = json.loads(json.dumps(payload)) == payload
    return _result("json_report_round_trip", "parse(serialize(report)) = report",
                   ok, "round-trips" if ok else "mismatch", "equal", "exact")


def _chk_verify_deterministic(rng, tier):
    seed = int(rng.integers(2**31))

    def run():
        seq = seqgen.uniform_random(2000, seed)
        return (
            correlations.r_k_distinct(seq, (1.0,)).raw_count,
            intervalstats.moments(seq, 2.0, 3).i_k_star,
            arithmetic.random_correlation_stats(2, ((0.0, 1.0),), 500, 4, seed),
        )

    ok = run() == run()
    return _result("verify_deterministic_given_seed",
                   "re-running seeded checks reproduces bit-identical values",
                   ok, "bit-identical" if ok else "diverged", "equal", "exact")


def _chk_sweep_csv_stable(rng, tier):
    from .cli import sweep_rows, rows_to_csv

    seed = int(rng.integers(2**31))
    rows1 = rows_to_csv(sweep_rows("r2", 1.0, [500, 1000], "uniform_random", seed))
    rows2 = rows_to_csv(sweep_rows("r2", 1.0, [500, 1000], "uniform_random", seed))
    ok = rows1 == rows2
    return _result("sweep_csv_bit_stable", "sweep CSV bytes are identical across runs with one seed",
                   ok, "identical" if ok else "diverged", "equal", "exact")


# ---------------------------------------------------------------------------
# catalog

CHECK_CATALOG = (
    ("quick", _chk_grid_offset_exact),
    ("quick", _chk_grid_arc_exact_ties),
    ("quick", _chk_stirling_second_expansion),
    ("quick", _chk_stirling_first_expansion),
    ("quick", _chk_generated_in_unit),
    ("quick", _chk_dilated_exact),
    ("quick", _chk_dyadic_structure),
    ("quick", _chk_star_dominates),
    ("quick", _chk_star_distinct_stirling_bound),
    ("quick", _chk_pair_power_lower_bound),
    ("quick", _chk_scale_vector_hoelder),
    ("quick", _chk_cross_order_inequality),
    ("quick", _chk_slot_permutation),
    ("quick", _chk_power_mean_inequality),
    ("quick", _chk_partition_shift),
    ("quick", _chk_scale_average_matches_integral),
    ("quick", _chk_averaged_hoelder_chain),
    ("full", _chk_localized_lower_bound_trend),
    ("quick", _chk_second_moment_identity),
    ("quick", _chk_power_moment_decomposition),
    ("quick", _chk_ball_cover_counting),
    ("quick", _chk_profile_mass),
    ("full", _chk_max_count_log_bound),
    ("quick", _chk_energy_diagonal),
    ("quick", _chk_energy_ap_brute),
    ("quick", _chk_dilation_measure),
    ("quick", _chk_dyadic_triple_far),
    ("full", _chk_density_functional_trend),
    ("full", _chk_nonuniform_pair_excess),
    ("quick", _chk_json_round_trip),
    ("quick", _chk_verify_deterministic),
    ("quick", _chk_sweep_csv_stable),
)


def run_verify(tier: str = "quick", seed: int = DEFAULT_SEED) -> VerifyReport:
    """Run the check catalog. tier='quick' runs the exact identities and
    small oracles; tier='full' runs everything including the N = 1e5
    statistical checks."""
    if tier not in ("quick", "full"):
        raise ValueError("tier must be 'quick' or 'full'")
    report = VerifyReport(tier=tier, seed=int(seed))
    for idx, (check_tier, fn) in enumerate(CHECK_CATALOG):
        if tier == "quick" and check_tier == "full":
            continue
        rng = trial_rng(seed, idx)
        report.checks.append(fn(rng, tier))
    return report
