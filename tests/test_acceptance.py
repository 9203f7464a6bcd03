"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  The fixed documented seed for the statistical
criteria is 1729.
"""

import math
import time

import numpy as np

import corrkit as ck

SEED = ck.DEFAULT_SEED  # 1729


def _report(num, label, ok, detail=""):
    print(f"ACCEPTANCE {num:2d} [{label}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    checked = {"distinct": 0, "star": 0, "box": 0}
    for _ in range(100):
        n = int(rng.integers(2, 41))
        k = int(rng.integers(2, 5))
        seq = ck.PointSequence(rng.random(n))
        scales = tuple(rng.uniform(0.05, 0.9 * n / 2, size=k - 1))
        assert (
            ck.r_k_distinct(seq, scales).raw_count
            == ck.brute_force_r_k(seq, scales=scales).raw_count
        )
        checked["distinct"] += 1
        assert (
            ck.r_k_star(seq, scales).raw_count
            == ck.brute_force_r_k(seq, scales=scales, star=True).raw_count
        )
        checked["star"] += 1
        boxes = []
        for _ in range(k - 1):
            a, b = np.sort(rng.uniform(-0.9 * n / 2, 0.9 * n / 2, size=2))
            boxes.append((float(a), float(b) if b > a else float(a) + 0.05))
        boxes = tuple(boxes)
        assert (
            ck.r_k_box(seq, boxes).raw_count
            == ck.brute_force_r_k(seq, boxes=boxes).raw_count
        )
        checked["box"] += 1
    elapsed = time.perf_counter() - t0
    ok = all(v >= 100 for v in checked.values()) and elapsed < 60
    _report(1, "oracle equivalence", ok, f"{checked}, {elapsed:.1f}s")


def test_criterion_02_dyadic_exactness():
    ok = True
    for m in range(2, 15):
        n = 2**m
        seq = ck.dyadic_counterexample(n)
        r2 = ck.r_k_distinct(seq, (1.5,))
        r3 = ck.r_k_distinct(seq, (1.5, 1.5))
        ok &= r2.raw_count == n and r3.raw_count == 0
    _report(2, "doubled-dyadic R2 = 1, R3 = 0 exactly", ok, "m = 2..14")


def test_criterion_03_second_moment_identity():
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for i in range(50):
        s = float((0.5, 1.0, 5.0, 50.0)[i % 4])
        n = int(rng.integers(max(120, int(2 * s) + 10), 10**4 + 1))
        seq = ck.PointSequence(rng.random(n))
        left = ck.moments(seq, s, 2).i_k_star
        right = ck.c_k_star(seq, (s,))
        worst = max(worst, abs(left - right) / abs(right))
    _report(3, "int F^2 equals factorized pair average", worst <= 1e-9,
            f"worst rel err {worst:.2e}")


def test_criterion_04_factorial_moment_chain():
    # on the 2^-64 grid, in integers: sum_v (v)_k L_v = T_k, the tent summed
    # over distinct k-tuples, and sum_v v^k L_v = sum_j S(k,j) T_j with T_1 the
    # arcs' mass N (2R + 1); divided by 2^64, I_k = R_k(g_s^(k), N) bit for bit
    # and I_k* = sum_j S(k,j) I_j with I_1 = s
    rng = np.random.default_rng(SEED + 4)
    bad = 0
    for _ in range(40):
        n = int(rng.integers(8, 61))
        k = int(rng.integers(2, 5))
        s = float(rng.uniform(0.2, n / 4.0))  # keeps N >= 4s
        seq = ck.PointSequence(rng.random(n))
        bad += ck.moments(seq, s, k).i_k != ck.i_k_via_correlation(seq, s, k)
        hist = ck.sweep_profile(seq, s).value_lengths().items()
        tents = {j: ck.intervalstats._tent_sum(seq, s, j) for j in range(2, k + 1)}
        tents[1] = sum(v * ln for v, ln in hist)
        bad += sum(ck.falling_factorial(v, k) * ln for v, ln in hist) != tents[k]
        bad += sum(v**k * ln for v, ln in hist) != sum(
            ck.stirling_second(k, j) * t for j, t in tents.items())
    _report(4, "factorial/power moment correlation chain", bad == 0,
            f"{bad} of 120 identities fail")


def test_criterion_05_tent_integral_lattice_sum():
    # g_L is linear on the Kuhn simplices of Z^(k-1), so its lattice sum
    # over |z_i| <= L is its integral L^k, exactly
    ok = True
    details = []
    for k, s in ((2, 1), (3, 2), (4, 1), (4, 3), (5, 2)):
        z = np.indices((2 * s + 1,) * (k - 1)).reshape(k - 1, -1).T - s
        total = ck.g_eval(k, s, z).sum()
        ok &= total == s**k
        details.append(f"k={k}: {total} vs {s ** k}")
    _report(5, "tent test-function integral = s^k", ok, "; ".join(details))


def test_criterion_06_poissonian_desk_scale():
    t0 = time.perf_counter()
    n = 10**5
    seq = ck.uniform_random(n, SEED)
    r2 = ck.r_k_distinct(seq, (1.0,)).value
    r3 = ck.r_k_distinct(seq, (1.0, 1.0)).value
    i2s = ck.moments(seq, 2.0, 2).i_k_star
    i3 = ck.moments(seq, 1.0, 3).i_k
    elapsed = time.perf_counter() - t0
    checks = [
        ("R2(1)", r2, 2.0, 0.05),
        ("R3(1)", r3, 4.0, 0.2),
        ("I2*(2)", i2s, 6.0, 0.3),
        ("I3(1)", i3, 1.0, 0.1),
    ]
    ok = elapsed < 60 and all(abs(v - tgt) <= tol for _, v, tgt, tol in checks)
    detail = ", ".join(f"{name}={v:.4f}" for name, v, _, _ in checks)
    _report(6, f"Poissonian targets at N=1e5, seed {SEED}", ok,
            f"{detail}, {elapsed:.1f}s")


def test_criterion_07_random_box_statistics():
    stats = {}
    ok = True
    for n in (10**3, 10**4):
        mean, var = ck.random_correlation_stats(2, ((0.0, 1.0),), n, 100, SEED)
        se = math.sqrt(var / 100)
        ok &= abs(mean - 1.0) <= 5 * se
        stats[n] = (mean, var)
    ratio = (10**3 * stats[10**3][1]) / (10**4 * stats[10**4][1])
    ok &= 1 / 3 <= ratio <= 3
    _report(7, "i.i.d. box-correlation mean/variance", ok,
            f"means {stats[10**3][0]:.4f}/{stats[10**4][0]:.4f}, N*var ratio {ratio:.2f}")


def test_criterion_08_inequality_suites():
    ok = True
    rng = np.random.default_rng(SEED + 8)
    families = {
        "uniform": lambda n: ck.uniform_random(n, SEED),
        "kronecker": lambda n: ck.kronecker(n, (math.sqrt(5) - 1) / 2),
        "dyadic": lambda n: ck.dyadic_counterexample(n),
    }
    for name, make in families.items():
        for n in (10**3, 10**4):
            seq = make(n)
            for k in (2, 3, 4):
                s = float(rng.uniform(0.3, 3.0))
                sc = (s,) * (k - 1)
                ok &= ck.r_k_distinct(seq, sc).value <= ck.r_k_star(seq, sc).value
                ok &= ck.r_k_star(seq, (s,)).value ** (k - 1) <= ck.r_k_star(seq, sc).value * (1 + 1e-12)
                vec = tuple(rng.uniform(0.3, 3.0, size=k - 1))
                lhs = ck.r_k_star(seq, vec).value ** (k - 1)
                rhs = float(np.prod([ck.r_k_star(seq, (x,) * (k - 1)).value for x in vec]))
                ok &= lhs <= rhs * (1 + 1e-12)
                ok &= ck.c_k_star(seq, sc) >= s ** (2 * (k - 1)) * (1 - 1e-12)
            # superadditivity of the localized average over a partition
            s = 2.0
            parts = [ck.c_k_star_local(seq, s, 3, (j / 8, (j + 1) / 8)) for j in range(8)]
            ok &= sum(parts) <= ck.c_k_star(seq, (s, s)) * (1 + 1e-12)
    # cross-order inequality at N = 1e5, s = 3x threshold
    for name, make in families.items():
        seq = make(10**5)
        for m in (2, 3):
            s = 3.0 * ck.order_comparison_threshold(m)
            lhs = ck.r_k_distinct(seq, (s / 3,) * (m - 1)).value
            rhs = (6.0 / s) * ck.r_k_distinct(seq, (s,) * m).value
            ok &= lhs <= rhs
    _report(8, "inequality suites (star/distinct, power bounds, averages, cross-order)", ok)


def test_criterion_09_additive_combinatorics():
    rng = np.random.default_rng(SEED + 9)
    ok = True
    for _ in range(15):
        size = int(rng.integers(1, 31))
        a = np.unique(rng.integers(1, 250, size=size)).tolist()
        ok &= ck.additive_energy(a) == ck.additive_energy_bruteforce(a)
        ok &= ck.three_ap_count(a) == ck.three_ap_count_bruteforce(a)
    for n in (1, 7, 64, 500, 1000):
        ok &= ck.additive_energy(ck.integer_range(n)) == ck.additive_energy_range_closed_form(n)
    rep = ck.metric_r3_experiment(ck.integer_range(512), 0.1, 512, 200, SEED)
    se = math.sqrt(rep.variance / rep.trials)
    ok &= rep.mean >= 0.9 * rep.lower_bound - 3 * se
    _report(9, "additive energy / progressions / dilation experiment", ok,
            f"mean {rep.mean:.3f} vs bound {rep.lower_bound:.3f}")


def test_criterion_10_consecutive_form_equivalence():
    rng = np.random.default_rng(SEED + 10)
    k = 3
    worst = 0.0

    def make_f(rho):
        def f(ys):
            return np.prod(np.maximum(rho - np.abs(ys), 0.0), axis=1)

        return f

    for _ in range(20):
        rho = float(rng.uniform(0.5, 2.0))
        n = int(rng.integers(math.ceil(2 * k * rho), 120))
        seq = ck.PointSequence(rng.random(n))
        f = make_f(rho)
        g = lambda ys: f(np.column_stack((ys[:, 0], ys[:, 0] + ys[:, 1])))
        lhs = ck.r_k_consecutive(seq, g, 2 * rho, k).value
        rhs = ck.r_k_testfn(seq, f, rho, k).value
        worst = max(worst, abs(lhs - rhs) / (1e-12 * n))
    _report(10, "consecutive-difference form equals anchored form", worst <= 1.0,
            f"worst err = {worst:.3f} of the 1e-12*N budget")
