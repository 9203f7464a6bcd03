#!/usr/bin/env python3
"""The window-count function F(t,s,N) and its exact moments.

F counts sequence points within s/(2N) of t.  It is a step function
with at most 2N breakpoints, so its factorial moments I_k and power
moments I_k* integrate exactly over the sweep profile.  For Poissonian
sequences I_k -> s^k (the factorial moment of a Poisson(s) variable)
and I_k* tends to the Poisson moment polynomial sum_j S(k,j) s^j.
"""

import numpy as np

import corrkit as ck


def banner(title):
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)


banner("Sweep profile of a 6-point sequence at s = 1.2")
seq = ck.PointSequence([0.05, 0.1, 0.12, 0.5, 0.52, 0.9])
prof = ck.sweep_profile(seq, 1.2)
print("breakpoints:", np.round(prof.breakpoints / 2.0**64, 4).tolist())  # grid points as floats
print("values     :", prof.values.tolist())
print(f"total mass = {prof.total_mass():.12f} (equals s exactly)")
print("value at t=0.11:", prof.value_at(0.11), "== direct count:", ck.f_count(seq, 0.11, 1.2))

banner("Moments approach the Poisson predictions as N grows (uniform, s = 2)")
s = 2.0
bell = ck.bell_prediction(2, s)
print(f"{'N':>8} {'I_2':>9} {'s^2':>6} {'I_2*':>9} {'Bell(2,s)':>9}")
for n in (10**3, 10**4, 10**5):
    rep = ck.moments(ck.uniform_random(n, seed=1729), s, 2)
    print(f"{n:>8} {rep.i_k:>9.4f} {s**2:>6.1f} {rep.i_k_star:>9.4f} {bell:>9.1f}")

banner("Higher moments at N = 1e5, s = 1")
seq = ck.uniform_random(10**5, seed=1729)
for k in (2, 3, 4):
    rep = ck.moments(seq, 1.0, k)
    print(f"k={k}: I_k = {rep.i_k:7.4f} (target {1.0 ** k}),  "
          f"I_k* = {rep.i_k_star:7.4f} (Bell {ck.bell_prediction(k, 1.0):.1f})")

banner("The tent test function ties moments to correlation sums")
print("g_s^(k)(y) = {s - max_i {y_i}+ - max_i {-y_i}+}+ integrates to s^k:")
for k, s in ((2, 1.0), (3, 2.0)):
    mc = ck.g_integral_mc(k, s, 10**5, seed=5)
    print(f"  k={k}, s={s}: MC {mc.estimate:.4f} +- {mc.standard_error:.4f} vs s^k = {s**k}")

n = 60
seq = ck.PointSequence(np.random.default_rng(1).random(n))
s, k = 1.5, 3
sweep_side = ck.moments(seq, s, k).i_k
corr_side = ck.i_k_via_correlation(seq, s, k)
print(f"\nN={n}: sweep-line I_3 = {sweep_side:.12f}")
print(f"       correlation-sum of g = {corr_side:.12f}")
print(f"agreement to {abs(sweep_side - corr_side):.2e} (two fully independent routes)")

banner("Power moment decomposes through second-kind Stirling numbers")
rhs = ck.stirling_second(k, 1) * s + sum(
    ck.stirling_second(k, j) * ck.i_k_via_correlation(seq, s, j) for j in range(2, k + 1)
)
lhs = ck.moments(seq, s, k).i_k_star
print(f"I_3* = {lhs:.12f}")
print(f"sum_j S(3,j) I_j = {rhs:.12f}   (I_1 = s)")
