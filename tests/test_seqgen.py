from fractions import Fraction

import numpy as np
import pytest

from corrkit import (
    GeneratorSpec,
    ParameterError,
    dilated,
    dyadic_counterexample,
    exact_frac_parts,
    generate,
    kronecker,
    polynomial,
    trial_rng,
    uniform_random,
    van_der_corput,
)


def test_kronecker_rational_alpha():
    assert kronecker(4, 0.5).points.tolist() == [0.5, 0.0, 0.5, 0.0]


def test_polynomial_direct_evaluation():
    assert polynomial(3, 0.5, 2).points.tolist() == [0.5, 0.0, 0.5]


def test_uniform_random_reproducible():
    a = uniform_random(1000, 42)
    b = uniform_random(1000, 42)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, uniform_random(1000, 43).points)


def test_generate_dispatch_matches_helpers():
    spec = GeneratorSpec(kind="kronecker", alpha=0.3)
    assert np.array_equal(generate(spec, 50).points, kronecker(50, 0.3).points)
    spec = GeneratorSpec(kind="uniform_random", seed=7)
    assert np.array_equal(generate(spec, 50).points, uniform_random(50, 7).points)


def test_generate_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        GeneratorSpec(kind="polynomial", alpha=0.5, degree=0)
    with pytest.raises(ParameterError):
        GeneratorSpec(kind="nope")
    with pytest.raises(ParameterError):
        GeneratorSpec(kind="dilated", alpha=0.5, integers=(3, 2, 1))
    with pytest.raises(ParameterError):
        generate(GeneratorSpec(kind="van_der_corput"), 0)
    # each family names the parameter it lacks
    for kwargs, message in (({"kind": "kronecker"}, "kronecker generator needs alpha"),
                            ({"kind": "polynomial", "degree": 2}, "polynomial generator needs alpha"),
                            ({"kind": "dilated", "integers": (1, 2)}, "dilated generator needs alpha"),
                            ({"kind": "dilated", "alpha": 0.5}, "dilated generator needs an integer sequence"),
                            ({"kind": "dilated", "alpha": 0.5, "integers": ()},
                             "dilated generator needs an integer sequence"),
                            ({"kind": "uniform_random"}, "uniform_random generator needs a seed")):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            GeneratorSpec(**kwargs)


SQUARES = tuple(m * m for m in range(1, 101))


@pytest.mark.parametrize("spec, direct, ints", [
    (GeneratorSpec(kind="polynomial", alpha=0.3, degree=3), lambda n: polynomial(n, 0.3, 3),
     lambda n: [m**3 for m in range(1, n + 1)]),
    (GeneratorSpec(kind="dilated", alpha=0.3, integers=SQUARES),
     lambda n: dilated(n, SQUARES, 0.3), lambda n: SQUARES[:n]),
])
def test_generate_polynomial_and_dilated(spec, direct, ints):
    # generate is the family's own call, and each point the exact
    # fractional part {a alpha} rounded once
    for n in (1, 37, 100):
        got = generate(spec, n).points
        assert np.array_equal(got, direct(n).points)
        assert got.tolist() == [float(Fraction(a) * Fraction(0.3) % 1) for a in ints(n)]
    if spec.kind == "dilated":
        with pytest.raises(ParameterError, match="has only 100 entries, need 101"):
            generate(spec, 101)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_alpha_rejected(alpha):
    calls = [lambda: GeneratorSpec(kind="kronecker", alpha=alpha),
             lambda: GeneratorSpec(kind="dilated", alpha=alpha, integers=(1, 2)),
             lambda: kronecker(5, alpha),
             lambda: polynomial(5, alpha, 2),
             lambda: dilated(2, [1, 2], alpha),
             lambda: exact_frac_parts([1, 2], [0.5, alpha])]
    for call in calls:
        with pytest.raises(ParameterError, match="alpha must be finite"):
            call()


def test_dyadic_explicit_prefix():
    assert dyadic_counterexample(2).points.tolist() == [0.0, 0.0]
    assert dyadic_counterexample(8).points.tolist() == [0.0, 0.0, 0.5, 0.5, 0.25, 0.25, 0.75, 0.75]


def test_dyadic_block_structure_exhaustive():
    for m in range(1, 15):
        pts = dyadic_counterexample(2**m).points
        vals, counts = np.unique(pts, return_counts=True)
        assert np.all(counts == 2)
        if vals.size > 1:
            assert np.diff(vals).min() == pytest.approx(2.0 / 2**m)
            # values sit on the dyadic grid of step 2/2^m
            assert np.allclose(vals * 2 ** (m - 1) % 1, 0.0)


def _dyadic_loop(n):
    """Reference: the doubled-dyadic points one at a time, block by block."""
    out = np.empty(n, dtype=np.float64)
    out[0] = 0.0
    m, r = 2, 0
    while m <= n:
        block = 1 << r
        k = m - block
        while k <= block and m <= n:
            out[m - 1] = ((2 * ((k + 1) // 2) - 1) / block) % 1.0
            m += 1
            k += 1
        r += 1
    return out


def _van_der_corput_loop(n):
    """Reference: each radical inverse one point at a time, lowest bit first."""
    out = np.empty(n, dtype=np.float64)
    for m in range(1, n + 1):
        v, denom, mm = 0.0, 2, m
        while mm:
            v += (mm & 1) / denom
            denom *= 2
            mm >>= 1
        out[m - 1] = v
    return out


@pytest.mark.parametrize("n", list(range(1, 71)) + [1000, 4097])
def test_structured_generators_equal_their_per_point_loops(n):
    assert dyadic_counterexample(n).points.tobytes() == _dyadic_loop(n).tobytes()
    assert van_der_corput(n).points.tobytes() == _van_der_corput_loop(n).tobytes()


def test_dilated_matches_exact_rational_reduction():
    rng = np.random.default_rng(0)
    ints = np.cumsum(rng.integers(1, 2**45, size=40)).tolist()
    alpha = float(rng.random())
    got = dilated(40, ints, alpha).points
    fr = Fraction(alpha)
    expected = [float(Fraction(a) * fr % 1) for a in ints]
    assert got.tolist() == expected


def test_exact_frac_parts_matches_fraction_arithmetic():
    rng = np.random.default_rng(3)
    word = rng.integers(0, 2**63, size=60, dtype=np.int64).tolist() + [0, 1, 2**64 - 1, 2**63]
    huge = [2**64, 2**64 + 1, 3**50]  # beyond 64 bits: the Python-int reduction
    alphas = [float(rng.random()), 0.1, 3 * 2.0**-64, (2**53 - 1) * 2.0**-64,
              1.0, 12345.678, 2.0**63, 1.5 * 2.0**64, -0.3, 2.0**-70]
    signed = np.array(word[:-2], dtype=np.int64) * rng.choice([-1, 1], size=len(word) - 2)
    for alpha in alphas:
        fr = Fraction(alpha)
        for ints in (word, huge, word + huge, np.array(word, dtype=np.uint64), signed):
            got = exact_frac_parts(ints, alpha)
            expected = [float(Fraction(int(a)) * fr % 1) % 1.0 for a in ints]
            assert got.tolist() == expected


def test_exact_frac_parts_of_several_alphas_are_its_rows():
    rng = np.random.default_rng(4)
    ints = np.array([1, 3, 2**40 + 7, 2**62 + 1, 2**63 - 1], dtype=np.int64)
    one_word = [float(rng.random()), 0.1, 3 * 2.0**-64, -0.3, 2.0**63]
    for alphas in (one_word, one_word + [2.0**-70]):  # 2^-70: the Python-int rows
        for a in (ints, ints.tolist(), [2**64 + 1, 5]):
            got = exact_frac_parts(a, alphas)
            assert got.shape == (len(alphas), len(a))
            for row, alpha in zip(got, alphas):
                assert row.tolist() == exact_frac_parts(a, alpha).tolist()
    assert exact_frac_parts(ints, np.array([0.25])).shape == (1, ints.size)


def test_exact_frac_parts_beats_naive_float():
    # at a ~ 2^60 the naive product has lost the fractional part entirely
    a = 2**60 + 1
    alpha = 1 / 3
    exact = float(Fraction(a) * Fraction(alpha) % 1)
    assert exact_frac_parts([a], alpha)[0] == exact
    assert (a * alpha) % 1.0 != exact


def test_all_families_in_unit_interval():
    seqs = [
        uniform_random(300, 1),
        kronecker(300, (5**0.5 - 1) / 2),
        polynomial(300, 0.123456, 3),
        dilated(100, range(1, 101), 0.77),
        dyadic_counterexample(300),
        van_der_corput(300),
    ]
    for s in seqs:
        assert s.points.min() >= 0.0
        assert s.points.max() < 1.0


def test_van_der_corput_prefix():
    assert van_der_corput(7).points.tolist() == [0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875]


def test_trial_rng_streams_independent_and_stable():
    a1 = trial_rng(9, 0).random(5)
    a2 = trial_rng(9, 0).random(5)
    b = trial_rng(9, 1).random(5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_trial_rng_refuses_a_negative_trial():
    # numpy's SeedSequence takes no negative entry: both are named before it sees them
    with pytest.raises(ParameterError, match="^trial must be >= 0, got -1$"):
        trial_rng(1, -1)
    with pytest.raises(ParameterError, match="^seed must be >= 0, got -1$"):
        trial_rng(-1, 0)


def test_exact_frac_parts_of_no_alphas_has_no_rows():
    for ints in ([1, 2], np.array([1, 2], dtype=np.uint64), [2**64 + 1, 5]):
        got = exact_frac_parts(ints, [])
        assert got.shape == (0, 2) and got.dtype == np.float64
