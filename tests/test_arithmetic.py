import math
import tracemalloc

import numpy as np
import pytest

from corrkit import arithmetic
from corrkit import (
    BudgetError,
    IntegerSet,
    ParameterError,
    additive_energy,
    additive_energy_bruteforce,
    additive_energy_range_closed_form,
    dilation_measure_quadrature,
    dyadic_counterexample,
    integer_range,
    metric_r3_experiment,
    r_k_distinct,
    random_correlation_stats,
    three_ap_count,
    three_ap_count_bruteforce,
)


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


def test_dilation_measure():
    for d in range(1, 11):
        got = dilation_measure_quadrature(d, 5.0, 100)
        assert got == pytest.approx(0.1, abs=1e-3)


def test_metric_experiment_reproducible():
    a = integer_range(64)
    r1 = metric_r3_experiment(a, 0.2, 64, 5, 99)
    r2 = metric_r3_experiment(a, 0.2, 64, 5, 99)
    assert r1 == r2
    assert r1.lower_bound == pytest.approx(2 * 0.2 * three_ap_count(a) / 64**2)


def test_metric_experiment_validation():
    a = integer_range(32)
    with pytest.raises(ParameterError):
        metric_r3_experiment(a, 0.1, 64, 5, 0)
    with pytest.raises(ParameterError):
        metric_r3_experiment(a, 20.0, 32, 5, 0)
    with pytest.raises(BudgetError):
        metric_r3_experiment(integer_range(10**4), 0.1, 10**4, 10**5, 0)


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
