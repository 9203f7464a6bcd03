"""corrkit: higher-order correlation statistics of sequences modulo one.

Fast sorted-window counters for the correlation functions R_k / R_k*,
their scale averages C_k*, exact sweep-line moments of the interval
count F(t,s,N), additive-energy combinatorics, equidistribution
diagnostics, and brute-force oracles plus a verification harness that
exercises the identities and inequalities connecting them all.
"""

from .arithmetic import (
    IntegerSet,
    MetricExperimentReport,
    additive_energy,
    additive_energy_bruteforce,
    additive_energy_range_closed_form,
    integer_range,
    metric_r3_experiment,
    random_correlation_stats,
    three_ap_count,
    three_ap_count_bruteforce,
)
from .averaged import c_k_star, c_k_star_local
from .core import (
    PointSequence,
    falling_factorial,
    order_comparison_threshold,
    signed_distance,
    stirling_first_unsigned,
    stirling_second,
)
from .correlations import (
    CorrelationReport,
    brute_force_r_k,
    oracle_budget,
    r_k_box,
    r_k_consecutive,
    r_k_distinct,
    r_k_star,
    r_k_testfn,
)
from .distribution import (
    DyadicProfile,
    density_moment_lower_bound,
    dyadic_profile,
    ecdf,
    star_discrepancy,
)
from .errors import BudgetError, ConsistencyError, CorrkitError, FormatError, ParameterError
from .intervalstats import (
    MomentReport,
    SweepProfile,
    bell_prediction,
    f_count,
    g_eval,
    i_k_via_correlation,
    moments,
    sweep_profile,
)
from .io import read_integers, read_points, write_points
from .seqgen import (
    GeneratorSpec,
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
from .verify import DEFAULT_SEED, VerifyReport, run_verify

__version__ = "0.1.0"
