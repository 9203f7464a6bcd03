"""Generators for the sequence families the statistics are computed on.

Randomness uses numpy's PCG64 behind ``default_rng``; Monte Carlo code
derives one independent stream per trial from ``SeedSequence([seed,
trial])`` so results are reproducible regardless of how trials are
scheduled.

Dilated sequences {a_n * alpha} are reduced mod 1 in exact integer
arithmetic before rounding once to float64: a float alpha equals p/q
with q a power of two, so {a p / q} = ((a p) mod q) / q.  When q <= 2^64
and the integers form an int or uint array, alpha 2^64 is an integer
and the grid of {a alpha} is a G mod 2^64 with G = alpha 2^64 mod 2^64:
one wrapping uint64 product for a whole batch of alphas
(_dilated_grid), converted to float64 once; otherwise the reduction
uses Python ints.  Naive float multiplication would lose exactly the
low-order bits that determine the fractional part for large a_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import PointSequence
from .errors import ParameterError

KINDS = (
    "uniform_random",
    "kronecker",
    "polynomial",
    "dilated",
    "dyadic_counterexample",
    "van_der_corput",
)


def first_out_of_order(ints) -> int | None:
    """Index of the first entry that is not positive or not above its
    predecessor; None when the entries are strictly increasing and positive."""
    prev = 0
    for i, v in enumerate(ints):
        if v <= prev:
            return i
        prev = v
    return None


@dataclass(frozen=True)
class IntegerSet:
    """A strictly increasing tuple of positive integers."""

    elements: tuple[int, ...]

    def __post_init__(self):
        if len(self.elements) == 0:
            raise ParameterError("integer set must be nonempty")
        if first_out_of_order(self.elements) is not None:
            raise ParameterError("elements must be strictly increasing and positive")

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one sequence family; see ``generate``."""

    kind: str
    alpha: float | None = None
    degree: int | None = None
    seed: int | None = None
    integers: tuple[int, ...] | None = field(default=None)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown generator kind {self.kind!r}")
        if self.kind == "polynomial" and (self.degree is None or self.degree < 1):
            raise ParameterError("polynomial generator needs degree >= 1")
        if self.kind in ("kronecker", "polynomial", "dilated"):
            if self.alpha is None:
                raise ParameterError(f"{self.kind} generator needs alpha")
            _check_alpha([self.alpha])
        if self.kind == "dilated":
            if not self.integers:
                raise ParameterError("dilated generator needs an integer sequence")
            IntegerSet(tuple(self.integers))
        if self.kind == "uniform_random" and self.seed is None:
            raise ParameterError("uniform_random generator needs a seed")


def _check_seed(seed, name="seed") -> int:
    if int(seed) < 0:  # numpy takes no negative seed or trial
        raise ParameterError(f"{name} must be >= 0, got {seed}")
    return int(seed)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent PCG64 stream for (seed, trial)."""
    return np.random.default_rng(np.random.SeedSequence([_check_seed(seed),
                                                         _check_seed(trial, "trial")]))


def _check_alpha(alphas) -> None:
    bad = [a for a in alphas if not math.isfinite(a)]
    if bad:
        raise ParameterError(f"alpha must be finite, got {bad[0]}")


def _dilated_grid(integers: np.ndarray, alphas) -> np.ndarray:
    """a G mod 2^64 for each alpha, one row per alpha, and each a of an
    integer array, with G = alpha 2^64 mod 2^64: the grid of {a alpha}
    (core.to_grid), exactly, for every alpha that is a multiple of 2^-64.
    One wrapping uint64 product."""
    g = [p * (2**64 // q) % 2**64 for p, q in (float(x).as_integer_ratio() for x in alphas)]
    return np.array(g, dtype=np.uint64)[:, None] * integers.astype(np.uint64, copy=False)


def exact_frac_parts(integers, alpha) -> np.ndarray:
    """{a * alpha} computed exactly per entry, rounded once to float64.

    alpha is one float, giving one value per integer, or a 1-D sequence
    of floats, giving one row per alpha.
    """
    alphas = np.asarray(alpha, dtype=np.float64).ravel().tolist()
    _check_alpha(alphas)
    ratios = [x.as_integer_ratio() for x in alphas]
    if not isinstance(integers, np.ndarray):
        integers = list(integers)
    arr = np.asarray(integers)
    if all(q <= 2**64 for _, q in ratios) and arr.dtype.kind in "iu":
        # every alpha is a multiple of 2^-64: its grid converts to float64
        # once (correctly rounded), and the scaling by 2^-64 is exact
        vals = _dilated_grid(arr, alphas).astype(np.float64)
        vals *= 2.0**-64
    else:
        # q is a power of two, so ((a*p) mod q)/q is one correctly-rounded division
        vals = np.asarray([[((int(a) * p) % q) / q for a in integers] for p, q in ratios],
                          dtype=np.float64).reshape(len(ratios), arr.size)
    # every value lies in [0, 1], 1 only where the rounding reached q:
    # this is vals % 1.0 without its division
    vals[vals == 1.0] = 0.0
    return vals[0] if np.ndim(alpha) == 0 else vals


def uniform_random(n: int, seed: int) -> PointSequence:
    """n i.i.d. uniform points from the PCG64 stream of ``seed``."""
    _check_n(n)
    return PointSequence(np.random.default_rng(_check_seed(seed)).random(n))


def kronecker(n: int, alpha: float) -> PointSequence:
    """{alpha}, {2 alpha}, ..., {n alpha}."""
    _check_n(n)
    return PointSequence(exact_frac_parts(range(1, n + 1), alpha))


def polynomial(n: int, alpha: float, degree: int) -> PointSequence:
    """{alpha * m^degree} for m = 1..n."""
    _check_n(n)
    if degree < 1:
        raise ParameterError("degree must be >= 1")
    return PointSequence(exact_frac_parts((m**degree for m in range(1, n + 1)), alpha))


def dilated(n: int, integers, alpha: float) -> PointSequence:
    """{a_m * alpha} for the first n entries of a strictly increasing integer list."""
    _check_n(n)
    ints = [int(a) for a in integers][:n]
    if len(ints) < n:
        raise ParameterError(f"integer sequence has only {len(ints)} entries, need {n}")
    IntegerSet(tuple(ints))
    return PointSequence(exact_frac_parts(ints, alpha))


def dyadic_counterexample(n: int) -> PointSequence:
    """The doubled dyadic sequence 0, 0, 1/2, 1/2, 1/4, 1/4, 3/4, 3/4, ...

    x_m = (2 ceil(k/2) - 1) / 2^r for m = 2^r + k, 1 <= k <= 2^r, and
    x_1 = 0.  Among the first 2^r points every value occurs exactly
    twice and distinct values are 2/2^r apart, which pins R_2 = 1 while
    R_3 = 0 for scales below 2 at N = 2^r.
    """
    _check_n(n)
    j = np.arange(n)  # j = m - 1 = 2^r + k - 1, so 2^r is the largest power of two <= j
    block = np.ldexp(1.0, np.frexp(j)[1] - 1)
    k = j + 1 - block
    out = (2 * ((k + 1) // 2) - 1) / block % 1.0
    out[0] = 0.0
    return PointSequence(out)


def van_der_corput(n: int) -> PointSequence:
    """Base-2 radical-inverse sequence; a structured non-random example."""
    _check_n(n)
    m = np.arange(1, n + 1)
    out = np.zeros(n)
    denom = 2
    # lowest bit first: each point adds its binary digits' terms in the order
    # of the per-point radical inverse, so the doubles equal its doubles
    for _ in range(int(n).bit_length()):
        out += (m & 1) / denom
        m >>= 1
        denom *= 2
    return PointSequence(out)


def generate(spec: GeneratorSpec, n: int) -> PointSequence:
    """First n terms of the family described by ``spec``, reduced mod 1."""
    _check_n(n)
    if spec.kind == "uniform_random":
        return uniform_random(n, spec.seed)
    if spec.kind == "kronecker":
        return kronecker(n, spec.alpha)
    if spec.kind == "polynomial":
        return polynomial(n, spec.alpha, spec.degree)
    if spec.kind == "dilated":
        return dilated(n, spec.integers, spec.alpha)
    if spec.kind == "dyadic_counterexample":
        return dyadic_counterexample(n)
    if spec.kind == "van_der_corput":
        return van_der_corput(n)
    raise ParameterError(f"unknown generator kind {spec.kind!r}")


def _check_n(n: int) -> None:
    if int(n) < 1:
        raise ParameterError("n must be >= 1")
