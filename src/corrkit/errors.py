"""Exception types shared across the package."""


class CorrkitError(Exception):
    """Base class for all corrkit errors."""


class ParameterError(CorrkitError, ValueError):
    """Out-of-range or inconsistent statistic parameters."""


class BudgetError(CorrkitError, RuntimeError):
    """A brute-force or Monte Carlo computation would exceed its work budget."""


class FormatError(CorrkitError, ValueError):
    """Malformed input file."""


class ConsistencyError(CorrkitError, RuntimeError):
    """An internal invariant of a computed result does not hold."""
