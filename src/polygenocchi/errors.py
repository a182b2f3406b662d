"""Exception types shared across the package.

Everything derives from PolyGenocchiError so callers (notably the CLI)
can distinguish library failures from programming errors.
"""


class PolyGenocchiError(Exception):
    """Base class for all library errors."""


class DivisionByNonUnit(PolyGenocchiError):
    """Series division needs a denominator whose lowest nonzero
    coefficient is a nonzero scalar."""


class ValuationError(PolyGenocchiError):
    """Numerator valuation is smaller than denominator valuation, so the
    quotient is not a power series."""


class CompositionError(PolyGenocchiError):
    """Series composition needs an inner series with zero constant term
    and an outer series with scalar coefficients."""


class RangeError(PolyGenocchiError):
    """Parameter outside the supported range (e.g. polylog order |k| > 16)."""


class SingularDenominator(PolyGenocchiError):
    """Family parameters make a generating-function denominator vanish
    to higher order than the numerator (e.g. lam = -1 for Genocchi-type
    kernels, mu = 1 for Frobenius)."""


class ConfigError(PolyGenocchiError):
    """Verification configuration is invalid."""
