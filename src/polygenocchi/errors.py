"""Exception types shared across the package, and the two value rules
that raise ConfigError.

Everything derives from PolyGenocchiError so callers (notably the CLI)
can distinguish library failures from programming errors.
"""

from fractions import Fraction


class PolyGenocchiError(Exception):
    """Base class for all library errors."""


class DivisionByNonUnit(PolyGenocchiError):
    """Series division needs a denominator whose lowest nonzero
    coefficient is a nonzero scalar."""


class ValuationError(PolyGenocchiError):
    """Numerator valuation is smaller than denominator valuation, so the
    quotient is not a power series."""


class RangeError(PolyGenocchiError):
    """Parameter outside the supported range (e.g. polylog order |k| > 16)."""


class SingularDenominator(PolyGenocchiError):
    """Family parameters make a generating-function denominator vanish
    to higher order than the numerator (e.g. lam = -1 for Genocchi-type
    kernels, mu = 1 for Frobenius)."""


class ConfigError(PolyGenocchiError):
    """A check grid, parameter point, family spec or exact scalar has an
    invalid value."""


def exact_int(value, name: str) -> int:
    """``value`` if it is an int and not a bool, else ConfigError."""
    if type(value) is not int:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def exact_rational(value, name: str) -> Fraction:
    """An int or Fraction ``value`` as a Fraction; a float, which is not
    the rational it stands in for, or a bool raises ConfigError."""
    if type(value) is not int and not isinstance(value, Fraction):
        raise ConfigError(f"{name} must be an int or Fraction, got {value!r}")
    return Fraction(value)
