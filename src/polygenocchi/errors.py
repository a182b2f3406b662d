"""Exception types shared across the package, the two value rules that
raise ConfigError, and ``Immutable``, the base of the validated value
types.

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


def _rebuild(cls, fields: dict):
    return cls(**fields)


class Immutable:
    """Base of the validated value types (``ParamPoint``, ``FamilySpec``,
    ``CheckConfig``): slots that the constructor sets once, through
    ``_set``, after its rules have passed.

    ``_fields`` names the constructor's arguments.  They alone make the
    repr, the hash and equality, which holds only between values of one
    class, so a point never equals the tuple of its coordinates.
    ``_replace(**changes)``, a copy and a pickle all build the new value
    through the constructor, so every rule holds for it too.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})

    def __reduce__(self):
        return _rebuild, (type(self), self._asdict())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"
