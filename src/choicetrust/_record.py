"""The base class of the package's immutable record types, and its field readers.

A record lists its fields in ``__slots__``. The base class's one constructor
binds them in slot order, positionally or by keyword, with no defaults; a
record that checks or coerces a field defines its own ``__init__`` and sets
each field once through :data:`setfield`. The base class also supplies
equality, hashing, ``repr``, immutability and copying over those fields, in
slot order. No method is generated when a record class is defined.
"""

from __future__ import annotations

import re
import reprlib
from decimal import Decimal
from fractions import Fraction
from typing import Any, Callable

from .errors import DomainError, quote

# How a record's ``__init__`` sets a field; under this name, because a field
# and so an ``__init__`` parameter may be called ``object``.
setfield = object.__setattr__


def as_int(value: Any, what: str) -> int:
    """``value`` as an ``int``; a bool, or a value ``int()`` would truncate or cannot read, is a DomainError."""
    try:
        if (number := int(value)) == value and not isinstance(value, bool):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{what} must be an integer, got {quote(value)}")


# Longest text a probability may be given as, and largest power of ten its
# exponent may name. The exact binomial summary computes with p's numerator
# and denominator, so this bounds their size.
MAX_P_DIGITS = 40

_P_FORM = re.compile(r"[+-]?(?:\d+/\d*[1-9]\d*|(?:\d+\.?\d*|\.\d+)(?:[eE]([+-]?\d+))?)")

# Largest denominator of a probability given as a number: text within
# MAX_P_DIGITS has at most 76 digits of one, as has every float >= 1e-60. A
# Decimal with more places than MAX_P_PLACES is refused before it becomes a
# Fraction: without trailing zeros its denominator is over 2**320 > 10**80.
MAX_P_DENOMINATOR = 10**80
MAX_P_PLACES = 320


def as_probability(value: Any, what: str = "p") -> Fraction:
    """``value`` as an exact fraction in [0, 1]; anything else is a DomainError.

    Text is a decimal such as 0.25 or 1e-3, or a fraction such as 1/2, of at
    most :data:`MAX_P_DIGITS` characters with |exponent| <= MAX_P_DIGITS. A
    number is taken exactly, and its denominator may be at most
    :data:`MAX_P_DENOMINATOR`; a bool, None, NaN or an infinity is refused.
    """
    outside = f"{what} must be within [0, 1], got {{}}"
    if isinstance(value, str):
        form = _P_FORM.fullmatch(value.strip()) if len(value) <= MAX_P_DIGITS else None
        if form is None or form[1] and abs(int(form[1])) > MAX_P_DIGITS:
            raise DomainError(
                f"{what} must be a decimal such as 0.25 or 1e-3, or a fraction such as 1/2, of at most "
                f"{MAX_P_DIGITS} characters with |exponent| <= {MAX_P_DIGITS}, got {reprlib.repr(value)}"
            )
        prob = Fraction(form[0])
    else:
        # Fraction(Decimal) first builds 10**-exponent, so a Decimal's range and places are read as given.
        finite_decimal = isinstance(value, Decimal) and value.is_finite()
        if finite_decimal and not 0 <= value <= 1:
            raise DomainError(outside.format(quote(value)))
        deep = finite_decimal and value.as_tuple().exponent < -MAX_P_PLACES
        try:
            prob = None if isinstance(value, bool) else Fraction(0 if deep else value)
        except (TypeError, ValueError, OverflowError):
            prob = None
        if prob is None:
            raise DomainError(f"{what} must be a finite number or text such as 1/2, got {quote(value, reprlib.repr)}")
        if deep or prob.denominator > MAX_P_DENOMINATOR:
            raise DomainError(f"{what} must have a denominator of at most 10**80, got one larger")
    if not 0 <= prob <= 1:
        raise DomainError(outside.format(quote(value)))
    return prob


class Record:
    """Construction, equality, hash, repr, immutability and copying over ``__slots__`` fields.

    A record is built from all of its fields, in slot order, positionally or
    by keyword; none has a default. A missing, unknown, repeated or extra
    argument is a TypeError that names the fields. A subclass's fields are
    its parent's, then any slots it adds. Two records are equal when they are of the same
    class and their fields are equal. A record pickles and copies as its
    class called with its field values, so the copy passes through
    ``__init__`` and its checks again.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    # Each field's slot setter, in field order: calling one directly is the
    # fastest way to set a field, which matters on the scoring hot path.
    _setters: tuple[Callable[[Any, Any], None], ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.__match_args__ += cls.__dict__.get("__slots__", ())
        cls._setters += tuple([getattr(cls, name).__set__ for name in cls.__dict__.get("__slots__", ())])

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict[str, Any]) -> tuple:
        """All field values in slot order, from arguments given partly or wholly by keyword."""
        fields = cls.__match_args__
        rest = fields[len(args):]
        if len(args) + len(kwargs) == len(fields):
            try:  # with as many arguments as fields, the keywords name exactly the rest
                return args + tuple([kwargs[name] for name in rest])
            except KeyError:
                pass
        problems = [f"{len(args) - len(fields)} extra positional argument(s)"] if len(args) > len(fields) else []
        for what, names in (
            ("given both positionally and by keyword", [name for name in fields[:len(args)] if name in kwargs]),
            ("unknown", [name for name in kwargs if name not in fields]),
            ("missing", [name for name in rest if name not in kwargs]),
        ):
            if names:
                problems.append(f"field(s) {what}: {', '.join(names)}")
        raise TypeError(f"{cls.__qualname__}({', '.join(fields)}): {'; '.join(problems)}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()
