"""The base class of the package's immutable record types, and its field readers.

A record lists its fields in ``__slots__`` and sets each one once, in its own
``__init__``, through :data:`setfield`. This base class supplies
equality, hashing, ``repr``, immutability and copying over those fields, in
slot order. No method is generated when a record class is defined.
"""

from __future__ import annotations

import re
import reprlib
from fractions import Fraction
from typing import Any

from .errors import DomainError

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
    raise DomainError(f"{what} must be an integer, got {value!r}")


# Longest text a probability may be given as, and largest power of ten its
# exponent may name. The exact binomial summary computes with p's numerator
# and denominator, so this bounds their size.
MAX_P_DIGITS = 40

_P_FORM = re.compile(r"[+-]?(?:\d+/\d*[1-9]\d*|(?:\d+\.?\d*|\.\d+)(?:[eE]([+-]?\d+))?)")


def as_probability(value: Any, what: str = "p") -> Fraction:
    """``value`` as an exact fraction in [0, 1]; anything else is a DomainError.

    Text is a decimal such as 0.25 or 1e-3, or a fraction such as 1/2, of at
    most :data:`MAX_P_DIGITS` characters with |exponent| <= MAX_P_DIGITS. A
    number is taken exactly; a bool, None, NaN or an infinity is refused.
    """
    if isinstance(value, str):
        form = _P_FORM.fullmatch(value.strip()) if len(value) <= MAX_P_DIGITS else None
        if form is None or form[1] and abs(int(form[1])) > MAX_P_DIGITS:
            raise DomainError(
                f"{what} must be a decimal such as 0.25 or 1e-3, or a fraction such as 1/2, of at most "
                f"{MAX_P_DIGITS} characters with |exponent| <= {MAX_P_DIGITS}, got {reprlib.repr(value)}"
            )
        prob = Fraction(form[0])
    else:
        try:
            prob = None if isinstance(value, bool) else Fraction(value)
        except (TypeError, ValueError, OverflowError):
            prob = None
        if prob is None:
            raise DomainError(f"{what} must be a finite number or text such as 1/2, got {reprlib.repr(value)}")
    if not 0 <= prob <= 1:
        raise DomainError(f"{what} must be within [0, 1], got {value!r}")
    return prob


class Record:
    """Equality, hash, repr, immutability and copying over ``__slots__`` fields.

    Two records are equal when they are of the same class and their fields
    are equal. A record pickles and copies as its class called with its field
    values, so the copy passes through ``__init__`` and its checks again.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()
