"""Exception types shared across the library."""

from __future__ import annotations

from typing import Any, Callable, Iterable

__all__ = [
    "ChoiceTrustError",
    "DimensionError",
    "DuplicateItemError",
    "NestingError",
    "EmptyFinalError",
    "UnknownObjectError",
    "ShapeError",
    "DomainError",
    "EmptyListError",
    "GradeError",
    "IncompleteTableError",
]


def quote(value: Any, form: Callable[[Any], str] = repr) -> str:
    """``form(value)`` for an error message, or a stand-in when ``value`` is too long to print.

    Python refuses to write an int of more than 4300 digits, and so any value
    that holds one, with a ValueError; a message quoting such a value says so instead.
    """
    try:
        return form(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


# An id holding one of these would make a rendered set ambiguous.
_SET_SYNTAX = frozenset(",{} '\"")


def render_set(ids: Iterable[str]) -> str:
    """A set of ids for a message, such as ``{a,b}``.

    An id holding a comma, a brace, a space or a quote is shown by ``repr``,
    so ``{a,'a,b'}`` cannot be read as ``{a,a,b}``.
    """
    return "{" + ",".join(oid if _SET_SYNTAX.isdisjoint(oid) else repr(oid) for oid in ids) + "}"


class ChoiceTrustError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(ChoiceTrustError):
    """Attribute vectors and constraint rows disagree on dimension."""


class DuplicateItemError(ChoiceTrustError):
    """An object id occurs more than once within a single stage set."""


class NestingError(ChoiceTrustError):
    """A stage set contains an item missing from its enclosing stage."""

    def __init__(self, stage: str, item: str) -> None:
        super().__init__(f"item {quote(item)} appears in stage {stage!r} but not in the enclosing stage")
        self.stage = stage
        self.item = item


class EmptyFinalError(ChoiceTrustError):
    """The final choice set of an episode is empty."""


class UnknownObjectError(ChoiceTrustError):
    """A referenced object id is not part of any catalog in scope."""


class ShapeError(ChoiceTrustError):
    """Matrix or pattern-vector dimensions are inconsistent."""


class DomainError(ChoiceTrustError):
    """An argument lies outside the domain an operation is defined on."""


class EmptyListError(ChoiceTrustError):
    """A choice was requested from an empty list."""


class GradeError(ChoiceTrustError):
    """Fuzzy membership grades violate 0 <= mu, nu and mu + nu <= 1."""

    def __init__(self, element_id: str, message: str) -> None:
        super().__init__(f"element {quote(element_id)}: {message}")
        self.element_id = element_id


class IncompleteTableError(DomainError):
    """A choice-function table does not cover every nonempty subset."""

    def __init__(self, missing: tuple[tuple[str, ...], ...]) -> None:
        shown = ", ".join(render_set(s) for s in missing[:5])
        more = "" if len(missing) <= 5 else f" (+{len(missing) - 5} more)"
        super().__init__(f"choice table is missing subsets: {shown}{more}")
        self.missing = missing
