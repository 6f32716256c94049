"""Staged choice episodes and attainable-set filtering.

A recorded buying episode moves through four nested stage sets: the
attainable catalog slice, the wishlist, the cart, and the final purchase.
This module validates that nesting and exposes the per-object stage rank
(how deep into the funnel an object survived), which everything downstream
builds on.

:class:`ChoiceEpisode`, :class:`ValidatedEpisode` and :func:`validate_episode`
live in :mod:`choicetrust._pipeline`, which scoring runs, and are re-exported
here. ``choicetrust score`` never imports this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from ._pipeline import ChoiceEpisode, ValidatedEpisode, validate_episode
from ._record import Record, as_int, quote, setfield
from .errors import DimensionError, DomainError, UnknownObjectError

__all__ = [
    "AttributeVector",
    "ConstraintRow",
    "ChoiceEpisode",
    "ValidatedEpisode",
    "attainable_set",
    "validate_episode",
    "stage_rank",
]

RELATIONS = ("<=", "=", ">=")

_RELATION_ALIASES = {
    "<=": "<=", "=<": "<=", "≤": "<=",
    "=": "=", "==": "=",
    ">=": ">=", "=>": ">=", "≥": ">=",
}


class AttributeVector(Record):
    """Non-negative integer attribute values of one catalog object."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]) -> None:
        coerced = tuple([as_int(v, "attribute value") for v in values])
        if any(v < 0 for v in coerced):
            raise DomainError(f"attribute values must be non-negative, got {quote(values, str)}")
        setfield(self, "values", coerced)

    def __len__(self) -> int:
        return len(self.values)


class ConstraintRow(Record):
    """One linear restriction `coefficients . attributes  <relation>  bound`.

    Coefficients and the bound are held as exact rationals so that
    feasibility never depends on float rounding.
    """

    __slots__ = ("coefficients", "relation", "bound")

    def __init__(self, coefficients: tuple[Fraction, ...], relation: str, bound: Fraction) -> None:
        rel = _RELATION_ALIASES.get(relation) if isinstance(relation, str) else None
        if rel is None:
            raise DomainError(f"relation must be one of {RELATIONS}, got {quote(relation)}")
        setfield(self, "relation", rel)
        setfield(self, "coefficients", tuple(Fraction(c) for c in coefficients))
        setfield(self, "bound", Fraction(bound))

    def satisfied_by(self, vector: AttributeVector) -> bool:
        """Evaluate this row against one attribute vector."""
        if len(vector) != len(self.coefficients):
            raise DimensionError(
                f"constraint row has {len(self.coefficients)} coefficients but "
                f"vector has {len(vector)} attributes"
            )
        total = sum(c * v for c, v in zip(self.coefficients, vector.values))
        if self.relation == "<=":
            return total <= self.bound
        if self.relation == ">=":
            return total >= self.bound
        return total == self.bound


def attainable_set(
    catalog: Mapping[str, AttributeVector],
    constraints: Sequence[ConstraintRow],
) -> tuple[str, ...]:
    """Filter a catalog down to the ids satisfying every constraint row.

    Args:
        catalog: Mapping of object id to attribute vector. Iteration order
            of the mapping is the fixed catalog order and is preserved.
        constraints: Linear rows, all of the catalog's dimension.

    Returns:
        The ids whose vectors satisfy every row, in catalog order.

    Raises:
        DimensionError: If any row's width differs from a vector's length.
    """
    dims = {len(v) for v in catalog.values()}
    if len(dims) > 1:
        raise DimensionError(f"catalog vectors have mixed dimensions {sorted(dims)}")
    for row in constraints:
        if dims and len(row.coefficients) != next(iter(dims)):
            raise DimensionError(
                f"constraint row has {len(row.coefficients)} coefficients but catalog "
                f"dimension is {next(iter(dims))}"
            )
    return tuple(
        oid for oid, vec in catalog.items() if all(row.satisfied_by(vec) for row in constraints)
    )


def stage_rank(episode: ValidatedEpisode, obj: str) -> int:
    """Depth an object survived to: 0 attainable-only, 1 wishlist, 2 cart, 3 final."""
    try:
        return episode.ranks[episode.attainable.index(obj)]
    except ValueError:
        raise UnknownObjectError(
            f"object {quote(obj)} is not in the attainable set of period {quote(episode.period)}"
        ) from None
