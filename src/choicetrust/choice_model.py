"""Staged choice episodes and attainable-set filtering.

A recorded buying episode moves through four nested stage sets: the
attainable catalog slice, the wishlist, the cart, and the final purchase.
This module validates that nesting and exposes the per-object stage rank
(how deep into the funnel an object survived), which everything downstream
builds on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from ._record import Record, setfield
from .errors import (
    DimensionError,
    DomainError,
    DuplicateItemError,
    EmptyFinalError,
    NestingError,
    UnknownObjectError,
)

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
        coerced = []
        for v in values:
            iv = int(v)
            if iv != v:
                raise DomainError(f"attribute values must be integers, got {v!r}")
            coerced.append(iv)
        if any(v < 0 for v in coerced):
            raise DomainError(f"attribute values must be non-negative, got {values}")
        setfield(self, "values", tuple(coerced))

    def __len__(self) -> int:
        return len(self.values)


class ConstraintRow(Record):
    """One linear restriction `coefficients . attributes  <relation>  bound`.

    Coefficients and the bound are held as exact rationals so that
    feasibility never depends on float rounding.
    """

    __slots__ = ("coefficients", "relation", "bound")

    def __init__(self, coefficients: tuple[Fraction, ...], relation: str, bound: Fraction) -> None:
        rel = _RELATION_ALIASES.get(str(relation))
        if rel is None:
            raise DomainError(f"relation must be one of {RELATIONS}, got {relation!r}")
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


class ChoiceEpisode(Record):
    """One reviewer's four stage sets at one time period (not yet validated)."""

    __slots__ = ("reviewer_id", "period", "attainable", "wishlist", "cart", "final")

    def __init__(
        self,
        reviewer_id: str,
        period: int,
        attainable: tuple[str, ...],
        wishlist: tuple[str, ...],
        cart: tuple[str, ...],
        final: tuple[str, ...],
    ) -> None:
        setfield(self, "reviewer_id", reviewer_id)
        setfield(self, "attainable", tuple(attainable))
        setfield(self, "wishlist", tuple(wishlist))
        setfield(self, "cart", tuple(cart))
        setfield(self, "final", tuple(final))
        if int(period) < 1:
            raise DomainError(f"period must be a positive integer, got {period}")
        setfield(self, "period", int(period))


class ValidatedEpisode(Record):
    """A :class:`ChoiceEpisode` whose stage nesting has been certified.

    Constructed through :func:`validate_episode`; carries the per-object
    stage rank so later derivations never re-walk the stage sets.
    """

    __slots__ = ("reviewer_id", "period", "attainable", "wishlist", "cart", "final", "ranks")

    def __init__(
        self,
        reviewer_id: str,
        period: int,
        attainable: tuple[str, ...],
        wishlist: tuple[str, ...],
        cart: tuple[str, ...],
        final: tuple[str, ...],
        ranks: Mapping[str, int],
    ) -> None:
        setfield(self, "reviewer_id", reviewer_id)
        setfield(self, "period", period)
        setfield(self, "attainable", attainable)
        setfield(self, "wishlist", wishlist)
        setfield(self, "cart", cart)
        setfield(self, "final", final)
        setfield(self, "ranks", ranks)

    @property
    def n(self) -> int:
        return len(self.attainable)


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


def _check_stage(outer: tuple[str, ...], inner: tuple[str, ...], stage: str) -> None:
    seen: set[str] = set()
    for item in inner:
        if item in seen:
            raise DuplicateItemError(f"item {item!r} occurs twice in stage {stage!r}")
        seen.add(item)
    outer_set = set(outer)
    for item in inner:
        if item not in outer_set:
            raise NestingError(stage, item)


def validate_episode(episode: ChoiceEpisode) -> ValidatedEpisode:
    """Certify the stage nesting of an episode.

    The four stage sets must satisfy final <= cart <= wishlist <= attainable
    (adjacent stages may coincide), the final set must be nonempty, and no
    stage may repeat an id.

    Raises:
        DomainError: Empty attainable set.
        DuplicateItemError: An id repeats within one stage.
        NestingError: An item appears in a stage but not its enclosing stage.
        EmptyFinalError: The final set is empty.
    """
    if not episode.attainable:
        raise DomainError("attainable set is empty")
    _check_stage(episode.attainable, episode.attainable, "attainable")
    _check_stage(episode.attainable, episode.wishlist, "wishlist")
    _check_stage(episode.wishlist, episode.cart, "cart")
    _check_stage(episode.cart, episode.final, "final")
    if not episode.final:
        raise EmptyFinalError(f"episode (reviewer {episode.reviewer_id!r}, period {episode.period}) has an empty final set")

    in_wish = set(episode.wishlist)
    in_cart = set(episode.cart)
    in_final = set(episode.final)
    ranks = {
        oid: 3 if oid in in_final else 2 if oid in in_cart else 1 if oid in in_wish else 0
        for oid in episode.attainable
    }
    return ValidatedEpisode(
        reviewer_id=episode.reviewer_id,
        period=episode.period,
        attainable=episode.attainable,
        wishlist=episode.wishlist,
        cart=episode.cart,
        final=episode.final,
        ranks=ranks,
    )


def stage_rank(episode: ValidatedEpisode, obj: str) -> int:
    """Depth an object survived to: 0 attainable-only, 1 wishlist, 2 cart, 3 final."""
    try:
        return episode.ranks[obj]
    except KeyError:
        raise UnknownObjectError(
            f"object {obj!r} is not in the attainable set of period {episode.period}"
        ) from None
