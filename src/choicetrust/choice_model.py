"""Staged choice episodes and attainable-set filtering.

A recorded buying episode moves through four nested stage sets: the
attainable catalog slice, the wishlist, the cart, and the final purchase.
This module validates that nesting and exposes the per-object stage rank
(how deep into the funnel an object survived), which everything downstream
builds on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from ._record import Record, as_int, quote, setfield
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
        setfield(self, "period", as_int(period, "period"))
        if self.period < 1:
            raise DomainError(f"period must be a positive integer, got {quote(period, str)}")


class ValidatedEpisode(Record):
    """A :class:`ChoiceEpisode` whose stage nesting is certified, with its stage ranks.

    The stage sets follow :class:`ChoiceEpisode`'s rules and must satisfy
    final <= cart <= wishlist <= attainable (adjacent stages may coincide),
    the final set must be nonempty, and no stage may repeat an id. Stage by
    stage, outermost first, one pass checks repeats, then nesting, then
    records how deep each item reached: its rank. ``ranks[i]`` is the stage
    rank of ``attainable[i]``, so no later derivation re-walks the stage
    sets. ``ranks`` may be omitted; given, it must equal what the walk finds.

    Raises:
        DomainError: Empty attainable set, or ranks that disagree with the stage sets.
        DuplicateItemError: An id repeats within one stage.
        NestingError: An item appears in a stage but not its enclosing stage.
        EmptyFinalError: The final set is empty.
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
        ranks: Iterable[int] | None = None,
    ) -> None:
        ChoiceEpisode.__init__(self, reviewer_id, period, attainable, wishlist, cart, final)
        if not self.attainable:
            raise DomainError("attainable set is empty")
        depth: dict[str, int] = {}
        for level, stage in enumerate(("attainable", "wishlist", "cart", "final")):
            items = getattr(self, stage)
            if len(set(items)) < len(items):
                first: dict[str, int] = {}
                repeat = next(item for i, item in enumerate(items) if first.setdefault(item, i) != i)
                raise DuplicateItemError(f"item {quote(repeat)} occurs twice in stage {stage!r}")
            for item in items:
                # Every item of the enclosing stage, and only those, reached level - 1.
                if depth.get(item, -1) != level - 1:
                    raise NestingError(stage, item)
                depth[item] = level
        if not self.final:
            raise EmptyFinalError(f"episode (reviewer {self.reviewer_id!r}, period {quote(self.period)}) has an empty final set")
        walked = tuple(depth.values())  # in catalog order: the attainable stage came first
        if ranks is not None and tuple(ranks) != walked:
            raise DomainError(
                f"need one stage rank per attainable object, {walked} by its stage sets, got {quote(tuple(ranks))}"
            )
        setfield(self, "ranks", walked)

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


def validate_episode(episode: ChoiceEpisode | ValidatedEpisode) -> ValidatedEpisode:
    """Certify the stage nesting of an episode and rank its objects (see :class:`ValidatedEpisode`).

    A ``ValidatedEpisode`` is returned as it is: its constructor walked its stage sets, and it cannot change.
    """
    if isinstance(episode, ValidatedEpisode):
        return episode
    return ValidatedEpisode(
        episode.reviewer_id, episode.period, episode.attainable, episode.wishlist, episode.cart, episode.final
    )


def stage_rank(episode: ValidatedEpisode, obj: str) -> int:
    """Depth an object survived to: 0 attainable-only, 1 wishlist, 2 cart, 3 final."""
    try:
        return episode.ranks[episode.attainable.index(obj)]
    except ValueError:
        raise UnknownObjectError(
            f"object {quote(obj)} is not in the attainable set of period {quote(episode.period)}"
        ) from None
