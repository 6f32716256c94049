"""Information indexing of graded lists and entropy-maximizing choice.

Every list element carries a membership grade mu and a non-membership grade
nu with mu + nu <= 1; the remainder is indeterminacy. The information index
of an element is the two-term Shannon entropy of its grades in bits, and the
choice from a list is the element with the highest index. Folding the list
pairwise (duel the running winner against the next element) selects the same
element as choosing from the whole list at once.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Sequence

from ._pipeline import Record, setfield
from .errors import EmptyListError, GradeError, quote

__all__ = [
    "IfsElement",
    "IfsList",
    "entropy",
    "entropy_of_grades",
    "choose_from_list",
    "choice_correspondence",
    "fold_pairwise",
    "make_list",
]

_GRADE_TOLERANCE = 1e-12


class IfsElement(Record):
    """One alternative graded by membership mu and non-membership nu."""

    __slots__ = ("id", "mu", "nu")

    def __init__(self, id: str, mu: float, nu: float) -> None:
        for name, g in (("mu", mu), ("nu", nu)):
            if not 0.0 <= g <= 1.0:
                raise GradeError(id, f"{name}={quote(g, str)} outside [0, 1]")
        if mu + nu > 1.0 + _GRADE_TOLERANCE:
            raise GradeError(id, f"mu + nu = {quote(mu + nu, str)} exceeds 1")
        setfield(self, "id", id)
        setfield(self, "mu", mu)
        setfield(self, "nu", nu)

    @property
    def indeterminacy(self) -> float:
        return max(0.0, 1.0 - self.mu - self.nu)


class IfsList(Record):
    """An ordered list of graded alternatives; position matters for ties."""

    __slots__ = ("elements",)

    def __init__(self, elements: tuple[IfsElement, ...]) -> None:
        setfield(self, "elements", tuple(elements))

    def __len__(self) -> int:
        return len(self.elements)


def entropy_of_grades(mu: float, nu: float) -> float:
    """Two-term entropy -(mu*log2(mu) + nu*log2(nu)) with 0*log(0) = 0.

    Base 2 puts the balanced half/half grading at exactly 1 bit. The two
    terms need not sum to one, so the index can exceed 1 (it peaks at
    2/(e*ln 2) when both grades equal 1/e); it is symmetric in mu and nu.
    """
    h = 0.0
    for g in (mu, nu):
        if g > 0.0:
            h -= g * math.log2(g)
    return h


def entropy(element: IfsElement) -> float:
    """Information index of one element."""
    return entropy_of_grades(element.mu, element.nu)


def _key(element: IfsElement) -> tuple[float, float]:
    # Higher entropy wins; among equals, lower indeterminacy wins.
    return (-entropy(element), element.indeterminacy)


def choose_from_list(lst: IfsList) -> IfsElement:
    """Element with the highest information index.

    Ties break toward smaller indeterminacy, then toward the earlier list
    position, so the choice is always a single deterministic element. Use
    :func:`choice_correspondence` for the full set of index maximizers.
    """
    if not lst.elements:
        raise EmptyListError("cannot choose from an empty list")
    return min(lst.elements, key=_key)


def choice_correspondence(lst: IfsList) -> tuple[IfsElement, ...]:
    """All elements attaining the maximal information index, in list order."""
    if not lst.elements:
        raise EmptyListError("cannot choose from an empty list")
    top = max(entropy(e) for e in lst.elements)
    return tuple(e for e in lst.elements if entropy(e) == top)


def _duel(current: IfsElement, challenger: IfsElement) -> IfsElement:
    # The running winner keeps its seat unless strictly beaten.
    return challenger if _key(challenger) < _key(current) else current


def fold_pairwise(lst: IfsList) -> IfsElement:
    """Left fold of the pairwise duel; agrees with :func:`choose_from_list`."""
    if not lst.elements:
        raise EmptyListError("cannot choose from an empty list")
    return reduce(_duel, lst.elements)


def make_list(grades: Sequence[tuple[str, float, float]]) -> IfsList:
    """Convenience constructor from (id, mu, nu) triples."""
    return IfsList(elements=tuple(IfsElement(id=i, mu=m, nu=n) for i, m, n in grades))
