"""Brute-force consistency checks for small complete choice functions.

A choice function table records one chosen element for every nonempty subset
of a ground set (n <= 6). Contraction consistency demands that shrinking a
set around its chosen element never changes the choice; rationalizability
asks for a single total order whose maximizer reproduces the whole table.
Both are checked exhaustively.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from ._pipeline import Record, as_int
from .errors import DomainError, IncompleteTableError, quote, render_set
from .pattern_runs import RunCount

__all__ = [
    "ChoiceFunctionTable",
    "ContractionViolation",
    "ContractionResult",
    "Lemma2Class",
    "check_contraction",
    "rationalizable",
    "induced_table",
    "classify_lemma2",
]

MAX_GROUND = 6


class ContractionViolation(Record):
    """A nested pair whose choices disagree although they should not."""

    __slots__ = ("small", "large", "chosen_large", "chosen_small")

    def describe(self) -> str:
        return (
            f"{render_set(self.small)} within {render_set(self.large)}: "
            f"large set chose {self.chosen_large!r} (still available) but "
            f"small set chose {self.chosen_small!r}"
        )


class ContractionResult(Record):
    __slots__ = ("violations",)

    @property
    def consistent(self) -> bool:
        return not self.violations


class Lemma2Class:
    STRONG = "Strong"
    WEAK = "Weak"
    NEITHER = "Neither"


class ChoiceFunctionTable:
    """Complete choice data: a chosen member for every nonempty subset."""

    def __init__(self, ground_set: Sequence[str], choices: Mapping[frozenset[str], str]) -> None:
        ground = tuple(ground_set)
        if not ground:
            raise DomainError("ground set must be nonempty")
        if len(set(ground)) != len(ground):
            raise DomainError("ground set ids must be unique")
        if len(ground) > MAX_GROUND:
            raise DomainError(f"ground set larger than {MAX_GROUND} is not supported")

        table = {frozenset(s): c for s, c in choices.items()}
        missing = []
        for subset in _nonempty_subsets(ground):
            key = frozenset(subset)
            if key not in table:
                missing.append(subset)
        if missing:
            raise IncompleteTableError(tuple(missing))
        for key, chosen in table.items():
            if chosen not in key:
                raise DomainError(
                    f"chosen element {chosen!r} is not a member of {render_set(sorted(key))}"
                )
            if not key <= set(ground):
                raise DomainError(f"subset {render_set(sorted(key))} is not within the ground set")

        self.ground_set = ground
        self.choices = table

    def choice(self, subset: Sequence[str]) -> str:
        return self.choices[frozenset(subset)]


def _nonempty_subsets(ground: tuple[str, ...]) -> list[tuple[str, ...]]:
    out = []
    for r in range(1, len(ground) + 1):
        out.extend(itertools.combinations(ground, r))
    return out


def induced_table(order: Sequence[str]) -> ChoiceFunctionTable:
    """Build the table whose every choice is the order's best available element."""
    order = tuple(order)
    position = {oid: i for i, oid in enumerate(order)}
    choices = {
        frozenset(s): min(s, key=position.__getitem__)
        for s in _nonempty_subsets(order)
    }
    return ChoiceFunctionTable(ground_set=order, choices=choices)


def check_contraction(table: ChoiceFunctionTable) -> ContractionResult:
    """Exhaustively test the contraction condition on every nested pair.

    For each pair of nonempty subsets small within large: when the large
    set's choice is still available in the small set, the small set must
    choose it too. Violations come back sorted for stable reporting.
    """
    subsets = _nonempty_subsets(table.ground_set)
    violations = []
    for large in subsets:
        chosen_large = table.choice(large)
        large_set = set(large)
        for small in subsets:
            if not set(small) < large_set:
                continue
            if chosen_large not in small:
                continue
            chosen_small = table.choice(small)
            if chosen_small != chosen_large:
                violations.append(ContractionViolation(small, large, chosen_large, chosen_small))
    violations.sort(key=lambda v: (v.large, v.small))
    return ContractionResult(tuple(violations))


def rationalizable(table: ChoiceFunctionTable) -> tuple[str, ...] | None:
    """Search all total orders for one whose maximizer reproduces the table.

    Orders are tried in a fixed lexicographic sequence over the ground set,
    so the first fit returned is deterministic. None means no order works.
    """
    subsets = _nonempty_subsets(table.ground_set)
    for order in itertools.permutations(table.ground_set):
        position = {oid: i for i, oid in enumerate(order)}
        if all(table.choice(s) == min(s, key=position.__getitem__) for s in subsets):
            return order
    return None


def _as_numeric(slot: RunCount | int) -> int:
    if isinstance(slot, RunCount):
        if slot.is_epsilon:
            raise DomainError("both periods must carry an actual run, not the empty run")
        return slot.numeric
    return as_int(slot, "run count")


def classify_lemma2(pair: tuple[RunCount | int, RunCount | int], n: int | None = None) -> str:
    """Classify a two-period run pair: adjacent ascent is strong consistency.

    (k, k+1) means the object kept its standing while the comparison set
    grew, which is the strong form; (k+1, k) is the weak mirror; anything
    else is neither. Requires actual runs in both periods; a plain count
    and ``n`` must be integers.
    """
    first, second = (_as_numeric(s) for s in pair)
    if n is not None:
        n = as_int(n, "n")
    if first < 1 or second < 1:
        raise DomainError("run counts must be positive")
    if n is not None and (first > n - 1 or second > n - 1):
        raise DomainError(f"run counts must stay below n={quote(n, str)}")
    if second == first + 1:
        return Lemma2Class.STRONG
    if second == first - 1:
        return Lemma2Class.WEAK
    return Lemma2Class.NEITHER
