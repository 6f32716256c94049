"""Run extraction from pattern vectors via the stop/run scanning rules.

Reading a joint pattern vector left to right, a 0 is a "stop" and a 1 is a
"run". Every maximal block of 1s belongs to the n-bit row it lies in, and a
row's run total is the number of objects that row's object is preferred to
in that period. A row of n zeros yields run total 0. Per object and period
the totals collapse into the run pattern omega, where a zero total and
absence from the period's catalog both normalize to the empty-run symbol.

A row's run total is its row sum: the number of catalog objects with a
strictly lower stage rank. Scoring uses that count (:func:`run_totals`),
which takes O(n) per period, and turns totals into slots by
:func:`slot_rule`, as :func:`omega` does; :func:`scan_runs` over
:func:`flatten` of :func:`derive_matrix` is the paper-literal scanner, kept
as the reference tests compare against.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

from ._record import Record, as_int, quote, setfield
from .choice_model import ValidatedEpisode
from .errors import DomainError, UnknownObjectError
from .preference_graph import PatternVector
# Unused here; bench/tracing.py wraps these two names on this module.
from .preference_graph import derive_matrix, flatten

__all__ = [
    "EPSILON",
    "RunCount",
    "RunPattern",
    "scan_runs",
    "run_totals",
    "omega",
    "single_period_rationality_pattern",
]


class RunCount(Record):
    """A per-period run total: either a positive integer or the empty run.

    ``value`` is ``None`` for the empty-run symbol, which covers both "no run
    observed" and "object absent that period". Stored as an integer count;
    the unary 1-string form is display only (:meth:`unary`).
    """

    __slots__ = ("value",)

    def __init__(self, value: int | None = None) -> None:
        if value is not None:
            value = as_int(value, "run count")
            if value < 1:
                raise DomainError(f"run count must be a positive integer or empty, got {quote(value)}")
        setfield(self, "value", value)

    @property
    def is_epsilon(self) -> bool:
        return self.value is None

    @property
    def numeric(self) -> int:
        """Integer view used for ordering; the empty run compares as 0."""
        return 0 if self.value is None else self.value

    def unary(self) -> str:
        return "" if self.value is None else "1" * self.value

    def __str__(self) -> str:
        return "ε" if self.value is None else str(self.value)


EPSILON = RunCount(None)


class RunPattern(Record):
    """Per-object run totals across periods, plus absence bookkeeping.

    ``absent_flags[k]`` distinguishes "present but never preferred" from
    "not offered in period k"; both render as the empty run downstream.
    """

    __slots__ = ("object", "slots", "absent_flags")

    def __init__(self, object: str, slots: tuple[RunCount, ...], absent_flags: tuple[bool, ...]) -> None:
        if len(slots) != len(absent_flags):
            raise DomainError("slots and absent_flags must have equal length")
        for slot, absent in zip(slots, absent_flags):
            if absent and not slot.is_epsilon:
                raise DomainError("an absent period must carry the empty run")
        setfield(self, "object", object)
        setfield(self, "slots", slots)
        setfield(self, "absent_flags", absent_flags)

    @property
    def periods(self) -> int:
        return len(self.slots)

    def render(self) -> str:
        """Report form, e.g. ``{3,ε}``."""
        return "{" + ",".join(str(s) for s in self.slots) + "}"


def scan_runs(pattern: PatternVector) -> tuple[int, ...]:
    """Scan a pattern vector and total the runs per (period, object) slot.

    Walks the bits of each n-bit row: 1s extend the current run, a 0 stops
    it and banks it for the row's object, and the row edge banks whatever is
    still open (a run never continues across rows or periods). An all-zero
    row banks nothing, so its slot totals 0.

    Returns period-major totals, catalog order within each period; length is
    periods * n.
    """
    n = pattern.n
    totals: list[int] = []
    for start in range(0, len(pattern.bits), n):
        total = 0
        run = 0
        for bit in pattern.bits[start : start + n]:
            if bit:
                run += 1
            else:
                total += run
                run = 0
        totals.append(total + run)
    return tuple(totals)


def run_totals(episode: ValidatedEpisode) -> tuple[int, ...]:
    """Every object's run total in one period, catalog order, in O(n).

    Equals ``scan_runs(flatten(derive_matrix(episode)))``: a row's runs total
    its 1s, and row i has a 1 for each object ranked strictly below object i.
    So counts of the rank tuple's values (0..3) give every total, in catalog order.
    """
    ranks = episode.ranks
    below = (0, *accumulate(map(ranks.count, (0, 1, 2))))  # below[r] counts the ranks under r
    return tuple([below[rank] for rank in ranks])


def slot_rule(counts: Sequence[int | None]) -> tuple[tuple[RunCount, ...], tuple[bool, ...]]:
    """Slots and absence flags of per-period run totals, None where the object is absent.

    A total of 0 and an absence both become the empty run; only an absence
    sets its flag.
    """
    return (
        tuple(RunCount(count) if count else EPSILON for count in counts),
        tuple(count is None for count in counts),
    )


def omega(episodes: Sequence[ValidatedEpisode], obj: str) -> RunPattern:
    """Extract one object's run pattern across a period-sorted episode list.

    Slot k holds the object's run total in period k with 0 normalized to the
    empty run; a period whose catalog lacks the object contributes the empty
    run with its absence flag set.

    Raises:
        DomainError: Episodes are not strictly sorted by period.
        UnknownObjectError: The object is in no period's catalog.
    """
    episodes = tuple(episodes)
    if not episodes:
        raise DomainError("need at least one episode")
    periods = [e.period for e in episodes]
    if any(b <= a for a, b in zip(periods, periods[1:])):
        raise DomainError(f"episodes must be strictly sorted by period, got {quote(periods)}")

    counts = [dict(zip(e.attainable, run_totals(e))).get(obj) for e in episodes]
    if all(count is None for count in counts):
        raise UnknownObjectError(f"object {obj!r} appears in no period's catalog")
    return RunPattern(obj, *slot_rule(counts))


def single_period_rationality_pattern(n: int) -> tuple[int, ...]:
    """Descending run sequence (n-1, ..., 1) of a strict single-period chain."""
    if n < 2:
        raise DomainError(f"need at least 2 objects, got {quote(n, str)}")
    return tuple(range(n - 1, 0, -1))
