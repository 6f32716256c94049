"""Run extraction from pattern vectors via the stop/run scanning rules.

Reading a joint pattern vector left to right, a 0 is a "stop" and a 1 is a
"run". Every maximal block of 1s belongs to the n-bit row it lies in, and a
row's run total is the number of objects that row's object is preferred to
in that period. A row of n zeros yields run total 0. Per object the totals
collapse into its run pattern omega, where a zero total and absence from
the period's catalog both normalize to the empty-run symbol; the pattern is
a function of the totals alone, so objects with equal totals share one.

A row's run total is its row sum: the number of catalog objects with a
strictly lower stage rank. Scoring uses that count (:func:`run_totals`),
which takes O(n) per period, and turns each distinct tuple of totals into
its run pattern by :func:`slot_rule`, as :func:`omega` does;
:func:`scan_runs` over :func:`flatten` of :func:`derive_matrix` is the
paper-literal scanner, kept as the reference tests compare against.

:class:`RunCount`, :data:`EPSILON`, :class:`RunPattern`, :func:`run_totals`
and :func:`slot_rule` live in :mod:`choicetrust._pipeline`, which scoring
runs, and are re-exported here. ``choicetrust score`` never imports this module.
"""

from __future__ import annotations

from typing import Sequence

from ._pipeline import EPSILON, RunCount, RunPattern, run_totals, slot_rule
from .choice_model import ValidatedEpisode
from .errors import DomainError, UnknownObjectError, quote
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
    return slot_rule(counts)


def single_period_rationality_pattern(n: int) -> tuple[int, ...]:
    """Descending run sequence (n-1, ..., 1) of a strict single-period chain."""
    if n < 2:
        raise DomainError(f"need at least 2 objects, got {quote(n, str)}")
    return tuple(range(n - 1, 0, -1))
