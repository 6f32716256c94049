"""The rationality outcome set, its rank classes, bars, and degrees.

For t periods with n_k objects each, the outcome set is the full Cartesian
product of the per-period run alphabets {empty, 1, ..., n_k - 1}. Two-period
patterns additionally bin by the signed difference of their run totals
(second minus first, empty counting as 0), which partitions the product into
2n - 1 bars whose frequencies form the degree-of-membership table.

Scoring and ``tau`` read each bar's frequency and degree from its closed form
(:func:`bar_frequency`, :func:`bar_degree`), in O(1) per bar. The enumerated outcome set
(:func:`iter_tau`, :func:`build_tau`, :func:`bin_table`, :func:`membership`)
is the paper-literal reference: ``tau`` streams its patterns from
:func:`iter_tau`, and tests check the closed form against it.

:class:`RankClass`, :class:`Degree`, :func:`classify_rank`,
:func:`signed_difference`, :func:`bar_label`, :func:`bar_frequency` and
:func:`bar_degree` live in :mod:`choicetrust._pipeline`, which scoring runs,
and are re-exported here. ``choicetrust score`` never imports this module.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from ._pipeline import (
    MEMBERSHIP_VARIANTS, Degree, RankClass, _degree, bar_degree, bar_frequency, bar_label, classify_rank,
    signed_difference,
)
from ._record import Record, as_int, quote
from .errors import DomainError
from .pattern_runs import EPSILON, RunCount, RunPattern

__all__ = [
    "RankClass",
    "TauPattern",
    "Bin",
    "BinTable",
    "Degree",
    "slot_alphabet",
    "iter_tau",
    "build_tau",
    "count_tau_two_periods",
    "two_period_decomposition",
    "classify_rank",
    "signed_difference",
    "bar_label",
    "bin_pattern",
    "bin_table",
    "bin_frequencies",
    "bar_frequency",
    "bar_degree",
    "membership",
]


class TauPattern(Record):
    """One admissible run tuple with its rank class and (for t=2) bar."""

    __slots__ = ("slots",)

    @property
    def rank_class(self) -> RankClass:
        return classify_rank(self.slots)

    @property
    def bin(self) -> str | None:
        return bin_pattern(self.slots) if len(self.slots) == 2 else None

    render = RunPattern.render  # one spelling of run totals: both records hold them in `slots`


class Bin(Record):
    """One bar of the two-period tree: all patterns sharing a difference."""

    __slots__ = ("difference", "patterns")

    @property
    def label(self) -> str:
        return bar_label(self.difference)

    @property
    def frequency(self) -> int:
        return len(self.patterns)


class BinTable(Record):
    """Bars of a two-period outcome set, ascending by signed difference."""

    __slots__ = ("ns", "bins")

    def by_label(self, label: str) -> Bin:
        for b in self.bins:
            if b.label == label:
                return b
        raise DomainError(f"no bar labelled {label!r} in this table")

    def by_difference(self, d: int) -> Bin:
        for b in self.bins:
            if b.difference == d:
                return b
        raise DomainError(f"no bar with difference {quote(d, str)} in this table")

    @property
    def min_frequency(self) -> int:
        return min(b.frequency for b in self.bins)

    @property
    def max_frequency(self) -> int:
        return max(b.frequency for b in self.bins)


def slot_alphabet(n: int) -> tuple[RunCount, ...]:
    """Admissible run totals for one period with n objects: empty, 1..n-1."""
    if n < 2:
        raise DomainError(f"need at least 2 objects per period, got {quote(n, str)}")
    return (EPSILON,) + tuple(RunCount(k) for k in range(1, n))


def bin_pattern(slots: Sequence[RunCount]) -> str:
    """Bar label of a two-period pattern, determined by its signed difference."""
    return bar_label(signed_difference(slots))


def iter_tau(ns: Sequence[int]) -> Iterator[TauPattern]:
    """The full rationality outcome set for per-period sizes ns, one pattern at a time.

    The sizes are checked when this is called. The product includes the
    all-empty tuple; for t periods of a fixed n the set has exactly n**t
    members. Listing order is deterministic: the empty run sorts first, then
    ascending totals, later periods varying fastest.
    """
    ns = tuple([as_int(n, "period size") for n in ns])
    if not ns:
        raise DomainError("need at least one period")
    return map(TauPattern, itertools.product(*[slot_alphabet(n) for n in ns]))


def build_tau(ns: Sequence[int]) -> tuple[TauPattern, ...]:
    """The patterns of :func:`iter_tau`, in its order, as one tuple."""
    return tuple(iter_tau(ns))


def two_period_decomposition(n: int) -> tuple[int, int]:
    """Counts of strictly-decreasing and nondecreasing two-period patterns.

    Over the alphabet {empty, 1, ..., n-1} there are C(n, 2) strictly
    decreasing pairs and n(n+1)/2! nondecreasing ones (rising factorial over
    2!, i.e. multiset pairs); together they partition the n**2 product.
    """
    if n < 2:
        raise DomainError(f"need at least 2 objects, got {quote(n, str)}")
    decreasing = math.comb(n, 2)
    nondecreasing = (n * (n + 1)) // math.factorial(2)
    return decreasing, nondecreasing


def count_tau_two_periods(n: int) -> int:
    """Size of the two-period outcome set for a fixed n (equals n**2)."""
    decreasing, nondecreasing = two_period_decomposition(n)
    return decreasing + nondecreasing


def bin_table(ns: Sequence[int]) -> BinTable:
    """Group a two-period outcome set into bars by signed difference."""
    ns = tuple([as_int(n, "period size") for n in ns])
    if len(ns) != 2:
        raise DomainError(f"bin tables need exactly 2 periods, got {len(ns)}")
    groups: dict[int, list[TauPattern]] = {}
    for p in build_tau(ns):
        groups.setdefault(signed_difference(p.slots), []).append(p)
    return BinTable(ns, tuple(Bin(d, tuple(groups[d])) for d in sorted(groups)))


def bin_frequencies(n: int) -> BinTable:
    """Bar frequencies over the fixed-n two-period outcome set."""
    return bin_table((n, n))


def membership(bar: str | int, table: BinTable, variant: str = "minmax") -> Degree:
    """Degree of one bar from the frequency table.

    ``minmax`` rescales frequency to (f - min) / (max - min), which bottoms
    out at 0 on the rarest bars; ``smoothed`` uses f / max and stays strictly
    positive. A degenerate table (all frequencies equal) yields degree 1 with
    the flag set.
    """
    b = table.by_difference(bar) if isinstance(bar, int) else table.by_label(bar)
    return _degree(b.frequency, table.min_frequency, table.max_frequency, variant)
