"""What ``choicetrust score`` runs below the command line: episodes, run totals, bar degrees and the report.

Four paper modules import their part of this module back and re-export it in
their ``__all__``:

- :mod:`~choicetrust.choice_model`: the episode records and :func:`validate_episode`;
- :mod:`~choicetrust.pattern_runs`: run counts and patterns, :func:`run_totals`, :func:`slot_rule`;
- :mod:`~choicetrust.rationality_outcomes`: rank classes, bar labels, closed-form frequencies and degrees;
- :mod:`~choicetrust.trust_scoring`: reviews, zones, verdicts, the binomial summary and :func:`build_report`.

Those modules keep the paper-literal reference that tests check this module
against: preference matrices, the stop/run scanner, the enumerated outcome set
and its bin table. This module imports only ``_record`` and ``errors`` from the
package, so that ``cli_io``, which imports it, loads none of that reference: a
process run without bytecode compiles every module it imports at start-up.
"""

from __future__ import annotations

import functools
import itertools
import math
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._record import Record, as_int, as_probability, quote, setfield
from .errors import ChoiceTrustError, DomainError, DuplicateItemError, EmptyFinalError, NestingError


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


def validate_episode(episode: ChoiceEpisode | ValidatedEpisode) -> ValidatedEpisode:
    """Certify the stage nesting of an episode and rank its objects (see :class:`ValidatedEpisode`).

    A ``ValidatedEpisode`` is returned as it is: its constructor walked its stage sets, and it cannot change.
    """
    if isinstance(episode, ValidatedEpisode):
        return episode
    return ValidatedEpisode(
        episode.reviewer_id, episode.period, episode.attainable, episode.wishlist, episode.cart, episode.final
    )


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
    """The paper's omega of an object: per-period run totals plus absence flags.

    Objects with the same totals share one pattern. ``absent_flags[k]``
    distinguishes "present but never preferred" from "not offered in period
    k"; both render as the empty run downstream.
    """

    __slots__ = ("slots", "absent_flags")

    def __init__(self, slots: tuple[RunCount, ...], absent_flags: tuple[bool, ...]) -> None:
        if len(slots) != len(absent_flags):
            raise DomainError("slots and absent_flags must have equal length")
        for slot, absent in zip(slots, absent_flags):
            if absent and not slot.is_epsilon:
                raise DomainError("an absent period must carry the empty run")
        setfield(self, "slots", slots)
        setfield(self, "absent_flags", absent_flags)

    def render(self) -> str:
        """Report form, e.g. ``{3,ε}``."""
        return "{" + ",".join(str(s) for s in self.slots) + "}"


def run_totals(episode: ValidatedEpisode) -> tuple[int, ...]:
    """Every object's run total in one period, catalog order, in O(n).

    Equals ``scan_runs(flatten(derive_matrix(episode)))``: a row's runs total
    its 1s, and row i has a 1 for each object ranked strictly below object i.
    So counts of the rank tuple's values (0..3) give every total, in catalog order.
    """
    ranks = episode.ranks
    below = (0, *itertools.accumulate(map(ranks.count, (0, 1, 2))))  # below[r] counts the ranks under r
    return tuple([below[rank] for rank in ranks])


def slot_rule(counts: Sequence[int | None]) -> RunPattern:
    """The run pattern of per-period run totals, None where the object is absent.

    A total of 0 and an absence both become the empty run; only an absence
    sets its flag.
    """
    return RunPattern(
        tuple(RunCount(count) if count else EPSILON for count in counts),
        tuple(count is None for count in counts),
    )


MEMBERSHIP_VARIANTS = ("minmax", "smoothed")

# Canonical bar letters of the two-period tree; differences beyond +/-3
# (catalogs larger than four) fall back to the signed difference itself.
_BAR_LETTERS = {-3: "C", -2: "B", -1: "A", 0: "D", 1: "E", 2: "F", 3: "G"}


class RankClass(str, Enum):
    REFLEXIVE = "Reflexive"
    INCREASING = "Increasing"
    DECREASING = "Decreasing"
    MIXED = "Mixed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Degree(Record):
    """A membership degree plus a flag for degenerate (all-equal) tables."""

    __slots__ = ("value", "degenerate")


def classify_rank(slots: Sequence[RunCount]) -> RankClass:
    """Rank a run tuple: reflexive, then increasing, decreasing, mixed.

    The empty run compares as 0. Reflexive (all slots equal) is the highest
    rank; increasing means nondecreasing with at least one strict rise,
    decreasing the mirror image, and mixed has steps both ways.
    """
    values = [s.numeric for s in slots]
    ups = any(b > a for a, b in zip(values, values[1:]))
    downs = any(b < a for a, b in zip(values, values[1:]))
    if not ups and not downs:
        return RankClass.REFLEXIVE
    if ups and downs:
        return RankClass.MIXED
    return RankClass.INCREASING if ups else RankClass.DECREASING


def signed_difference(slots: Sequence[RunCount]) -> int:
    """Second-period total minus first (empty as 0); defined for t=2 only."""
    if len(slots) != 2:
        raise DomainError(f"signed difference needs exactly 2 periods, got {len(slots)}")
    return slots[1].numeric - slots[0].numeric


def bar_label(d: int) -> str:
    return _BAR_LETTERS.get(d, f"{d:+d}")


def bar_frequency(ns: Sequence[int], d: int) -> int:
    """Closed-form size of bar d of the two-period outcome set for ns=(a, b).

    Patterns {x, x+d} need 0 <= x <= a-1 and 0 <= x+d <= b-1, so the bar
    holds min(a-1, b-1-d) - max(0, -d) + 1 of them: 1 on the extreme bars
    d = 1-a and d = b-1, and min(a, b) at most. Equals
    ``bin_table(ns).by_difference(d).frequency``.
    """
    a, b = ns
    if a < 2 or b < 2:
        raise DomainError(f"need at least 2 objects per period, got {quote(tuple(ns))}")
    if not 1 - a <= d <= b - 1:
        raise DomainError(f"no bar with difference {quote(d, str)} in this table")
    return min(a - 1, b - 1 - d) - max(0, -d) + 1


def _degree(frequency: int, lo: int, hi: int, variant: str) -> Degree:
    if variant not in MEMBERSHIP_VARIANTS:
        raise DomainError(f"membership variant must be one of {MEMBERSHIP_VARIANTS}, got {quote(variant)}")
    if variant == "smoothed":
        return Degree(Fraction(frequency, hi), False)
    if hi == lo:
        return Degree(Fraction(1), True)
    return Degree(Fraction(frequency - lo, hi - lo), False)


def bar_degree(ns: Sequence[int], d: int, variant: str = "minmax") -> Degree:
    """Degree of bar d of the two-period outcome set for ns=(a, b).

    Uses the rule of :func:`membership` on :func:`bar_frequency`, whose
    minimum is 1 and maximum min(a, b), so no outcome set is enumerated.
    Equals ``membership(d, bin_table(ns), variant)``.
    """
    return _degree(bar_frequency(ns, d), 1, min(ns), variant)


D0_ZONE_CHOICES = ("rational", "irrational")

_NOTE_MINMAX_FLOOR = (
    "min-max degree is 0.00000000 on a minimum-frequency bar even though the "
    "degree scale is nominally (0,1]; the smoothed membership variant stays positive"
)
_NOTE_REFERENCE_TABLE = (
    "reference trust table lists 0.33 for this pattern; that value is not "
    "derivable from the min-max rule and is recorded here only as an annotation"
)
_NOTE_SMALL_CATALOG = "membership degree unavailable: a period offers fewer than two objects"


class Polarity(str, Enum):
    POSITIVE = "positive"
    NEUTRAL = "neutral"
    NEGATIVE = "negative"


class Zone(str, Enum):
    RATIONAL = "Rational"
    IRRATIONAL = "Irrational"
    REFLEXIVE = "Reflexive"


class NarrativeCode(str, Enum):
    """Interpretation templates attached to a matched or disputed review."""

    COMPLETE_REJECTION = "complete-rejection"
    CONTINUITY_DOWN = "continuity-maintained-down"
    CONTINUITY_UP = "continuity-maintained-up"
    SUDDEN_ADOPTION = "sudden-adoption"
    STEADY = "steady"
    WEAK_MATCH = "weak-match"
    DISPUTED = "disputed"


class Review(Record):
    """One review record; polarity is input data, never mined from the text.

    Without a polarity, the rating gives it: 1-2 negative, 3 neutral, 4-5 positive.
    """

    __slots__ = ("reviewer_id", "object", "rating", "comment_polarity", "comment_text")

    def __init__(
        self,
        reviewer_id: str,
        object: str,
        rating: int,
        comment_polarity: Polarity | str | None = None,
        comment_text: str = "",
    ) -> None:
        setfield(self, "rating", as_int(rating, "rating"))
        if not 1 <= self.rating <= 5:
            raise DomainError(f"rating must be in 1..5, got {quote(rating, str)}")
        if comment_polarity is None:
            comment_polarity = "negative" if self.rating <= 2 else "neutral" if self.rating == 3 else "positive"
        try:
            setfield(self, "comment_polarity", Polarity(comment_polarity))
        except ValueError:
            raise DomainError(f"{quote(comment_polarity)} is not a valid Polarity") from None
        setfield(self, "reviewer_id", reviewer_id)
        setfield(self, "object", object)
        setfield(self, "comment_text", comment_text)


def _zone_of_difference(d: int) -> Zone:
    if d > 0:
        return Zone.RATIONAL
    if d < 0:
        return Zone.IRRATIONAL
    return Zone.REFLEXIVE


def zone(slots: Sequence[RunCount]) -> Zone:
    """Zone of a two-period pattern by the sign of its run-count difference."""
    return _zone_of_difference(signed_difference(slots))


def binomial_rationality(n: int, r: int, p: Fraction | float | str) -> Fraction:
    """Probability that exactly r of n objects land in the rational zone.

    Exact rational arithmetic: C(n, r) * p**r * (1-p)**(n-r).
    """
    n, r = as_int(n, "n"), as_int(r, "r")
    if n < 0 or not 0 <= r <= n:
        raise DomainError(f"need 0 <= r <= n, got r={quote(r)}, n={quote(n)}")
    prob = as_probability(p)
    return math.comb(n, r) * prob**r * (1 - prob) ** (n - r)


class OverallRationality(Record):
    """Binomial(n, p) of rational-zone counts, plus the realized count.

    The distribution is a function of ``(n, p)`` alone, so only those and the
    realized count are stored; :meth:`prob` is the :func:`binomial_rationality`
    term, and :meth:`at_most`, :meth:`at_least` and the report renderers read
    the exact walk of :meth:`numerators`. ``n`` is an integer >= 0 (never a
    bool), ``p`` lies in [0, 1], and ``realized_r`` is None or in 0..n.
    """

    __slots__ = ("n", "p", "realized_r")

    def __init__(self, n: int, p: Fraction | float | str, realized_r: int | None = None) -> None:
        setfield(self, "n", as_int(n, "n"))
        if self.n < 0:
            raise DomainError(f"need n >= 0, got n={quote(n, str)}")
        setfield(self, "p", as_probability(p))
        if realized_r is not None:
            realized_r = as_int(realized_r, "realized_r")
            if not 0 <= realized_r <= self.n:
                raise DomainError(f"need 0 <= realized_r <= n, got realized_r={quote(realized_r)}, n={quote(n, str)}")
        setfield(self, "realized_r", realized_r)

    @classmethod
    def from_parameters(
        cls, n: int, p: Fraction | float | str, realized_r: int | None = None
    ) -> "OverallRationality":
        """Same as ``cls(n, p, realized_r)``; scoring builds the record through this
        name so that bench/tracing.py can time it as the binomial layer."""
        return cls(n, p, realized_r)

    def prob(self, r: int) -> Fraction:
        return binomial_rationality(self.n, r, self.p)

    def numerators(self) -> Iterator[tuple[int, int]]:
        """``(N_r, N_0 + ... + N_(r-1))`` for r = 0..n, each over the one denominator ``b**n`` (p = a/b).

        ``binomial_rationality(n, r, p)`` is N_r / b**n with N_r = C(n, r) a**r (b - a)**(n - r). The exact
        walk N_(r+1) = N_r (n - r) a / ((r + 1)(b - a)) holds one term and one running sum, so memory is
        O(n digits(p)) and no Fraction is built per term; at p = 1 (a = b) only N_n = b**n is nonzero.
        """
        n, a, b = self.n, self.p.numerator, self.p.denominator
        step = lambda t, r: t * ((n - r) * a) // ((r + 1) * (b - a))
        terms = [0] * n + [b**n] if a == b else itertools.accumulate(range(n), step, initial=(b - a) ** n)
        below = 0
        for term in terms:
            yield term, below
            below += term

    def at_most(self, r: int) -> Fraction:
        r = as_int(r, "r")
        term, below = next(itertools.islice(self.numerators(), min(r, self.n), None)) if r >= 0 else (0, 0)
        return Fraction(below + term, self.p.denominator**self.n)

    def at_least(self, r: int) -> Fraction:
        return 1 - self.at_most(as_int(r, "r") - 1)


# Row r of a period's matrix maps each stage rank q to "1" when r > q, else "0".
_ROW_OF_RANK = [bytes.maketrans(b"\0\1\2\3", (b"1" * r).ljust(4, b"0")) for r in range(4)]


def period_string(episode: ValidatedEpisode) -> str:
    """The period's preference matrix as a row-major 0/1 string, from its rank tuple.

    Entry (i, j) is 1 exactly when ranks[i] > ranks[j] (catalog order), and
    ranks take only the values 0..3, so the matrix has at most four distinct
    rows; each is built once, by translating the rank bytes. Equals
    ``flatten(derive_matrix(episode)).as_string()``.
    """
    ranks = bytes(episode.ranks)
    rows = [ranks.translate(table).decode() for table in _ROW_OF_RANK]
    return "".join([rows[r] for r in ranks])


def _verdicts(slots: Sequence[RunCount]) -> dict[Polarity, tuple[bool, NarrativeCode]]:
    """The verdict of :func:`match_review` for each polarity; scoring keeps one such table per run-total key."""
    z = zone(slots)
    matched, disputed = (True, _trajectory_code(slots)), (False, NarrativeCode.DISPUTED)
    return {
        Polarity.POSITIVE: disputed if z is Zone.IRRATIONAL else matched,
        Polarity.NEGATIVE: matched if z is Zone.IRRATIONAL else disputed,
        Polarity.NEUTRAL: (True, NarrativeCode.WEAK_MATCH),
    }


def _trajectory_code(slots: Sequence[RunCount]) -> NarrativeCode:
    first, second = slots
    if not first.is_epsilon and second.is_epsilon:
        return NarrativeCode.COMPLETE_REJECTION
    if first.is_epsilon and not second.is_epsilon:
        return NarrativeCode.SUDDEN_ADOPTION
    d = signed_difference(slots)
    if d < 0:
        return NarrativeCode.CONTINUITY_DOWN
    if d > 0:
        return NarrativeCode.CONTINUITY_UP
    return NarrativeCode.STEADY


class TrustAssessment(Record):
    """Everything the report says about one object of one reviewer."""

    __slots__ = (
        "object", "pattern", "rank_class", "bar", "zone", "degree", "polarity_match",
        "narrative", "single_period_conformant", "review", "annotations",
    )


class ReviewerSection(Record):
    __slots__ = (
        "reviewer_id", "periods", "catalog", "period_patterns", "joint_pattern", "assessments", "overall",
    )


class FlaggedReview(Record):
    __slots__ = ("review", "reason")


class ReportError(Record):
    __slots__ = ("reviewer_id", "message")


class ReportParameters(Record):
    __slots__ = ("membership_variant", "d0_zone", "p")

    def __init__(
        self, membership_variant: str = "minmax", d0_zone: str = "rational", p: Fraction | float | str = Fraction(1, 2)
    ) -> None:
        if membership_variant not in MEMBERSHIP_VARIANTS:
            raise DomainError(
                f"membership variant must be one of {MEMBERSHIP_VARIANTS}, "
                f"got {quote(membership_variant)}"
            )
        if d0_zone not in D0_ZONE_CHOICES:
            raise DomainError(f"d0_zone must be one of {D0_ZONE_CHOICES}, got {quote(d0_zone)}")
        setfield(self, "membership_variant", membership_variant)
        setfield(self, "d0_zone", d0_zone)
        setfield(self, "p", as_probability(p))


class TrustReport(Record):
    __slots__ = ("parameters", "reviewers", "flagged_reviews", "errors")

    @property
    def has_errors(self) -> bool:
        return bool(self.errors) or bool(self.flagged_reviews)


def _catalog_union(episodes: Sequence[ValidatedEpisode]) -> tuple[str, ...]:
    # First-appearance order; objects joining later attach at the end so
    # earlier orderings never shift.
    seen: dict[str, None] = {}
    for ep in episodes:
        for oid in ep.attainable:
            seen.setdefault(oid, None)
    return tuple(seen)


class _Scored(NamedTuple):
    """What an assessment takes from its run totals alone."""

    pattern: RunPattern
    rank_class: RankClass
    zone: Zone | None
    bar: str | None
    degree: Degree | None
    notes: tuple[str, ...]
    counts_rational: bool
    conformant: bool | None
    verdicts: Mapping[Polarity, tuple[bool, NarrativeCode]] | None  # two periods only


def _score_totals(
    totals: tuple[int | None, ...], ns: tuple[int, int] | None, variant: str, d0_zone: str
) -> _Scored:
    """Score one object's per-period run totals (None where it is absent).

    A stage rank is 0..3, so a period holds at most four distinct totals,
    and tuples repeat across objects and reviewers; :func:`build_report`
    memoizes this per report, so each is scored once per report and every
    object with that tuple shares its run pattern and its verdict on each
    review polarity. ``ns`` is the two periods' catalog sizes, None when a
    period has fewer than two objects.
    """
    pattern = slot_rule(totals)
    slots = pattern.slots
    obj_zone = bar = degree = conformant = verdicts = None
    notes: tuple[str, ...] = ()
    counts_rational = False
    if len(slots) == 2:
        d = signed_difference(slots)
        obj_zone = _zone_of_difference(d)
        if ns is None:
            notes = (_NOTE_SMALL_CATALOG,)
        else:
            bar, degree = bar_label(d), bar_degree(ns, d, variant)
            if variant == "minmax" and degree.value == 0:
                notes = (_NOTE_MINMAX_FLOOR,)
                if ns == (4, 4):
                    notes += (_NOTE_REFERENCE_TABLE,)
        counts_rational = d > 0 or (d == 0 and d0_zone == "rational")
        verdicts = _verdicts(slots)
    elif len(slots) == 1:
        conformant = not slots[0].is_epsilon
    return _Scored(pattern, classify_rank(slots), obj_zone, bar, degree, notes, counts_rational, conformant, verdicts)


def _assess_reviewer(
    reviewer_id: str,
    episodes: Sequence[ValidatedEpisode],
    catalog: tuple[str, ...],
    review_for: Mapping[str, Review],
    score: Callable[..., _Scored],
    overall: Callable[..., OverallRationality],
) -> ReviewerSection:
    period_patterns = tuple(period_string(ep) for ep in episodes)
    homogeneous = all(ep.attainable == episodes[0].attainable for ep in episodes)
    joint = "".join(period_patterns) if homogeneous and len(episodes) > 1 else None

    two_period = len(episodes) == 2
    ns = None
    if two_period and all(ep.n >= 2 for ep in episodes):
        ns = (episodes[0].n, episodes[1].n)

    totals = [dict(zip(ep.attainable, run_totals(ep))) for ep in episodes]
    assessments = []
    rational_count = 0
    for obj in catalog:
        scored = score(tuple([period.get(obj) for period in totals]), ns)
        rational_count += scored.counts_rational
        review = review_for.get(obj)
        matched = narrative = None
        if two_period and review is not None:
            matched, narrative = scored.verdicts[review.comment_polarity]
        # Positional, in slot order: the record's fastest constructor call.
        assessments.append(
            TrustAssessment(
                obj, scored.pattern, scored.rank_class, scored.bar, scored.zone, scored.degree,
                matched, narrative, scored.conformant, review, scored.notes,
            )
        )

    return ReviewerSection(
        reviewer_id, tuple(ep.period for ep in episodes), catalog, period_patterns, joint,
        tuple(assessments), overall(len(catalog), rational_count if two_period else None),
    )


def build_report(
    episodes: Iterable[ChoiceEpisode | ValidatedEpisode],
    reviews: Iterable[Review] = (),
    *,
    membership_variant: str = "minmax",
    d0_zone: str = "rational",
    p: Fraction | float | str = Fraction(1, 2),
) -> TrustReport:
    """Run the full scoring pipeline over a batch of episodes and reviews.

    Each episode is validated once: a ``ChoiceEpisode`` here, a
    ``ValidatedEpisode`` (which ``load_episodes`` returns) by its own
    constructor. Per reviewer, in order: write every period's pattern string
    from its stage ranks, count each object's run totals from a stage-rank
    histogram, and score each distinct tuple of totals once per report (its
    slots, rank class, zone, bar, the bar's membership degree from the
    closed-form frequency table, and the verdict on each review polarity);
    then look up review verdicts and attach the overall-rationality record:
    the catalog size n, p and the realized rational count, from which the
    binomial distribution follows, built once per report for each distinct
    (n, count). No preference matrix or pattern vector is built.
    Record-level problems are collected and reported, never fatal for the
    rest of the batch.
    """
    params = ReportParameters(membership_variant=membership_variant, d0_zone=d0_zone, p=p)
    # One entry per distinct (totals, ns) key of this input, freed with the report.
    score = functools.cache(functools.partial(_score_totals, variant=params.membership_variant, d0_zone=params.d0_zone))
    # One record per distinct (n, realized_r), likewise; p was checked once, above.
    overall = functools.cache(lambda n, realized_r: OverallRationality.from_parameters(n, params.p, realized_r))

    groups: dict[str, list[ValidatedEpisode]] = {}
    errors: list[ReportError] = []
    for episode in episodes:
        try:
            validated = validate_episode(episode)
        except ChoiceTrustError as exc:
            errors.append(ReportError(episode.reviewer_id, str(exc)))
            continue
        groups.setdefault(validated.reviewer_id, []).append(validated)

    pending: dict[tuple[str, str], Review] = {}
    flagged: list[FlaggedReview] = []
    for review in reviews:
        key = (review.reviewer_id, review.object)
        if key in pending:
            flagged.append(FlaggedReview(review, "duplicate review for this reviewer/object"))
            continue
        pending[key] = review

    sections = []
    for reviewer_id, eps in groups.items():
        eps.sort(key=lambda e: e.period)
        periods = [e.period for e in eps]
        if len(set(periods)) != len(periods):
            errors.append(ReportError(reviewer_id, f"duplicate periods {periods}"))
            continue
        catalog = _catalog_union(eps)
        review_for = {
            obj: pending.pop((reviewer_id, obj)) for obj in catalog if (reviewer_id, obj) in pending
        }
        sections.append(_assess_reviewer(reviewer_id, eps, catalog, review_for, score, overall))

    sectioned = {s.reviewer_id for s in sections}
    for (reviewer_id, obj), review in pending.items():
        reason = (
            "object absent from the reviewer's catalogs"
            if reviewer_id in sectioned
            else "reviewer has no validated episodes"
        )
        flagged.append(FlaggedReview(review, reason))

    return TrustReport(params, tuple(sections), tuple(flagged), tuple(errors))
