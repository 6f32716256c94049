"""Trust assessment of reviews against run patterns, and overall scores.

A two-period run pattern lands in the rational zone when its signed
difference is positive (engagement grew), in the irrational zone when
negative, and on the dividing reflexive bar at zero. A review's polarity is
held against that zone: praise matches rational or reflexive behavior,
criticism matches irrational behavior, and the verdict plus a narrative
code, the bar degree, and a binomial overall-rationality distribution make
up the trust report.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from ._record import Record, as_int, as_probability, quote, setfield
from .choice_model import ChoiceEpisode, ValidatedEpisode, validate_episode
from .errors import ChoiceTrustError, DomainError, UnknownObjectError
# derive_matrix, flatten, concat_patterns, omega, bin_table and membership are
# not called here (stage ranks and the closed forms replace them);
# bench/tracing.py wraps them on this module.
from .pattern_runs import RunCount, RunPattern, omega, run_totals, slot_rule
from .preference_graph import concat_patterns, derive_matrix, flatten
from .rationality_outcomes import (
    Degree,
    MEMBERSHIP_VARIANTS,
    RankClass,
    bar_degrees,
    bar_label,
    bin_table,
    classify_rank,
    membership,
    signed_difference,
)

__all__ = [
    "Polarity",
    "Zone",
    "NarrativeCode",
    "Review",
    "TrustAssessment",
    "ReviewerSection",
    "FlaggedReview",
    "ReportError",
    "ReportParameters",
    "TrustReport",
    "OverallRationality",
    "zone",
    "binomial_rationality",
    "period_string",
    "match_review",
    "build_report",
    "assessment_for",
]

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
    realized count are stored; :meth:`prob`, :meth:`at_most` and
    :meth:`at_least` sum exact :func:`binomial_rationality` terms on demand.
    ``n`` is an integer >= 0 (never a bool), ``p`` lies in [0, 1], and
    ``realized_r`` is None or an integer in 0..n.
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

    def at_most(self, r: int) -> Fraction:
        return sum((self.prob(k) for k in range(min(r, self.n) + 1)), Fraction(0))

    def at_least(self, r: int) -> Fraction:
        return 1 - self.at_most(r - 1)


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


def match_review(review: Review, slots: Sequence[RunCount]) -> tuple[bool, NarrativeCode]:
    """Hold a review's polarity against the pattern's zone.

    Positive polarity matches the rational or reflexive zone, negative
    matches the irrational zone, neutral matches any zone weakly. A mismatch
    is coded as disputed; a match is coded by the trajectory the pattern
    shows (complete rejection, continuity either way, sudden adoption, or
    steady).
    """
    z = zone(slots)
    polarity = review.comment_polarity
    if polarity is Polarity.POSITIVE:
        matched = z in (Zone.RATIONAL, Zone.REFLEXIVE)
    elif polarity is Polarity.NEGATIVE:
        matched = z is Zone.IRRATIONAL
    else:
        return True, NarrativeCode.WEAK_MATCH
    if not matched:
        return False, NarrativeCode.DISPUTED
    return True, _trajectory_code(slots)


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


@functools.lru_cache(maxsize=256)
def _score_totals(
    totals: tuple[int | None, ...], ns: tuple[int, int] | None, variant: str, d0_zone: str
) -> _Scored:
    """Score one object's per-period run totals (None where it is absent).

    A stage rank is 0..3, so a period holds at most four distinct totals,
    and tuples repeat across objects and reviewers; each is scored once,
    and every object with that tuple shares its run pattern. ``ns`` is the
    two periods' catalog sizes, None when a period has fewer than two objects.
    """
    pattern = slot_rule(totals)
    slots = pattern.slots
    obj_zone = bar = degree = conformant = None
    notes: tuple[str, ...] = ()
    counts_rational = False
    if len(slots) == 2:
        d = signed_difference(slots)
        obj_zone = _zone_of_difference(d)
        if ns is None:
            notes = (_NOTE_SMALL_CATALOG,)
        else:
            bar, degree = bar_label(d), bar_degrees(ns, variant)[d]
            if variant == "minmax" and degree.value == 0:
                notes = (_NOTE_MINMAX_FLOOR,)
                if ns == (4, 4):
                    notes += (_NOTE_REFERENCE_TABLE,)
        counts_rational = d > 0 or (d == 0 and d0_zone == "rational")
    elif len(slots) == 1:
        conformant = not slots[0].is_epsilon
    return _Scored(pattern, classify_rank(slots), obj_zone, bar, degree, notes, counts_rational, conformant)


def _assess_reviewer(
    reviewer_id: str,
    episodes: Sequence[ValidatedEpisode],
    catalog: tuple[str, ...],
    review_for: Mapping[str, Review],
    params: ReportParameters,
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
        scored = _score_totals(
            tuple([period.get(obj) for period in totals]), ns, params.membership_variant, params.d0_zone
        )
        rational_count += scored.counts_rational
        review = review_for.get(obj)
        matched = narrative = None
        if two_period and review is not None:
            matched, narrative = match_review(review, scored.pattern.slots)
        # Positional, in slot order: the record's fastest constructor call.
        assessments.append(
            TrustAssessment(
                obj, scored.pattern, scored.rank_class, scored.bar, scored.zone, scored.degree,
                matched, narrative, scored.conformant, review, scored.notes,
            )
        )

    overall = OverallRationality.from_parameters(
        n=len(catalog), p=params.p, realized_r=rational_count if two_period else None
    )
    return ReviewerSection(
        reviewer_id, tuple(ep.period for ep in episodes), catalog, period_patterns, joint,
        tuple(assessments), overall,
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

    Every episode is validated from its stage sets, a ``ValidatedEpisode``
    too. Per reviewer, in order: write every period's pattern string from its
    stage ranks, count each object's run totals from a stage-rank histogram,
    and score each distinct tuple of totals once (its slots, rank class,
    zone, bar, and the bar's membership degree from the closed-form
    frequency table); then attach review verdicts and the
    overall-rationality record: the catalog size n, p and the realized
    rational count, from which the binomial distribution follows. No
    preference matrix or pattern vector is built.
    Record-level problems are collected and reported, never fatal for the
    rest of the batch.
    """
    params = ReportParameters(membership_variant=membership_variant, d0_zone=d0_zone, p=p)

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
        sections.append(_assess_reviewer(reviewer_id, eps, catalog, review_for, params))

    sectioned = {s.reviewer_id for s in sections}
    for (reviewer_id, obj), review in pending.items():
        reason = (
            "object absent from the reviewer's catalogs"
            if reviewer_id in sectioned
            else "reviewer has no validated episodes"
        )
        flagged.append(FlaggedReview(review, reason))

    return TrustReport(params, tuple(sections), tuple(flagged), tuple(errors))


def assessment_for(report: TrustReport, reviewer_id: str, obj: str) -> TrustAssessment:
    """Convenience lookup; raises when the pair is not in the report."""
    for section in report.reviewers:
        if section.reviewer_id == reviewer_id:
            for assessment in section.assessments:
                if assessment.object == obj:
                    return assessment
    raise UnknownObjectError(f"no assessment for reviewer {reviewer_id!r}, object {obj!r}")
