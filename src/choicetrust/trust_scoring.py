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

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

from .choice_model import ChoiceEpisode, ValidatedEpisode, validate_episode
from .errors import ChoiceTrustError, DomainError, UnknownObjectError
# omega, flatten, concat_patterns, bin_table and membership are not called here
# (the closed forms replace them); bench/tracing.py wraps them on this module.
from .pattern_runs import RunCount, RunPattern, omega, run_patterns
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
    "match_review",
    "build_report",
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


def polarity_from_rating(rating: int) -> Polarity:
    """Fallback when no polarity is supplied: 1-2 negative, 3 neutral, 4-5 positive."""
    if rating <= 2:
        return Polarity.NEGATIVE
    if rating == 3:
        return Polarity.NEUTRAL
    return Polarity.POSITIVE


@dataclass(frozen=True)
class Review:
    """One review record; polarity is input data, never mined from the text."""

    reviewer_id: str
    object: str
    rating: int
    comment_polarity: Polarity
    comment_text: str = ""

    def __post_init__(self) -> None:
        if not 1 <= int(self.rating) <= 5:
            raise DomainError(f"rating must be in 1..5, got {self.rating}")
        object.__setattr__(self, "rating", int(self.rating))
        object.__setattr__(self, "comment_polarity", Polarity(self.comment_polarity))

    @classmethod
    def make(
        cls,
        reviewer_id: str,
        obj: str,
        rating: int,
        comment_polarity: Polarity | str | None = None,
        comment_text: str = "",
    ) -> "Review":
        polarity = (
            polarity_from_rating(int(rating))
            if comment_polarity is None
            else Polarity(comment_polarity)
        )
        return cls(
            reviewer_id=reviewer_id,
            object=obj,
            rating=rating,
            comment_polarity=polarity,
            comment_text=comment_text,
        )


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
    if n < 0 or not 0 <= r <= n:
        raise DomainError(f"need 0 <= r <= n, got r={r}, n={n}")
    prob = Fraction(p)
    if not 0 <= prob <= 1:
        raise DomainError(f"p must be within [0, 1], got {p}")
    return math.comb(n, r) * prob**r * (1 - prob) ** (n - r)


@dataclass(frozen=True)
class OverallRationality:
    """Binomial distribution of rational-zone counts, plus the realized one.

    ``cdf`` holds the exact prefix sums of ``pmf``, summed once, so
    :meth:`at_most` and :meth:`at_least` are lookups.
    """

    n: int
    p: Fraction
    realized_r: int | None
    pmf: tuple[Fraction, ...]
    cdf: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cdf", tuple(accumulate(self.pmf)))

    @classmethod
    def from_parameters(
        cls, n: int, p: Fraction | float | str, realized_r: int | None = None
    ) -> "OverallRationality":
        prob = Fraction(p)
        pmf = tuple(binomial_rationality(n, r, prob) for r in range(n + 1))
        return cls(n=n, p=prob, realized_r=realized_r, pmf=pmf)

    def prob(self, r: int) -> Fraction:
        if not 0 <= r <= self.n:
            raise DomainError(f"need 0 <= r <= n, got r={r}, n={self.n}")
        return self.pmf[r]

    def at_most(self, r: int) -> Fraction:
        return self.cdf[min(r, self.n)] if r >= 0 else Fraction(0)

    def at_least(self, r: int) -> Fraction:
        return 1 - self.at_most(r - 1)

    def below(self, r: int) -> Fraction:
        return self.at_most(r - 1)

    def above(self, r: int) -> Fraction:
        return self.at_least(r + 1)


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


@dataclass(frozen=True)
class TrustAssessment:
    """Everything the report says about one object of one reviewer."""

    object: str
    pattern: RunPattern
    rank_class: RankClass
    bar: str | None = None
    zone: Zone | None = None
    degree: Degree | None = None
    polarity_match: bool | None = None
    narrative: NarrativeCode | None = None
    single_period_conformant: bool | None = None
    review: Review | None = None
    annotations: tuple[str, ...] = ()


@dataclass(frozen=True)
class ReviewerSection:
    reviewer_id: str
    periods: tuple[int, ...]
    catalog: tuple[str, ...]
    period_patterns: tuple[str, ...]
    joint_pattern: str | None
    assessments: tuple[TrustAssessment, ...]
    overall: OverallRationality


@dataclass(frozen=True)
class FlaggedReview:
    review: Review
    reason: str


@dataclass(frozen=True)
class ReportError:
    reviewer_id: str | None
    message: str


@dataclass(frozen=True)
class ReportParameters:
    membership_variant: str = "minmax"
    d0_zone: str = "rational"
    p: Fraction = Fraction(1, 2)

    def __post_init__(self) -> None:
        if self.membership_variant not in MEMBERSHIP_VARIANTS:
            raise DomainError(
                f"membership variant must be one of {MEMBERSHIP_VARIANTS}, "
                f"got {self.membership_variant!r}"
            )
        if self.d0_zone not in D0_ZONE_CHOICES:
            raise DomainError(f"d0_zone must be one of {D0_ZONE_CHOICES}, got {self.d0_zone!r}")
        prob = Fraction(self.p)
        if not 0 <= prob <= 1:
            raise DomainError(f"p must be within [0, 1], got {self.p}")
        object.__setattr__(self, "p", prob)


@dataclass(frozen=True)
class TrustReport:
    tool_version: str
    parameters: ReportParameters
    reviewers: tuple[ReviewerSection, ...]
    flagged_reviews: tuple[FlaggedReview, ...] = ()
    errors: tuple[ReportError, ...] = ()

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


def _degree_and_notes(
    d: int, ns: tuple[int, int] | None, variant: str
) -> tuple[str | None, Degree | None, tuple[str, ...]]:
    if ns is None:
        return None, None, (_NOTE_SMALL_CATALOG,)
    degree = bar_degrees(ns, variant)[d]
    notes: tuple[str, ...] = ()
    if variant == "minmax" and degree.value == 0:
        notes = (_NOTE_MINMAX_FLOOR,)
        if ns == (4, 4):
            notes += (_NOTE_REFERENCE_TABLE,)
    return bar_label(d), degree, notes


def _assess_reviewer(
    reviewer_id: str,
    episodes: Sequence[ValidatedEpisode],
    review_for: Mapping[str, Review],
    params: ReportParameters,
) -> ReviewerSection:
    catalog = _catalog_union(episodes)
    matrices = [derive_matrix(ep) for ep in episodes]
    period_patterns = tuple(m.as_string() for m in matrices)
    homogeneous = all(m.order == matrices[0].order for m in matrices)
    joint = "".join(period_patterns) if homogeneous and len(matrices) > 1 else None

    two_period = len(episodes) == 2
    ns = None
    if two_period and all(ep.n >= 2 for ep in episodes):
        ns = (episodes[0].n, episodes[1].n)

    assessments = []
    rational_count = 0
    for obj, pattern in zip(catalog, run_patterns(episodes, catalog)):
        rank = classify_rank(pattern.slots)
        review = review_for.get(obj)

        bar = obj_zone = degree = None
        matched = narrative = None
        conformant = None
        notes: tuple[str, ...] = ()
        if two_period:
            d = signed_difference(pattern.slots)
            obj_zone = _zone_of_difference(d)
            bar, degree, notes = _degree_and_notes(d, ns, params.membership_variant)
            counts_rational = d > 0 or (d == 0 and params.d0_zone == "rational")
            if counts_rational:
                rational_count += 1
            if review is not None:
                matched, narrative = match_review(review, pattern.slots)
        elif len(episodes) == 1:
            conformant = not pattern.slots[0].is_epsilon

        assessments.append(
            TrustAssessment(
                object=obj,
                pattern=pattern,
                rank_class=rank,
                bar=bar,
                zone=obj_zone,
                degree=degree,
                polarity_match=matched,
                narrative=narrative,
                single_period_conformant=conformant,
                review=review,
                annotations=notes,
            )
        )

    overall = OverallRationality.from_parameters(
        n=len(catalog), p=params.p, realized_r=rational_count if two_period else None
    )
    return ReviewerSection(
        reviewer_id=reviewer_id,
        periods=tuple(ep.period for ep in episodes),
        catalog=catalog,
        period_patterns=period_patterns,
        joint_pattern=joint,
        assessments=tuple(assessments),
        overall=overall,
    )


def build_report(
    episodes: Iterable[ChoiceEpisode | ValidatedEpisode],
    reviews: Iterable[Review] = (),
    *,
    membership_variant: str = "minmax",
    d0_zone: str = "rational",
    p: Fraction | float | str = Fraction(1, 2),
    tool_version: str = "",
) -> TrustReport:
    """Run the full scoring pipeline over a batch of episodes and reviews.

    Per reviewer, in order: derive every period's pattern vector, extract
    each object's run pattern, place it on its bar, and read off the bar's
    membership degree from the closed-form frequency table; then attach
    zones, review verdicts, and the binomial overall-rationality
    distribution. Record-level problems are collected and reported, never
    fatal for the rest of the batch.
    """
    params = ReportParameters(membership_variant=membership_variant, d0_zone=d0_zone, p=p)

    groups: dict[str, list[ValidatedEpisode]] = {}
    errors: list[ReportError] = []
    for episode in episodes:
        try:
            validated = (
                episode if isinstance(episode, ValidatedEpisode) else validate_episode(episode)
            )
        except ChoiceTrustError as exc:
            errors.append(ReportError(reviewer_id=episode.reviewer_id, message=str(exc)))
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
            errors.append(
                ReportError(reviewer_id=reviewer_id, message=f"duplicate periods {periods}")
            )
            continue
        review_for = {
            obj: pending.pop((reviewer_id, obj))
            for obj in _catalog_union(eps)
            if (reviewer_id, obj) in pending
        }
        sections.append(_assess_reviewer(reviewer_id, eps, review_for, params))

    sectioned = {s.reviewer_id for s in sections}
    for (reviewer_id, obj), review in pending.items():
        reason = (
            "object absent from the reviewer's catalogs"
            if reviewer_id in sectioned
            else "reviewer has no validated episodes"
        )
        flagged.append(FlaggedReview(review, reason))

    return TrustReport(
        tool_version=tool_version,
        parameters=params,
        reviewers=tuple(sections),
        flagged_reviews=tuple(flagged),
        errors=tuple(errors),
    )


def assessment_for(report: TrustReport, reviewer_id: str, obj: str) -> TrustAssessment:
    """Convenience lookup; raises when the pair is not in the report."""
    for section in report.reviewers:
        if section.reviewer_id == reviewer_id:
            for assessment in section.assessments:
                if assessment.object == obj:
                    return assessment
    raise UnknownObjectError(f"no assessment for reviewer {reviewer_id!r}, object {obj!r}")
