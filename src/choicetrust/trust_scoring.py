"""Trust assessment of reviews against run patterns, and overall scores.

A two-period run pattern lands in the rational zone when its signed
difference is positive (engagement grew), in the irrational zone when
negative, and on the dividing reflexive bar at zero. A review's polarity is
held against that zone: praise matches rational or reflexive behavior,
criticism matches irrational behavior, and the verdict plus a narrative
code, the bar degree, and a binomial overall-rationality distribution make
up the trust report.

Every name of ``__all__`` but :func:`match_review` and :func:`assessment_for`
lives in :mod:`choicetrust._pipeline`, which scoring runs, and is re-exported
here. ``choicetrust score`` never imports this module.
"""

from __future__ import annotations

from typing import Sequence

from ._pipeline import (
    D0_ZONE_CHOICES, _NOTE_MINMAX_FLOOR, _NOTE_REFERENCE_TABLE, _NOTE_SMALL_CATALOG, FlaggedReview, NarrativeCode,
    OverallRationality, Polarity, ReportError, ReportParameters, Review, ReviewerSection, RunCount, TrustAssessment,
    TrustReport, Zone, _score_totals, _verdicts, binomial_rationality, build_report, period_string, zone,
)
from .errors import UnknownObjectError
# validate_episode, derive_matrix, flatten, concat_patterns, omega, bin_table and
# membership are not called here (build_report looks validate_episode up on
# _pipeline; stage ranks and the closed forms replace the rest);
# bench/tracing.py wraps them on this module.
from ._pipeline import validate_episode
from .pattern_runs import omega
from .preference_graph import concat_patterns, derive_matrix, flatten
from .rationality_outcomes import bin_table, membership

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


def match_review(review: Review, slots: Sequence[RunCount]) -> tuple[bool, NarrativeCode]:
    """Hold a review's polarity against the pattern's zone.

    Positive polarity matches the rational or reflexive zone, negative
    matches the irrational zone, neutral matches any zone weakly. A mismatch
    is coded as disputed; a match is coded by the trajectory the pattern
    shows (complete rejection, continuity either way, sudden adoption, or
    steady).
    """
    return _verdicts(slots)[review.comment_polarity]


def assessment_for(report: TrustReport, reviewer_id: str, obj: str) -> TrustAssessment:
    """Convenience lookup; raises when the pair is not in the report."""
    for section in report.reviewers:
        if section.reviewer_id == reviewer_id:
            for assessment in section.assessments:
                if assessment.object == obj:
                    return assessment
    raise UnknownObjectError(f"no assessment for reviewer {reviewer_id!r}, object {obj!r}")
