import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from choicetrust import (
    ChoiceEpisode,
    DomainError,
    EPSILON,
    EmptyFinalError,
    NarrativeCode,
    NestingError,
    OverallRationality,
    Polarity,
    RankClass,
    ReportParameters,
    Review,
    RunCount,
    ValidatedEpisode,
    Zone,
    assessment_for,
    binomial_rationality,
    build_report,
    match_review,
    validate_episode,
    zone,
)

from helpers import episode


def rc(*values):
    return tuple(EPSILON if v is None else RunCount(v) for v in values)


def test_zone_examples():
    assert zone(rc(3, None)) is Zone.IRRATIONAL
    assert zone(rc(2, 1)) is Zone.IRRATIONAL
    assert zone(rc(1, 2)) is Zone.RATIONAL
    assert zone(rc(None, 3)) is Zone.RATIONAL
    assert zone(rc(2, 2)) is Zone.REFLEXIVE
    with pytest.raises(DomainError):
        zone(rc(1, 2, 3))


def test_binomial_point_values():
    assert binomial_rationality(4, 1, Fraction(1, 2)) == Fraction(1, 4)
    assert binomial_rationality(4, 0, Fraction(1, 2)) == Fraction(1, 16)
    assert binomial_rationality(4, 4, "1/2") == Fraction(1, 16)


def test_binomial_distribution_sums_to_one_exactly():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 9)
        p = Fraction(rng.randint(0, 10), 10)
        total = sum(binomial_rationality(n, r, p) for r in range(n + 1))
        assert total == 1


def test_binomial_half_is_combinations_over_power():
    import math

    for n in range(1, 8):
        for r in range(n + 1):
            assert binomial_rationality(n, r, Fraction(1, 2)) == Fraction(math.comb(n, r), 2**n)


def test_binomial_rejects_bad_arguments():
    with pytest.raises(DomainError):
        binomial_rationality(4, 5, Fraction(1, 2))
    with pytest.raises(DomainError):
        binomial_rationality(4, 1, Fraction(3, 2))


def test_overall_rationality_cumulative_queries():
    overall = OverallRationality.from_parameters(4, Fraction(1, 2), realized_r=2)
    assert binomial_rationality(overall.n, 1, overall.p) == Fraction(1, 4)
    assert overall.at_most(1) == Fraction(5, 16)
    assert overall.at_least(1) == Fraction(15, 16)
    assert overall.at_most(4) == 1 and overall.at_least(0) == 1
    assert overall.at_most(-3) == 0 and overall.at_least(9) == 0 and overall.at_most(10**30) == 1
    # An integral r of another type reads as that integer, as it does in `binomial_rationality`.
    assert overall.at_least(2.0) == overall.at_least(2) == Fraction(11, 16)
    assert overall.at_most(Fraction(1)) == overall.at_most(1)


def test_overall_rationality_rejects_a_negative_n():
    with pytest.raises(DomainError, match="n=-1"):
        binomial_rationality(-1, 0, "1/2")
    with pytest.raises(DomainError, match="n=-1"):
        OverallRationality.from_parameters(-1, "1/2")
    assert OverallRationality.from_parameters(0, "1/2").at_most(0) == 1


@pytest.mark.parametrize(
    "n, realized_r", [(True, None), (2.5, None), (3, 7), (3, -3), (3, 1.5), (3, True)]
)
def test_overall_rationality_rejects_a_non_count(n, realized_r):
    with pytest.raises(DomainError):
        OverallRationality.from_parameters(n, "1/2", realized_r)


def test_overall_rationality_stores_only_n_p_and_the_realized_count():
    assert OverallRationality.__slots__ == ("n", "p", "realized_r")
    overall = OverallRationality.from_parameters(3.0, 0.5, 3.0)
    assert (overall.n, overall.p, overall.realized_r) == (3, Fraction(1, 2), 3)
    assert type(overall.n) is int and type(overall.realized_r) is int
    with pytest.raises(DomainError, match="p must be within"):
        OverallRationality(3, "3/2")


def test_match_review_complete_rejection():
    review = Review("r", "M", 1, "negative", "Bad product")
    matched, code = match_review(review, rc(3, None))
    assert matched and code is NarrativeCode.COMPLETE_REJECTION


def test_match_review_sudden_adoption():
    review = Review("r", "Z", 5, "positive", "Premium product")
    matched, code = match_review(review, rc(None, 3))
    assert matched and code is NarrativeCode.SUDDEN_ADOPTION


def test_match_review_negative_against_rational_pattern_disputed():
    review = Review("r", "V", 1, "negative")
    matched, code = match_review(review, rc(1, 2))
    assert not matched and code is NarrativeCode.DISPUTED


def test_match_review_continuity_codes():
    up = match_review(Review("r", "V", 4, "positive"), rc(1, 2))
    down = match_review(Review("r", "N", 2, "negative"), rc(2, 1))
    assert up == (True, NarrativeCode.CONTINUITY_UP)
    assert down == (True, NarrativeCode.CONTINUITY_DOWN)


def test_match_review_neutral_is_weak_match():
    review = Review("r", "V", 3)
    assert review.comment_polarity is Polarity.NEUTRAL
    matched, code = match_review(review, rc(3, None))
    assert matched and code is NarrativeCode.WEAK_MATCH


def test_match_review_steady_pattern():
    review = Review("r", "V", 5, "positive")
    matched, code = match_review(review, rc(2, 2))
    assert matched and code is NarrativeCode.STEADY


def test_polarity_fallback_from_rating():
    polarities = [Review("r", "x", rating).comment_polarity for rating in range(1, 6)]
    assert polarities == [Polarity.NEGATIVE] * 2 + [Polarity.NEUTRAL] + [Polarity.POSITIVE] * 2
    assert Review("r", "x", 1, "positive").comment_polarity is Polarity.POSITIVE


@pytest.mark.parametrize("polarity", ["meh", ["x"], 5])
def test_unknown_polarity_is_a_domain_error(polarity):
    with pytest.raises(DomainError) as info:
        Review("r", "x", 3, polarity)
    assert str(info.value) == f"{polarity!r} is not a valid Polarity"


_MALFORMED = {
    "text": lambda: OverallRationality(3, "abc"),
    "inf": lambda: ReportParameters(p=float("inf")),
    "nan": lambda: OverallRationality(3, float("nan")),
    "None": lambda: OverallRationality(3, None),
    "bool": lambda: OverallRationality(3, True),
    "huge-exponent": lambda: build_report([], p="1e-999999"),
    "decimal-beyond-1": lambda: OverallRationality(3, Decimal("1e999999999")),
    "float-n": lambda: binomial_rationality(2.5, 1, "1/2"),
    "bool-n": lambda: binomial_rationality(True, 1, "1/2"),
    "None-r": lambda: binomial_rationality(3, None, "1/2"),
    "float-r": lambda: binomial_rationality(3, 1.5, "1/2"),
    "bool-r-at-most": lambda: OverallRationality(4, "1/2").at_most(True),
    "float-r-at-most": lambda: OverallRationality(4, "1/2").at_most(1.5),
    "bool-r-at-least": lambda: OverallRationality(4, "1/2").at_least(True),
    "float-r-at-least": lambda: OverallRationality(4, "1/2").at_least(2.5),
    "None-r-at-least": lambda: OverallRationality(4, "1/2").at_least(None),
}


@pytest.mark.parametrize("build", _MALFORMED.values(), ids=_MALFORMED)
def test_malformed_p_n_or_r_is_a_domain_error_at_once(build):
    start = time.perf_counter()
    with pytest.raises(DomainError):
        build()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "p",
    [Fraction(1, 10**99999), Decimal("1e-99999"), Decimal("1e-9999999"), 1e-300],
    ids=["Fraction", "Decimal-1e-99999", "Decimal-1e-9999999", "float-1e-300"],
)
def test_a_numeric_p_with_a_denominator_over_10_to_the_80_is_refused_at_once(p):
    start = time.perf_counter()
    for build in (lambda: OverallRationality(3, p), lambda: build_report([], p=p)):
        with pytest.raises(DomainError, match=r"denominator of at most 10\*\*80"):
            build()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("p", [0.3, 1e-60, Fraction(1, 10**80), Decimal("0.25")])
def test_a_numeric_p_within_the_denominator_bound_is_taken_exactly(p):
    assert OverallRationality(3, p).p == ReportParameters(p=p).p == Fraction(p)


def test_p_is_read_exactly_from_numbers_and_text():
    assert OverallRationality(3, 0.1).p == Fraction(0.1) != Fraction(1, 10)
    assert OverallRationality(3, " 1e-3 ").p == Fraction(1, 1000)
    assert ReportParameters(p="3/7").p == Fraction(3, 7)
    assert binomial_rationality(3.0, Fraction(2), 1) == 0


def test_rating_out_of_range():
    with pytest.raises(DomainError):
        Review("r", "x", 6)


def test_build_report_canonical(canonical_raw_episodes, canonical_reviews):
    report = build_report(canonical_raw_episodes, canonical_reviews)
    section = report.reviewers[0]
    assert section.catalog == ("M", "N", "V", "Z")
    assert section.joint_pattern == "01110011000100000000100011001110"

    degrees = {a.object: a.degree.value for a in section.assessments}
    assert degrees == {"M": 0, "N": Fraction(2, 3), "V": Fraction(2, 3), "Z": 0}

    zones = {a.object: a.zone for a in section.assessments}
    assert zones == {
        "M": Zone.IRRATIONAL,
        "N": Zone.IRRATIONAL,
        "V": Zone.RATIONAL,
        "Z": Zone.RATIONAL,
    }

    for a in section.assessments:
        assert a.polarity_match is True

    for obj in ("M", "Z"):
        notes = assessment_for(report, "rev-1", obj).annotations
        assert any("0.33" in note for note in notes)
    for obj in ("N", "V"):
        assert assessment_for(report, "rev-1", obj).annotations == ()

    assert section.overall.realized_r == 2
    assert binomial_rationality(section.overall.n, 1, section.overall.p) == Fraction(1, 4)
    assert not report.has_errors


def test_build_report_smoothed_variant(canonical_raw_episodes, canonical_reviews):
    report = build_report(canonical_raw_episodes, canonical_reviews, membership_variant="smoothed")
    degrees = {a.object: a.degree.value for a in report.reviewers[0].assessments}
    assert degrees["M"] == Fraction(1, 4) and degrees["Z"] == Fraction(1, 4)
    assert all(v > 0 for v in degrees.values())
    assert assessment_for(report, "rev-1", "M").annotations == ()


def test_build_report_d0_zone_configuration():
    eps = (
        episode("r", 1, "AB", "AB", "AB", "A"),
        episode("r", 2, "AB", "AB", "AB", "A"),
    )
    rational = build_report(eps, d0_zone="rational").reviewers[0]
    irrational = build_report(eps, d0_zone="irrational").reviewers[0]
    assert rational.overall.realized_r == 2
    assert irrational.overall.realized_r == 0


def test_build_report_single_period_conformance():
    eps = (episode("r", 1, "MNVZ", "MNV", "MN", "M"),)
    section = build_report(eps).reviewers[0]
    confs = {a.object: a.single_period_conformant for a in section.assessments}
    assert confs == {"M": True, "N": True, "V": True, "Z": False}
    for a in section.assessments:
        assert a.bar is None and a.zone is None and a.degree is None
    assert section.overall.realized_r is None


def test_build_report_three_periods_ranks_without_bars():
    eps = (
        episode("r", 1, "ABC", "ABC", "AB", "A"),
        episode("r", 2, "ABC", "ABC", "BA", "B"),
        episode("r", 3, "ABC", "ABC", "CB", "C"),
    )
    section = build_report(eps).reviewers[0]
    patterns = {a.object: a.pattern.render() for a in section.assessments}
    assert patterns == {"A": "{2,1,ε}", "B": "{1,2,1}", "C": "{ε,ε,2}"}
    ranks = {a.object: a.rank_class for a in section.assessments}
    assert ranks["A"] is RankClass.DECREASING
    assert ranks["C"] is RankClass.INCREASING
    assert ranks["B"] is RankClass.MIXED
    for a in section.assessments:
        assert a.bar is None and a.degree is None


def test_build_report_degrees_invariant_under_relabeling(canonical_raw_episodes, canonical_reviews):
    mapping = {"M": "obj-w", "N": "obj-x", "V": "obj-y", "Z": "obj-z"}
    relabeled_eps = [
        ChoiceEpisode(
            e.reviewer_id,
            e.period,
            tuple(mapping[o] for o in e.attainable),
            tuple(mapping[o] for o in e.wishlist),
            tuple(mapping[o] for o in e.cart),
            tuple(mapping[o] for o in e.final),
        )
        for e in canonical_raw_episodes
    ]
    relabeled_reviews = [
        Review(r.reviewer_id, mapping[r.object], r.rating, r.comment_polarity, r.comment_text)
        for r in canonical_reviews
    ]
    base = build_report(canonical_raw_episodes, canonical_reviews)
    moved = build_report(relabeled_eps, relabeled_reviews)
    for old, new in mapping.items():
        assert (
            assessment_for(base, "rev-1", old).degree.value
            == assessment_for(moved, "rev-1", new).degree.value
        )


def test_build_report_is_deterministic(canonical_raw_episodes, canonical_reviews):
    a = build_report(canonical_raw_episodes, canonical_reviews)
    b = build_report(canonical_raw_episodes, canonical_reviews)
    assert a == b


def test_build_report_flags_unknown_object(canonical_raw_episodes, canonical_reviews):
    stray = Review("rev-1", "QQ", 4, "positive")
    report = build_report(canonical_raw_episodes, list(canonical_reviews) + [stray])
    assert len(report.flagged_reviews) == 1
    assert report.flagged_reviews[0].review.object == "QQ"
    assert "catalog" in report.flagged_reviews[0].reason
    assert len(report.reviewers[0].assessments) == 4


def test_build_report_flags_unknown_reviewer(canonical_raw_episodes):
    stray = Review("somebody-else", "M", 4, "positive")
    report = build_report(canonical_raw_episodes, [stray])
    assert len(report.flagged_reviews) == 1
    assert "no validated episodes" in report.flagged_reviews[0].reason


def test_build_report_aggregates_bad_episodes(canonical_raw_episodes):
    broken = ChoiceEpisode("rev-2", 1, ("A", "B"), ("A", "B"), ("B", "C"), ("B",))
    report = build_report(list(canonical_raw_episodes) + [broken])
    assert len(report.reviewers) == 1
    assert len(report.errors) == 1
    assert report.errors[0].reviewer_id == "rev-2"
    assert report.has_errors


def test_build_report_duplicate_periods_rejected_per_reviewer(canonical_raw_episodes):
    dup = ChoiceEpisode("rev-1", 1, ("M",), ("M",), ("M",), ("M",))
    report = build_report(list(canonical_raw_episodes) + [dup])
    assert not report.reviewers
    assert any("duplicate periods" in e.message for e in report.errors)


def test_build_report_duplicate_review_flagged(canonical_raw_episodes, canonical_reviews):
    dup = Review("rev-1", "M", 5, "positive")
    report = build_report(canonical_raw_episodes, list(canonical_reviews) + [dup])
    assert any("duplicate" in f.reason for f in report.flagged_reviews)


def test_a_validated_episode_cannot_contradict_its_stage_sets():
    # The stage sets give the ranks (3, 0); a record claiming (3, 7) cannot be built.
    stages = ("r", 1, ("a", "b"), ("a",), ("a",), ("a",))
    with pytest.raises(DomainError, match=r"one stage rank per attainable object, \(3, 0\) by its stage sets, got \(3, 7\)"):
        ValidatedEpisode(*stages, (3, 7))
    built = ValidatedEpisode(*stages)
    assert built.ranks == (3, 0)
    assert built == ValidatedEpisode(*stages, [3, 0]) == validate_episode(ChoiceEpisode(*stages))
    assert build_report([built]) == build_report([ChoiceEpisode(*stages)])
    assert build_report([built]).reviewers[0].period_patterns == ("0100",)
    # The stage walk runs in the constructor, with validate_episode's errors.
    with pytest.raises(NestingError):
        ValidatedEpisode("r", 1, ("a", "b"), ("a",), ("b",), ("b",))
    with pytest.raises(EmptyFinalError):
        ValidatedEpisode("r", 1, ("a",), (), (), ())


def test_new_objects_append_to_catalog_end():
    eps = (
        episode("r", 1, "AB", "AB", "AB", "A"),
        episode("r", 2, "ABC", "ABC", "ABC", "C"),
    )
    section = build_report(eps).reviewers[0]
    assert section.catalog == ("A", "B", "C")
    pattern = assessment_for(build_report(eps), "r", "C").pattern
    assert pattern.absent_flags == (True, False)


def test_objects_with_equal_run_totals_share_one_pattern():
    eps = (
        episode("r", 1, "abcd", "a", "a", "a"),
        episode("r", 2, "abcd", "a", "a", "a"),
    )
    report = build_report(eps)
    b, c, d = (assessment_for(report, "r", obj).pattern for obj in "bcd")
    assert b is c is d
    assert b.slots == (EPSILON, EPSILON) and b.absent_flags == (False, False)
