"""The trust report built the paper's way: the whole-report reference for `build_report`.

Each reviewer section comes from the paper-literal constructs only. Every
period's preference matrix (`derive_matrix`) is flattened to its 0/1
pattern vector (`flatten`), the periods concatenate into the joint vector
(`concat_patterns`, which refuses periods whose catalogs differ), the
stop/run scanner (`scan_runs`) totals each object's runs, the enumerated
two-period outcome set (`bin_table`) gives each bar's degree
(`membership`). A section's `OverallRationality` holds only n, p and the
realized count, and `reference_distribution` sums each of its rows term by
term from `binomial_rationality`. Nothing here reads a stage-rank count, a
closed form or a cache, so a report that `report_to_json` renders the same
way from both pipelines shows the fast paths equal to the paper.
`report_to_json` takes its distribution rows from one cache keyed by
(n, p), so the distribution is compared with `reference_distribution` too.
"""

from fractions import Fraction

from choicetrust import (
    EPSILON,
    OverallRationality,
    ReviewerSection,
    RunCount,
    RunPattern,
    TrustAssessment,
    TrustReport,
    bin_table,
    binomial_rationality,
    classify_rank,
    concat_patterns,
    derive_matrix,
    flatten,
    match_review,
    membership,
    scan_runs,
    signed_difference,
    validate_episode,
    zone,
)
from choicetrust.errors import ChoiceTrustError, ShapeError
from choicetrust.trust_scoring import (
    _NOTE_MINMAX_FLOOR,
    _NOTE_REFERENCE_TABLE,
    _NOTE_SMALL_CATALOG,
    FlaggedReview,
    ReportError,
    ReportParameters,
)


def reference_overall(n, p, realized_r):
    """The overall-rationality record of n objects, realized_r of them rational."""
    return OverallRationality(n=n, p=Fraction(p), realized_r=realized_r)


def reference_distribution(overall):
    """The report's distribution rows, each cell added up from its own `binomial_rationality` terms."""
    terms = [binomial_rationality(overall.n, r, overall.p) for r in range(overall.n + 1)]
    return [
        {
            "r": r,
            "probability": f"{float(terms[r]):.8f}",
            "at_most": f"{float(sum(terms[: r + 1], Fraction(0))):.8f}",
            "at_least": f"{float(sum(terms[r:], Fraction(0))):.8f}",
        }
        for r in range(overall.n + 1)
    ]


def reference_section(reviewer_id, episodes, review_for, params):
    """One reviewer's section from matrices, pattern vectors, the scanner and bar tables."""
    catalog = tuple(dict.fromkeys(obj for ep in episodes for obj in ep.attainable))
    matrices = [derive_matrix(ep) for ep in episodes]
    vectors = [flatten(m) for m in matrices]
    joint = None
    if len(matrices) > 1:
        try:
            joint = concat_patterns(matrices).as_string()
        except ShapeError:  # the periods' catalogs differ
            pass
    totals = [dict(zip(m.order, scan_runs(v))) for m, v in zip(matrices, vectors)]

    two_period = len(episodes) == 2
    table = None
    if two_period and all(m.n >= 2 for m in matrices):
        table = bin_table((matrices[0].n, matrices[1].n))

    assessments = []
    rational = 0
    for obj in catalog:
        counts = [period.get(obj) for period in totals]
        slots = tuple(RunCount(c) if c else EPSILON for c in counts)
        pattern = RunPattern(obj, slots, tuple(c is None for c in counts))
        review = review_for.get(obj)
        fields = {
            **dict.fromkeys(("bar", "zone", "degree", "polarity_match", "narrative", "single_period_conformant")),
            "annotations": (),
        }
        if two_period:
            d = signed_difference(slots)
            fields["zone"] = zone(slots)
            if table is None:
                fields["annotations"] = (_NOTE_SMALL_CATALOG,)
            else:
                degree = membership(d, table, params.membership_variant)
                notes = ()
                if params.membership_variant == "minmax" and degree.value == 0:
                    notes = (_NOTE_MINMAX_FLOOR,)
                    if table.ns == (4, 4):
                        notes += (_NOTE_REFERENCE_TABLE,)
                fields.update(bar=table.by_difference(d).label, degree=degree, annotations=notes)
            if d > 0 or d == 0 and params.d0_zone == "rational":
                rational += 1
            if review is not None:
                fields["polarity_match"], fields["narrative"] = match_review(review, slots)
        elif len(episodes) == 1:
            fields["single_period_conformant"] = not slots[0].is_epsilon
        assessments.append(
            TrustAssessment(obj, pattern, classify_rank(slots), review=review, **fields)
        )

    return ReviewerSection(
        reviewer_id=reviewer_id,
        periods=tuple(ep.period for ep in episodes),
        catalog=catalog,
        period_patterns=tuple(v.as_string() for v in vectors),
        joint_pattern=joint,
        assessments=tuple(assessments),
        overall=reference_overall(len(catalog), params.p, rational if two_period else None),
    )


def reference_report(
    episodes, reviews=(), *, membership_variant="minmax", d0_zone="rational", p=Fraction(1, 2)
):
    """The report `build_report` should give for the same batch and parameters."""
    params = ReportParameters(membership_variant=membership_variant, d0_zone=d0_zone, p=p)
    groups, errors = {}, []
    for ep in episodes:
        try:
            valid = validate_episode(ep)
        except ChoiceTrustError as exc:
            errors.append(ReportError(ep.reviewer_id, str(exc)))
        else:
            groups.setdefault(valid.reviewer_id, []).append(valid)

    pending, flagged = {}, []
    for review in reviews:
        key = (review.reviewer_id, review.object)
        if key in pending:
            flagged.append(FlaggedReview(review, "duplicate review for this reviewer/object"))
        else:
            pending[key] = review

    sections = []
    for reviewer_id, eps in groups.items():
        eps = sorted(eps, key=lambda ep: ep.period)
        periods = [ep.period for ep in eps]
        if len(set(periods)) < len(periods):
            errors.append(ReportError(reviewer_id, f"duplicate periods {periods}"))
            continue
        objects = {obj for ep in eps for obj in ep.attainable}
        review_for = {
            obj: pending.pop((rid, obj)) for rid, obj in list(pending) if rid == reviewer_id and obj in objects
        }
        sections.append(reference_section(reviewer_id, eps, review_for, params))

    scored = {s.reviewer_id for s in sections}
    for (reviewer_id, _), review in pending.items():
        reason = (
            "object absent from the reviewer's catalogs"
            if reviewer_id in scored
            else "reviewer has no validated episodes"
        )
        flagged.append(FlaggedReview(review, reason))
    return TrustReport(params, tuple(sections), tuple(flagged), tuple(errors))
