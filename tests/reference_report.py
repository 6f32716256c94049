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
`report_to_json` takes its distribution rows from a memo of
`_distribution_cells` keyed by (n, p), which formats the exact numerator
walk of `OverallRationality.numerators`, so the distribution is compared
with `reference_distribution` too.

The report's document is built here the dict way too (`report_to_dict`,
one dict per reviewer section), with the csv and text writers that read it:
`cli_io` renders straight from the records, and `reference_output` is the
output each format must equal byte for byte.
"""

import csv
import io
import itertools
import json
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

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
from choicetrust.cli_io import _CSV_COLUMNS, _TOOL, _distribution_cells, _fmt8
from choicetrust.errors import ChoiceTrustError, ShapeError
from choicetrust._pipeline import _NOTE_MINMAX_FLOOR, _NOTE_REFERENCE_TABLE, _NOTE_SMALL_CATALOG
from choicetrust.trust_scoring import FlaggedReview, ReportError, ReportParameters


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
        pattern = RunPattern(slots, tuple(c is None for c in counts))
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


# ---------------------------------------------------------------------------
# The report as plain JSON values, and the csv and text writers that read it.
# `cli_io` renders each reviewer section straight from its records; these
# dict-based writers are the document those renderers must equal.


def _report_head(report: TrustReport) -> dict:
    return {
        "tool": _TOOL,
        "parameters": {
            "membership": report.parameters.membership_variant,
            "d0_zone": report.parameters.d0_zone,
            "p": _fmt8(report.parameters.p),
        },
    }


def _section_dict(section: ReviewerSection) -> dict:
    """One reviewer section as plain JSON values.

    Its distribution rows are those of Binomial(n, p) for the section's
    ``overall.n`` and ``overall.p``, taken from ``_distribution_cells``, which
    builds them once per (n, p); every call returns fresh dicts.
    """
    assessments = []
    for a in section.assessments:
        assessments.append(
            {
                "object": a.object,
                "pattern": a.pattern.render(),
                "absent_periods": [
                    period
                    for period, absent in zip(section.periods, a.pattern.absent_flags)
                    if absent
                ],
                "rank_class": a.rank_class.value,
                "bar": a.bar,
                "zone": a.zone.value if a.zone else None,
                "degree": _fmt8(a.degree.value) if a.degree else None,
                "polarity_match": a.polarity_match,
                "narrative": a.narrative.value if a.narrative else None,
                "single_period_conformant": a.single_period_conformant,
                "rating": a.review.rating if a.review else None,
                "comment_polarity": a.review.comment_polarity.value if a.review else None,
                "annotations": list(a.annotations),
            }
        )
    overall = section.overall
    distribution = [
        {"r": r, "probability": prob, "at_most": at_most, "at_least": at_least}
        for r, prob, at_most, at_least in _distribution_cells(overall.n, overall.p)
    ]
    return {
        "reviewer_id": section.reviewer_id,
        "periods": list(section.periods),
        "catalog": list(section.catalog),
        "period_patterns": list(section.period_patterns),
        "joint_pattern": section.joint_pattern,
        "assessments": assessments,
        "overall_rationality": {
            "n": overall.n,
            "p": _fmt8(overall.p),
            "realized_rational_count": overall.realized_r,
            "distribution": distribution,
        },
    }


def _report_tail(report: TrustReport) -> dict:
    return {
        "flagged_reviews": [
            {
                "reviewer_id": f.review.reviewer_id,
                "object": f.review.object,
                "rating": f.review.rating,
                "reason": f.reason,
            }
            for f in report.flagged_reviews
        ],
        "errors": [
            {"reviewer_id": e.reviewer_id, "message": e.message} for e in report.errors
        ],
    }


def report_to_dict(report: TrustReport) -> dict:
    """The report as plain JSON values: its head, one dict per reviewer section, its tail.

    The renderers below write the same document one section at a time.
    """
    return {
        **_report_head(report),
        "reviewers": [_section_dict(section) for section in report.reviewers],
        **_report_tail(report),
    }


def _csv_chunks(fields: Sequence[str], blocks: Iterable[Iterable[dict]]) -> Iterator[str]:
    """The header line of a CSV table of `fields`, then each block of rows as one string.

    Rows may hold other keys too. A bool is written true/false and None as an
    empty cell.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    # An empty first block yields the header line on its own.
    for rows in itertools.chain([()], blocks):
        writer.writerows(
            [
                ("true" if value else "false") if value is True or value is False else value
                for value in map(row.get, fields)
            ]
            for row in rows
        )
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()


def _csv_blocks(report: TrustReport) -> Iterator[list[dict]]:
    """The report's CSV records, one per assessment, binomial row, flagged review and error.

    Each reviewer section is one block, and the flagged reviews and errors together the last.
    """
    for section in report.reviewers:
        doc = _section_dict(section)
        rid = doc["reviewer_id"]
        block = [
            {**a, "record": "assessment", "reviewer_id": rid, "annotations": " | ".join(a["annotations"])}
            for a in doc["assessments"]
        ]
        block += (
            {**row, "record": "overall", "reviewer_id": rid}
            for row in doc["overall_rationality"]["distribution"]
        )
        yield block
    tail = _report_tail(report)
    yield [{**f, "record": "flagged_review"} for f in tail["flagged_reviews"]] + [
        {**e, "record": "error"} for e in tail["errors"]
    ]


def _csv_stream(report: TrustReport) -> Iterator[str]:
    return _csv_chunks(_CSV_COLUMNS, _csv_blocks(report))


def _text_stream(report: TrustReport) -> Iterator[str]:
    head = _report_head(report)
    params = head["parameters"]
    yield (
        f"{head['tool']}\n"
        f"parameters: membership={params['membership']} d0-zone={params['d0_zone']} p={params['p']}\n"
    )
    for section in report.reviewers:
        doc = _section_dict(section)
        lines = [
            "",
            f"reviewer {doc['reviewer_id']}  periods {doc['periods']}  catalog [{', '.join(doc['catalog'])}]",
            "  period patterns: " + " ".join(doc["period_patterns"]),
        ]
        if doc["joint_pattern"]:
            lines.append("  joint pattern:   " + doc["joint_pattern"])
        lines.append(
            f"  {'object':<10}{'pattern':<12}{'rank':<12}{'bar':<5}{'zone':<12}{'degree':<12}{'match':<7}narrative"
        )
        for a in doc["assessments"]:
            match = "" if a["polarity_match"] is None else ("yes" if a["polarity_match"] else "NO")
            lines.append(
                f"  {a['object']:<9} {a['pattern']:<11} {a['rank_class']:<11} "
                f"{a['bar'] or '-':<4} {a['zone'] or '-':<11} {a['degree'] or '-':<11} "
                f"{match:<6} {a['narrative'] or '-'}"
            )
            for note in a["annotations"]:
                lines.append(f"    note ({a['object']}): {note}")
        overall = doc["overall_rationality"]
        realized = overall["realized_rational_count"]
        lines.append(
            f"  overall: n={overall['n']} p={overall['p']}"
            + (f" realized rational count={realized}" if realized is not None else "")
        )
        for row in overall["distribution"]:
            lines.append(
                f"    r={row['r']}  f={row['probability']}  "
                f"f(<= r)={row['at_most']}  f(>= r)={row['at_least']}"
            )
        yield "\n".join(lines) + "\n"
    tail = _report_tail(report)
    lines = []
    if tail["flagged_reviews"]:
        lines += ["", "flagged reviews:"]
        for f in tail["flagged_reviews"]:
            lines.append(f"  {f['reviewer_id']} / {f['object']} (rating {f['rating']}): {f['reason']}")
    if tail["errors"]:
        lines += ["", "errors:"]
        for e in tail["errors"]:
            lines.append(f"  [{e['reviewer_id'] or '-'}] {e['message']}")
    yield "".join(line + "\n" for line in lines)


def reference_output(report: TrustReport, fmt: str) -> str:
    """The report as `score --format fmt` should write it, from the dict document."""
    if fmt == "json":
        return json.dumps(report_to_dict(report), indent=2, ensure_ascii=True) + "\n"
    return "".join({"csv": _csv_stream, "text": _text_stream}[fmt](report))
