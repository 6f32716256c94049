"""Command-line surface: input parsing, report rendering, subcommands.

Episodes arrive as JSONL (one record per line, streaming-friendly); reviews,
graded lists, and choice tables are single JSON documents. Reports render as
json, csv, or text with all numbers at 8 decimal places and no timestamps,
so identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from . import __version__
from .choice_model import ChoiceEpisode
from .consistency import ChoiceFunctionTable, check_contraction, rationalizable
from .errors import ChoiceTrustError, DomainError
from .info_index import IfsElement, IfsList, choose_from_list, entropy
from .rationality_outcomes import bin_table, build_tau, membership, signed_difference
from .trust_scoring import (
    ReportError,
    Review,
    TrustReport,
    build_report,
)

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2

_TOOL = f"choicetrust {__version__}"


class ParseError(ChoiceTrustError):
    def __init__(self, path: str, line: int | None, message: str) -> None:
        where = f"{path}:{line}" if line is not None else path
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line


def _fmt8(x: Fraction | float) -> str:
    return f"{float(x):.8f}"


# ---------------------------------------------------------------------------
# wire parsing


def _read_text(path: str | Path) -> str:
    """The file as UTF-8 text; undecodable bytes become a ParseError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(str(path), None, f"not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_json(path: str | Path) -> Any:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(str(path), exc.lineno, f"invalid JSON ({exc.msg})") from None


def _require(record: dict, key: str, kind: type, path: str, line: int | None) -> Any:
    if key not in record:
        raise ParseError(path, line, f"missing field {key!r}")
    value = record[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise ParseError(path, line, f"field {key!r} must be {kind.__name__}, got {value!r}")
    return value


def _id_list(record: dict, key: str, path: str, line: int | None) -> tuple[str, ...]:
    value = _require(record, key, list, path, line)
    if not all(isinstance(v, str) for v in value):
        raise ParseError(path, line, f"field {key!r} must be a list of object-id strings")
    return tuple(value)


def parse_episode_record(record: dict, path: str = "<memory>", line: int | None = None) -> ChoiceEpisode:
    return ChoiceEpisode(
        reviewer_id=_require(record, "reviewer_id", str, path, line),
        period=_require(record, "period", int, path, line),
        attainable=_id_list(record, "catalog", path, line),
        wishlist=_id_list(record, "wishlist", path, line),
        cart=_id_list(record, "cart", path, line),
        final=_id_list(record, "final", path, line),
    )


def load_episodes(path: str | Path) -> tuple[list[ChoiceEpisode], list[str]]:
    """Read a JSONL episode file; malformed lines become diagnostics, not aborts."""
    episodes: list[ChoiceEpisode] = []
    problems: list[str] = []
    text = _read_text(path)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            record = json.loads(raw)
            if not isinstance(record, dict):
                raise ParseError(str(path), lineno, "episode record must be a JSON object")
            episodes.append(parse_episode_record(record, str(path), lineno))
        except json.JSONDecodeError as exc:
            problems.append(f"{path}:{lineno}: invalid JSON ({exc.msg})")
        except ChoiceTrustError as exc:
            problems.append(str(exc))
    return episodes, problems


def episodes_to_jsonl(episodes: Sequence[ChoiceEpisode]) -> str:
    lines = []
    for e in episodes:
        lines.append(
            json.dumps(
                {
                    "reviewer_id": e.reviewer_id,
                    "period": e.period,
                    "catalog": list(e.attainable),
                    "wishlist": list(e.wishlist),
                    "cart": list(e.cart),
                    "final": list(e.final),
                },
                ensure_ascii=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def load_reviews(path: str | Path) -> tuple[list[Review], list[str]]:
    """Read the reviews document; per-record problems become diagnostics."""
    doc = _read_json(path)
    if not isinstance(doc, list):
        raise ParseError(str(path), None, "reviews document must be a JSON array")
    reviews: list[Review] = []
    problems: list[str] = []
    for idx, record in enumerate(doc):
        try:
            if not isinstance(record, dict):
                raise ParseError(str(path), None, f"review #{idx} must be a JSON object")
            reviews.append(
                Review.make(
                    reviewer_id=_require(record, "reviewer_id", str, str(path), None),
                    obj=_require(record, "object", str, str(path), None),
                    rating=_require(record, "rating", int, str(path), None),
                    comment_polarity=record.get("comment_polarity"),
                    comment_text=record.get("comment_text", ""),
                )
            )
        except (ChoiceTrustError, ValueError) as exc:
            problems.append(f"{path}: review #{idx}: {exc}")
    return reviews, problems


def reviews_to_json(reviews: Sequence[Review]) -> str:
    doc = [
        {
            "reviewer_id": r.reviewer_id,
            "object": r.object,
            "rating": r.rating,
            "comment_polarity": r.comment_polarity.value,
            "comment_text": r.comment_text,
        }
        for r in reviews
    ]
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


def load_ifs_list(path: str | Path) -> IfsList:
    doc = _read_json(path)
    if not isinstance(doc, list) or not all(isinstance(e, dict) for e in doc):
        raise ParseError(str(path), None, "graded list must be a JSON array of objects")
    elements = []
    for idx, record in enumerate(doc):
        eid = record.get("id")
        if not isinstance(eid, str):
            raise ParseError(str(path), None, f"element #{idx} has no string 'id'")
        mu, nu = record.get("mu"), record.get("nu")
        if not isinstance(mu, (int, float)) or not isinstance(nu, (int, float)):
            raise ParseError(str(path), None, f"element {eid!r} needs numeric 'mu' and 'nu'")
        elements.append(IfsElement(id=eid, mu=float(mu), nu=float(nu)))
    return IfsList(elements=tuple(elements))


def ifs_list_to_json(lst: IfsList) -> str:
    doc = [{"id": e.id, "mu": e.mu, "nu": e.nu} for e in lst.elements]
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


def load_choice_table(path: str | Path) -> ChoiceFunctionTable:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(str(path), None, "choice table must be a JSON object")
    ground = doc.get("ground_set")
    entries = doc.get("choices")
    if not isinstance(ground, list) or not all(isinstance(g, str) for g in ground):
        raise ParseError(str(path), None, "'ground_set' must be a list of id strings")
    if not isinstance(entries, list):
        raise ParseError(str(path), None, "'choices' must be a list of {set, choice} records")
    choices = {}
    for idx, record in enumerate(entries):
        if not isinstance(record, dict) or "set" not in record or "choice" not in record:
            raise ParseError(str(path), None, f"choice #{idx} needs 'set' and 'choice' fields")
        choices[frozenset(_id_list(record, "set", str(path), None))] = _require(
            record, "choice", str, str(path), None
        )
    return ChoiceFunctionTable(ground_set=tuple(ground), choices=choices)


def choice_table_to_json(table: ChoiceFunctionTable) -> str:
    entries = [
        {"set": sorted(key), "choice": table.choices[key]}
        for key in sorted(table.choices, key=lambda s: (len(s), tuple(sorted(s))))
    ]
    doc = {"ground_set": list(table.ground_set), "choices": entries}
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


# ---------------------------------------------------------------------------
# report rendering


def report_to_dict(report: TrustReport) -> dict:
    reviewers = []
    for section in report.reviewers:
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
            {
                "r": r,
                "probability": _fmt8(overall.prob(r)),
                "at_most": _fmt8(overall.at_most(r)),
                "at_least": _fmt8(overall.at_least(r)),
            }
            for r in range(overall.n + 1)
        ]
        reviewers.append(
            {
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
        )
    return {
        "tool": report.tool_version or _TOOL,
        "parameters": {
            "membership": report.parameters.membership_variant,
            "d0_zone": report.parameters.d0_zone,
            "p": _fmt8(report.parameters.p),
        },
        "reviewers": reviewers,
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


def report_to_json(report: TrustReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, ensure_ascii=True) + "\n"


_CSV_COLUMNS = [
    "record", "reviewer_id", "object", "pattern", "rank_class", "bar", "zone",
    "degree", "polarity_match", "narrative", "rating", "comment_polarity",
    "annotations", "r", "probability", "at_most", "at_least", "reason", "message",
]


def report_to_csv(report: TrustReport) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    doc = report_to_dict(report)
    for section in doc["reviewers"]:
        for a in section["assessments"]:
            writer.writerow(
                {
                    "record": "assessment",
                    "reviewer_id": section["reviewer_id"],
                    "object": a["object"],
                    "pattern": a["pattern"],
                    "rank_class": a["rank_class"],
                    "bar": a["bar"] or "",
                    "zone": a["zone"] or "",
                    "degree": a["degree"] or "",
                    "polarity_match": "" if a["polarity_match"] is None else str(a["polarity_match"]).lower(),
                    "narrative": a["narrative"] or "",
                    "rating": "" if a["rating"] is None else a["rating"],
                    "comment_polarity": a["comment_polarity"] or "",
                    "annotations": " | ".join(a["annotations"]),
                }
            )
        for row in section["overall_rationality"]["distribution"]:
            writer.writerow(
                {
                    "record": "overall",
                    "reviewer_id": section["reviewer_id"],
                    "r": row["r"],
                    "probability": row["probability"],
                    "at_most": row["at_most"],
                    "at_least": row["at_least"],
                }
            )
    for f in doc["flagged_reviews"]:
        writer.writerow(
            {
                "record": "flagged_review",
                "reviewer_id": f["reviewer_id"],
                "object": f["object"],
                "rating": f["rating"],
                "reason": f["reason"],
            }
        )
    for e in doc["errors"]:
        writer.writerow({"record": "error", "reviewer_id": e["reviewer_id"] or "", "message": e["message"]})
    return buf.getvalue()


def report_to_text(report: TrustReport) -> str:
    doc = report_to_dict(report)
    lines = [doc["tool"]]
    params = doc["parameters"]
    lines.append(
        f"parameters: membership={params['membership']} d0-zone={params['d0_zone']} p={params['p']}"
    )
    for section in doc["reviewers"]:
        lines.append("")
        lines.append(
            f"reviewer {section['reviewer_id']}  periods {section['periods']}  "
            f"catalog [{', '.join(section['catalog'])}]"
        )
        lines.append("  period patterns: " + " ".join(section["period_patterns"]))
        if section["joint_pattern"]:
            lines.append("  joint pattern:   " + section["joint_pattern"])
        header = f"  {'object':<10}{'pattern':<12}{'rank':<12}{'bar':<5}{'zone':<12}{'degree':<12}{'match':<7}narrative"
        lines.append(header)
        for a in section["assessments"]:
            match = "" if a["polarity_match"] is None else ("yes" if a["polarity_match"] else "NO")
            lines.append(
                f"  {a['object']:<10}{a['pattern']:<12}{a['rank_class']:<12}"
                f"{a['bar'] or '-':<5}{a['zone'] or '-':<12}{a['degree'] or '-':<12}"
                f"{match:<7}{a['narrative'] or '-'}"
            )
            for note in a["annotations"]:
                lines.append(f"    note ({a['object']}): {note}")
        overall = section["overall_rationality"]
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
    if doc["flagged_reviews"]:
        lines.append("")
        lines.append("flagged reviews:")
        for f in doc["flagged_reviews"]:
            lines.append(f"  {f['reviewer_id']} / {f['object']} (rating {f['rating']}): {f['reason']}")
    if doc["errors"]:
        lines.append("")
        lines.append("errors:")
        for e in doc["errors"]:
            who = e["reviewer_id"] or "-"
            lines.append(f"  [{who}] {e['message']}")
    return "\n".join(lines) + "\n"


_REPORT_RENDERERS = {"json": report_to_json, "csv": report_to_csv, "text": report_to_text}


# ---------------------------------------------------------------------------
# subcommands


def cmd_score(
    episodes_path: str | Path,
    reviews_path: str | Path,
    *,
    membership_variant: str = "minmax",
    d0_zone: str = "rational",
    p: str | Fraction = Fraction(1, 2),
    fmt: str = "json",
) -> tuple[str, int]:
    """Full pipeline on an episode file plus a reviews document."""
    episodes, episode_problems = load_episodes(episodes_path)
    if not episodes and not episode_problems:
        raise ParseError(str(episodes_path), None, "episode file contains no records")
    reviews, review_problems = load_reviews(reviews_path)
    report = build_report(
        episodes,
        reviews,
        membership_variant=membership_variant,
        d0_zone=d0_zone,
        p=Fraction(p),
        tool_version=_TOOL,
    )
    if episode_problems or review_problems:
        extra = tuple(ReportError(reviewer_id=None, message=m) for m in episode_problems + review_problems)
        report = TrustReport(
            tool_version=report.tool_version,
            parameters=report.parameters,
            reviewers=report.reviewers,
            flagged_reviews=report.flagged_reviews,
            errors=report.errors + extra,
        )
    if not report.reviewers:
        raise ParseError(str(episodes_path), None, "no reviewer could be scored")
    output = _REPORT_RENDERERS[fmt](report)
    return output, EXIT_PARTIAL if report.has_errors else EXIT_OK


def tau_rows(n: int, t: int, membership_variant: str = "minmax") -> list[dict]:
    if t < 1:
        raise DomainError(f"need at least one period, got t={t}")
    patterns = build_tau([n] * t)
    table = bin_table((n, n)) if t == 2 else None
    rows = []
    for pat in patterns:
        row: dict[str, Any] = {"pattern": pat.render(), "rank_class": pat.rank_class.value}
        if table is not None:
            b = table.by_difference(signed_difference(pat.slots))
            row["bar"] = b.label
            row["frequency"] = b.frequency
            row["membership"] = _fmt8(membership(b.label, table, membership_variant).value)
        rows.append(row)
    return rows


def cmd_tau(n: int, t: int, *, membership_variant: str = "minmax", fmt: str = "text") -> str:
    rows = tau_rows(n, t, membership_variant)
    if fmt == "json":
        return json.dumps({"n": n, "t": t, "rows": rows}, indent=2, ensure_ascii=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        fields = list(rows[0].keys())
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    width = max(len(r["pattern"]) for r in rows) + 2
    lines = [f"rationality outcome set: n={n} t={t} size={len(rows)}"]
    for r in rows:
        line = f"{r['pattern']:<{width}}{r['rank_class']:<12}"
        if "bar" in r:
            line += f"bar={r['bar']:<4}f={r['frequency']:<4}degree={r['membership']}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def cmd_info_index(list_path: str | Path, *, fmt: str = "text") -> str:
    lst = load_ifs_list(list_path)
    if not lst.elements:
        raise ParseError(str(list_path), None, "graded list is empty")
    chosen = choose_from_list(lst)
    rows = [
        {"id": e.id, "mu": e.mu, "nu": e.nu, "H": _fmt8(entropy(e)), "chosen": e is chosen}
        for e in lst.elements
    ]
    if fmt == "json":
        return json.dumps({"chosen": chosen.id, "elements": rows}, indent=2, ensure_ascii=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["id", "mu", "nu", "H", "chosen"], lineterminator="\n")
        writer.writeheader()
        writer.writerows({**r, "chosen": str(r["chosen"]).lower()} for r in rows)
        return buf.getvalue()
    lines = [f"{r['id']:<12}mu={r['mu']:<8}nu={r['nu']:<8}H={r['H']}" for r in rows]
    lines.append(f"chosen: {chosen.id}")
    return "\n".join(lines) + "\n"


def cmd_check(table_path: str | Path, *, fmt: str = "text") -> str:
    table = load_choice_table(table_path)
    result = check_contraction(table)
    order = rationalizable(table)
    if fmt == "json":
        doc = {
            "contraction_consistent": result.consistent,
            "violations": [
                {
                    "small": list(v.small),
                    "large": list(v.large),
                    "chosen_large": v.chosen_large,
                    "chosen_small": v.chosen_small,
                }
                for v in result.violations
            ],
            "rationalizing_order": list(order) if order else None,
        }
        return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        fields = ["record", "consistent", "small", "large", "chosen_large", "chosen_small", "order"]
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerow(
            {
                "record": "verdict",
                "consistent": str(result.consistent).lower(),
                "order": " > ".join(order) if order else "none",
            }
        )
        for v in result.violations:
            writer.writerow(
                {
                    "record": "violation",
                    "small": " ".join(v.small),
                    "large": " ".join(v.large),
                    "chosen_large": v.chosen_large,
                    "chosen_small": v.chosen_small,
                }
            )
        return buf.getvalue()
    lines = [f"contraction: {'consistent' if result.consistent else 'VIOLATIONS'}"]
    for v in result.violations:
        lines.append("  " + v.describe())
    lines.append(
        "rationalizing order: " + (" > ".join(order) if order else "none")
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="choicetrust", description=__doc__)
    parser.add_argument("--version", action="version", version=_TOOL)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to this path instead of stdout")

    score = sub.add_parser("score", parents=[common], help="score reviewers from episode and review files")
    score.add_argument("episodes", help="JSONL episode file")
    score.add_argument("reviews", help="JSON reviews document")
    score.add_argument("--membership", choices=("minmax", "smoothed"), default="minmax")
    score.add_argument("--d0-zone", choices=("rational", "irrational"), default="rational")
    score.add_argument("--p", default="1/2", help="rational-zone probability (e.g. 0.5 or 1/2)")
    score.add_argument("--format", choices=("json", "csv", "text"), default="json")

    tau = sub.add_parser("tau", parents=[common], help="list the rationality outcome set")
    tau.add_argument("n", type=int)
    tau.add_argument("t", type=int)
    tau.add_argument("--membership", choices=("minmax", "smoothed"), default="minmax")
    tau.add_argument("--format", choices=("json", "csv", "text"), default="text")

    info = sub.add_parser("info-index", parents=[common], help="choose from a graded list by information index")
    info.add_argument("list", help="JSON graded-list document")
    info.add_argument("--format", choices=("json", "csv", "text"), default="text")

    check = sub.add_parser("check", parents=[common], help="consistency-check a complete choice table")
    check.add_argument("table", help="JSON choice-table document")
    check.add_argument("--format", choices=("json", "csv", "text"), default="text")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "score":
            output, code = cmd_score(
                args.episodes,
                args.reviews,
                membership_variant=args.membership,
                d0_zone=args.d0_zone,
                p=args.p,
                fmt=args.format,
            )
            _emit(output, args.out)
            return code
        if args.command == "tau":
            _emit(cmd_tau(args.n, args.t, membership_variant=args.membership, fmt=args.format), args.out)
            return EXIT_OK
        if args.command == "info-index":
            _emit(cmd_info_index(args.list, fmt=args.format), args.out)
            return EXIT_OK
        if args.command == "check":
            _emit(cmd_check(args.table, fmt=args.format), args.out)
            return EXIT_OK
    except OSError as exc:
        where = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: {where}", file=sys.stderr)
        return EXIT_FATAL
    except (ChoiceTrustError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
