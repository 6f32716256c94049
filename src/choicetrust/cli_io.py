"""Command-line surface: input parsing, report rendering, subcommands.

Episodes arrive as JSONL (one record per line, streaming-friendly); reviews,
graded lists, and choice tables are single JSON documents. Reports render as
json, csv, or text with all numbers at 8 decimal places and no timestamps,
so identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import re
import reprlib
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from . import __version__
from ._record import as_probability
from .choice_model import ChoiceEpisode
from .consistency import ChoiceFunctionTable, check_contraction, rationalizable
from .errors import ChoiceTrustError, DomainError, GradeError
from .info_index import IfsElement, IfsList, choose_from_list, entropy
from .rationality_outcomes import (
    MEMBERSHIP_VARIANTS,
    bar_degrees,
    bar_frequency,
    build_tau,
    signed_difference,
)
from .trust_scoring import (
    D0_ZONE_CHOICES,
    ReportError,
    Review,
    ReviewerSection,
    TrustReport,
    binomial_rationality,
    build_report,
)

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2

# Output formats every command renders.
FORMATS = ("json", "csv", "text")

# Largest outcome set `tau` lists; it holds n**t patterns.
MAX_TAU_ROWS = 10**6

_TOOL = f"choicetrust {__version__}"


class ParseError(ChoiceTrustError):
    """Malformed input; the message starts with where it sits."""

    def __init__(self, where: str | Path, message: str) -> None:
        super().__init__(f"{where}: {message}")


def _fmt8(x: Fraction | float) -> str:
    return f"{float(x):.8f}"


# ---------------------------------------------------------------------------
# wire parsing


def _read_text(path: str | Path) -> str:
    """The file as UTF-8 text; undecodable bytes become a ParseError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(path, f"not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _decode(text: str, path: str | Path, line: int | None = None) -> Any:
    """The JSON value in `text`, from `path`, or from its `line` for a JSONL record.

    Every decoding fault is a ParseError; in a whole document a syntax error
    names the line it sits on.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        line, problem = line or exc.lineno, exc.msg
    except ValueError:  # an integer literal over sys.get_int_max_str_digits()
        problem = "integer literal too long"
    except RecursionError:
        problem = "nested too deeply"
    raise ParseError(path if line is None else f"{path}:{line}", f"invalid JSON ({problem})")


def _shape(value: Any, kind: type[dict] | type[list], where: str | Path, noun: str) -> Any:
    """`value` if it is a JSON object (`dict`) or array (`list`), as `kind` says."""
    if not isinstance(value, kind):
        raise ParseError(where, f"{noun} must be a JSON {'object' if kind is dict else 'array'}")
    return value


# Ids are printed in reports and error lines, so no id may hold a control
# character (C0, DEL, C1), a line or paragraph separator, or a lone surrogate,
# which UTF-8 cannot encode.
_NOT_IN_ID = re.compile(r"[\x00-\x1f\x7f-\x9f\u2028\u2029\ud800-\udfff]")


def _is_id(value: Any) -> bool:
    return isinstance(value, str) and _NOT_IN_ID.search(value) is None


def _is_id_list(value: Any) -> bool:
    # Its strings are all ids exactly when their concatenation is one.
    try:
        return isinstance(value, list) and _is_id("".join(value))
    except TypeError:  # an entry is not a string
        return False


# Each field kind of the wire formats, by the name error messages give it.
_KINDS = {
    "str": lambda v: isinstance(v, str),
    "id": _is_id,
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    # `float` takes every JSON number up to the largest finite double.
    "number": lambda v: isinstance(v, float)
    or isinstance(v, int) and not isinstance(v, bool) and abs(v) <= sys.float_info.max,
    "a list": lambda v: isinstance(v, list),
    "a list of id strings": _is_id_list,
}
_REQUIRED = object()


def _field(record: dict, key: str, kind: str, where: str | Path, default: Any = _REQUIRED) -> Any:
    """`record[key]`, checked to be of the wire type `kind`.

    An absent field takes `default` and is an error without one; a field
    whose default is None may also be given as null.
    """
    value = record.get(key, default)
    if value is _REQUIRED:
        raise ParseError(where, f"missing field {key!r}")
    if value is not default and not _KINDS[kind](value):
        raise ParseError(where, f"field {key!r} must be {kind}, got {reprlib.repr(value)}")
    return value


def parse_episode_record(record: Any, path: str | Path = "<memory>", line: int | None = None) -> ChoiceEpisode:
    where = path if line is None else f"{path}:{line}"
    record = _shape(record, dict, where, "episode record")
    return ChoiceEpisode(
        reviewer_id=_field(record, "reviewer_id", "id", where),
        period=_field(record, "period", "int", where),
        attainable=_field(record, "catalog", "a list of id strings", where),
        wishlist=_field(record, "wishlist", "a list of id strings", where),
        cart=_field(record, "cart", "a list of id strings", where),
        final=_field(record, "final", "a list of id strings", where),
    )


def load_episodes(path: str | Path) -> tuple[list[ChoiceEpisode], list[str]]:
    """Read a JSONL episode file; malformed lines become diagnostics, not aborts."""
    episodes: list[ChoiceEpisode] = []
    problems: list[str] = []
    # Lines end at "\n" only: splitlines() would also split at a U+2028 inside a string.
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        if not raw.strip():
            continue
        try:
            episodes.append(parse_episode_record(_decode(raw, path, lineno), path, lineno))
        except ParseError as exc:
            problems.append(str(exc))
        except ChoiceTrustError as exc:
            problems.append(f"{path}:{lineno}: {exc}")
    return episodes, problems


def load_reviews(path: str | Path) -> tuple[list[Review], list[str]]:
    """Read the reviews document; per-record problems become diagnostics."""
    doc = _shape(_decode(_read_text(path), path), list, path, "reviews document")
    reviews: list[Review] = []
    problems: list[str] = []
    for idx, record in enumerate(doc):
        where = f"{path}: review #{idx}"
        try:
            record = _shape(record, dict, where, "review")
            reviews.append(
                Review(
                    reviewer_id=_field(record, "reviewer_id", "id", where),
                    object=_field(record, "object", "id", where),
                    rating=_field(record, "rating", "int", where),
                    comment_polarity=_field(record, "comment_polarity", "str", where, None),
                    comment_text=_field(record, "comment_text", "str", where, ""),
                )
            )
        except ParseError as exc:
            problems.append(str(exc))
        except ChoiceTrustError as exc:
            problems.append(f"{where}: {exc}")
    return reviews, problems


def load_ifs_list(path: str | Path) -> IfsList:
    doc = _shape(_decode(_read_text(path), path), list, path, "graded list")
    elements: dict[str, IfsElement] = {}
    for idx, record in enumerate(doc):
        where = f"{path}: element #{idx}"
        record = _shape(record, dict, where, "element")
        oid = _field(record, "id", "id", where)
        if oid in elements:
            raise ParseError(where, f"id {oid!r} is already listed")
        try:
            elements[oid] = IfsElement(
                id=oid,
                mu=float(_field(record, "mu", "number", where)),
                nu=float(_field(record, "nu", "number", where)),
            )
        except GradeError as exc:
            raise ParseError(where, str(exc)) from None
    return IfsList(elements=tuple(elements.values()))


def load_choice_table(path: str | Path) -> ChoiceFunctionTable:
    doc = _shape(_decode(_read_text(path), path), dict, path, "choice table")
    ground = _field(doc, "ground_set", "a list of id strings", path)
    choices: dict[frozenset[str], str] = {}
    for idx, record in enumerate(_field(doc, "choices", "a list", path)):
        where = f"{path}: choice #{idx}"
        record = _shape(record, dict, where, "choice")
        ids = _field(record, "set", "a list of id strings", where)
        key = frozenset(ids)
        if len(key) != len(ids):
            raise ParseError(where, f"'set' repeats an id: {reprlib.repr(ids)}")
        if key in choices:
            raise ParseError(where, f"'set' {reprlib.repr(ids)} is already listed")
        choices[key] = _field(record, "choice", "id", where)
    try:
        return ChoiceFunctionTable(ground_set=ground, choices=choices)
    except DomainError as exc:
        raise ParseError(path, str(exc)) from None


# ---------------------------------------------------------------------------
# report rendering


@functools.lru_cache(maxsize=256)
def _distribution_cells(n: int, p: Fraction) -> tuple[tuple[int, str, str, str], ...]:
    """(r, probability, at_most, at_least) of Binomial(n, p), built and formatted once per (n, p).

    This is the one cache of the distribution: the pmf is exact
    ``binomial_rationality`` terms, ``below[r]`` is the exact sum of the
    terms under r, at_most(r) is ``below[r + 1]`` and at_least(r) is
    ``1 - below[r]``.
    """
    pmf = [binomial_rationality(n, r, p) for r in range(n + 1)]
    below = list(itertools.accumulate(pmf, initial=Fraction(0)))
    return tuple((r, _fmt8(pmf[r]), _fmt8(below[r + 1]), _fmt8(1 - below[r])) for r in range(n + 1))


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


_escape = json.encoder.encode_basestring_ascii


def _json(doc: Any) -> str:
    """``json.dumps(doc, indent=2, ensure_ascii=True) + "\\n"`` for a document whose
    keys are strings, written without the pure-Python encoder that ``indent``
    selects.

    Strings go through the C escaper. Each scalar is one chunk: its
    separator, key and value together.
    """
    chunks: list[str] = []
    _json_chunks(doc, "", "\n", chunks)
    chunks.append("\n")
    return "".join(chunks)


def _json_chunks(value: Any, lead: str, newline: str, chunks: list[str]) -> None:
    """Append `lead` and then `value`, nested at the indent that `newline` ends in.

    Types are tested as ``json.dumps`` tests them: a bool before an int, a
    tuple as a list, a str, int or float subclass as its value.
    """
    if isinstance(value, str):
        chunks.append(lead + _escape(value))
    elif value is None:
        chunks.append(lead + "null")
    elif value is True:
        chunks.append(lead + "true")
    elif value is False:
        chunks.append(lead + "false")
    elif isinstance(value, int):
        chunks.append(lead + int.__repr__(value))
    elif isinstance(value, float):
        chunks.append(lead + _float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            chunks.append(lead + "[]")
            return
        inner = newline + "  "
        lead += "[" + inner
        for item in value:
            _json_chunks(item, lead, inner, chunks)
            lead = "," + inner
        chunks.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            chunks.append(lead + "{}")
            return
        inner = newline + "  "
        lead += "{" + inner
        for key, item in value.items():
            _json_chunks(item, lead + _escape(key) + ": ", inner, chunks)
            lead = "," + inner
        chunks.append(newline + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _csv(fields: Sequence[str], rows: Iterable[dict]) -> str:
    """A CSV table of `fields` over `rows`, which may hold other keys too."""
    return "".join(_csv_chunks(fields, [rows]))


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


# The report renderers below each yield the report's head, then one chunk per
# reviewer section, rendered from that section's dict alone, then its tail.


def _json_stream(report: TrustReport) -> Iterator[str]:
    """``_json(report_to_dict(report))``, in chunks."""
    chunks: list[str] = []
    lead = "{\n  "
    for key, value in _report_head(report).items():
        _json_chunks(value, f"{lead}{_escape(key)}: ", "\n  ", chunks)
        lead = ",\n  "
    yield "".join(chunks) + lead + '"reviewers": ['
    lead = "\n    "
    for section in report.reviewers:
        chunks = []
        _json_chunks(_section_dict(section), lead, "\n    ", chunks)
        yield "".join(chunks)
        lead = ",\n    "
    chunks = ["\n  ]" if report.reviewers else "]"]
    for key, value in _report_tail(report).items():
        _json_chunks(value, f",\n  {_escape(key)}: ", "\n  ", chunks)
    chunks.append("\n}\n")
    yield "".join(chunks)


_CSV_COLUMNS = [
    "record", "reviewer_id", "object", "pattern", "rank_class", "bar", "zone",
    "degree", "polarity_match", "narrative", "rating", "comment_polarity",
    "annotations", "r", "probability", "at_most", "at_least", "reason", "message",
]


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
                f"  {a['object']:<10}{a['pattern']:<12}{a['rank_class']:<12}"
                f"{a['bar'] or '-':<5}{a['zone'] or '-':<12}{a['degree'] or '-':<12}"
                f"{match:<7}{a['narrative'] or '-'}"
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


_REPORT_RENDERERS = {"json": _json_stream, "csv": _csv_stream, "text": _text_stream}


def report_to_json(report: TrustReport) -> str:
    return "".join(_json_stream(report))


def report_to_csv(report: TrustReport) -> str:
    return "".join(_csv_stream(report))


def report_to_text(report: TrustReport) -> str:
    return "".join(_text_stream(report))


# ---------------------------------------------------------------------------
# subcommands


def cmd_score(
    episodes_path: str | Path,
    reviews_path: str | Path,
    *,
    membership_variant: str = "minmax",
    d0_zone: str = "rational",
    p: Fraction = Fraction(1, 2),
    fmt: str = "json",
) -> tuple[str, int]:
    """Full pipeline on an episode file plus a reviews document."""
    chunks, code = _score(episodes_path, reviews_path, membership_variant, d0_zone, p, fmt)
    return "".join(chunks), code


def _score(
    episodes_path: str | Path, reviews_path: str | Path, membership_variant: str, d0_zone: str, p: Fraction, fmt: str
) -> tuple[Iterator[str], int]:
    """`cmd_score`'s report as its renderer's chunks, not yet rendered, and its exit code.

    A report without a reviewer section is a ParseError.
    """
    episodes, episode_problems = load_episodes(episodes_path)
    if not episodes and not episode_problems:
        raise ParseError(episodes_path, "episode file contains no records")
    reviews, review_problems = load_reviews(reviews_path)
    report = build_report(
        episodes,
        reviews,
        membership_variant=membership_variant,
        d0_zone=d0_zone,
        p=p,
    )
    if episode_problems or review_problems:
        extra = tuple(ReportError(reviewer_id=None, message=m) for m in episode_problems + review_problems)
        report = TrustReport(
            report.parameters,
            report.reviewers,
            report.flagged_reviews,
            report.errors + extra,
        )
    if not report.reviewers:
        # Every episode is then in report.errors, as a parse or validation problem.
        count, first = len(report.errors), report.errors[0]
        who = "" if first.reviewer_id is None else f"reviewer {first.reviewer_id!r}: "
        raise ParseError(
            episodes_path,
            f"no reviewer could be scored ({count} problem{'' if count == 1 else 's'}; first: {who}{first.message})",
        )
    return _REPORT_RENDERERS[fmt](report), EXIT_PARTIAL if report.has_errors else EXIT_OK


def tau_rows(n: int, t: int, membership_variant: str = "minmax") -> list[dict]:
    if t < 1:
        raise DomainError(f"need at least one period, got t={t}")
    if n < 2:
        raise DomainError(f"need at least 2 objects per period, got {n}")
    # n >= 2, so t >= bit_length(cap) already means n**t > cap; n**t is never built huge.
    if t >= MAX_TAU_ROWS.bit_length() or n**t > MAX_TAU_ROWS:
        raise DomainError(f"tau {n} {t} would list n**t > {MAX_TAU_ROWS} patterns")
    degrees = bar_degrees((n, n), membership_variant) if t == 2 else None
    rows = []
    for pat in build_tau([n] * t):
        row: dict[str, Any] = {"pattern": pat.render(), "rank_class": pat.rank_class.value}
        if degrees is not None:
            d = signed_difference(pat.slots)
            row["bar"] = pat.bin
            row["frequency"] = bar_frequency((n, n), d)
            row["membership"] = _fmt8(degrees[d].value)
        rows.append(row)
    return rows


def cmd_tau(n: int, t: int, *, membership_variant: str = "minmax", fmt: str = "text") -> str:
    rows = tau_rows(n, t, membership_variant)
    if fmt == "json":
        return _json({"n": n, "t": t, "rows": rows})
    if fmt == "csv":
        return _csv(list(rows[0]), rows)
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
        raise ParseError(list_path, "graded list is empty")
    chosen = choose_from_list(lst)
    rows = [
        {"id": e.id, "mu": e.mu, "nu": e.nu, "H": _fmt8(entropy(e)), "chosen": e is chosen}
        for e in lst.elements
    ]
    if fmt == "json":
        return _json({"chosen": chosen.id, "elements": rows})
    if fmt == "csv":
        return _csv(["id", "mu", "nu", "H", "chosen"], rows)
    lines = [f"{r['id']:<12}mu={r['mu']:<8}nu={r['nu']:<8}H={r['H']}" for r in rows]
    lines.append(f"chosen: {chosen.id}")
    return "\n".join(lines) + "\n"


def cmd_check(table_path: str | Path, *, fmt: str = "text") -> str:
    table = load_choice_table(table_path)
    result = check_contraction(table)
    order = rationalizable(table)
    ranking = " > ".join(order) if order else "none"
    violations = [
        {"small": v.small, "large": v.large, "chosen_large": v.chosen_large, "chosen_small": v.chosen_small}
        for v in result.violations
    ]
    if fmt == "json":
        return _json(
            {
                "contraction_consistent": result.consistent,
                "violations": violations,
                "rationalizing_order": list(order) if order else None,
            }
        )
    if fmt == "csv":
        rows = [{"record": "verdict", "consistent": result.consistent, "order": ranking}]
        rows += (
            {**v, "record": "violation", "small": " ".join(v["small"]), "large": " ".join(v["large"])}
            for v in violations
        )
        return _csv(["record", "consistent", "small", "large", "chosen_large", "chosen_small", "order"], rows)
    lines = [f"contraction: {'consistent' if result.consistent else 'VIOLATIONS'}"]
    for v in result.violations:
        lines.append("  " + v.describe())
    lines.append("rationalizing order: " + ranking)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="choicetrust", description=__doc__)
    parser.add_argument("--version", action="version", version=_TOOL)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to this path instead of stdout")

    score = sub.add_parser("score", parents=[common], help="score reviewers from episode and review files")
    score.add_argument("episodes", help="JSONL episode file")
    score.add_argument("reviews", help="JSON reviews document")
    score.add_argument("--membership", choices=MEMBERSHIP_VARIANTS, default="minmax")
    score.add_argument("--d0-zone", choices=D0_ZONE_CHOICES, default="rational")
    score.add_argument("--p", default="1/2", help="rational-zone probability (e.g. 0.5 or 1/2)")
    score.add_argument("--format", choices=FORMATS, default="json")

    tau = sub.add_parser("tau", parents=[common], help="list the rationality outcome set")
    tau.add_argument("n", type=int)
    tau.add_argument("t", type=int)
    tau.add_argument("--membership", choices=MEMBERSHIP_VARIANTS, default="minmax")
    tau.add_argument("--format", choices=FORMATS, default="text")

    info = sub.add_parser("info-index", parents=[common], help="choose from a graded list by information index")
    info.add_argument("list", help="JSON graded-list document")
    info.add_argument("--format", choices=FORMATS, default="text")

    check = sub.add_parser("check", parents=[common], help="consistency-check a complete choice table")
    check.add_argument("table", help="JSON choice-table document")
    check.add_argument("--format", choices=FORMATS, default="text")
    return parser


def _write(chunks: Iterable[str], out: str | None) -> None:
    """Write `chunks` in order to the file `out`, or to stdout, each as it comes."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except OSError:
        # Whatever is still buffered would fail again when the interpreter
        # flushes stdout at exit, so stdout now leads to the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = EXIT_OK
        if args.command == "score":
            p = as_probability(args.p, "--p")
            chunks, code = _score(args.episodes, args.reviews, args.membership, args.d0_zone, p, args.format)
        elif args.command == "tau":
            chunks = [cmd_tau(args.n, args.t, membership_variant=args.membership, fmt=args.format)]
        elif args.command == "info-index":
            chunks = [cmd_info_index(args.list, fmt=args.format)]
        else:
            chunks = [cmd_check(args.table, fmt=args.format)]
        _write(chunks, args.out)
        return code
    except OSError as exc:
        where = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: {where}", file=sys.stderr)
        return EXIT_FATAL
    except (ChoiceTrustError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    raise SystemExit(main())
