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
import operator
import os
import re
import reprlib
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import __version__
from ._record import as_probability
from .choice_model import ChoiceEpisode
from .consistency import ChoiceFunctionTable, check_contraction, rationalizable
from .errors import ChoiceTrustError, DomainError, GradeError
from .info_index import IfsElement, IfsList, choose_from_list, entropy
from .rationality_outcomes import (
    MEMBERSHIP_VARIANTS,
    RankClass,
    bar_degrees,
    bar_frequency,
    iter_tau,
    signed_difference,
)
from .trust_scoring import (
    D0_ZONE_CHOICES,
    NarrativeCode,
    Polarity,
    ReportError,
    Review,
    ReviewerSection,
    TrustReport,
    Zone,
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


def _object(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object's members as a dict; a repeated key raises KeyError naming it."""
    record = dict(pairs)
    if len(record) < len(pairs):
        seen: set[str] = set()
        raise KeyError(next(key for key, _ in pairs if key in seen or seen.add(key)))
    return record


# Built once: json.loads builds a new decoder on every call that passes a hook.
_DECODER = json.JSONDecoder(object_pairs_hook=_object)


def _decode(text: str, path: str | Path, line: int | None = None) -> Any:
    """The JSON value in `text`, from `path`, or from its `line` for a JSONL record.

    Every decoding fault is a ParseError, a repeated key in an object too; in
    a whole document a syntax error names the line it sits on.
    """
    try:
        if text.startswith("\ufeff"):  # as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except KeyError as exc:
        problem = f"repeated key {reprlib.repr(exc.args[0])}"
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


_escape = json.encoder.encode_basestring_ascii


def _json_list(items: Sequence[str], newline: str, brackets: str = "[]") -> str:
    """The JSON texts `items` as a list, or with `brackets` "{}" as an object's members;
    the closing bracket sits at the indent that `newline` ends in."""
    if not items:
        return brackets
    inner = newline + "  "
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _json_template(keys: str, newline: str) -> str:
    """A JSON object of the space-separated `keys` whose values are %s slots, to fill with JSON texts."""
    return _json_list([f"{_escape(key)}: %s" for key in keys.split()], newline, "{}")


def _json_document(head: dict, key: str, items: Iterable, tail: dict, encode: Callable | None = None) -> Iterator[str]:
    """``json.dumps({**head, key: list(items), **tail}, indent=2) + "\\n"``
    in chunks: the head, then one chunk per item, then the tail.

    `key` is in neither `head` nor `tail`, whose keys are strings. An item is
    written by `encode`, which returns its JSON text as an item of the list,
    or else by ``json.dumps``. Its ``ensure_ascii`` escapes every newline in a
    string, so each raw newline in its text breaks a line of the layout, and
    replacing them re-indents a value to its depth.
    """
    head_fields, tail_fields = (
        [_escape(name) + ": " + json.dumps(value, indent=2).replace("\n", "\n  ") for name, value in fields.items()]
        for fields in (head, tail)
    )
    yield "{\n  " + "".join(field + ",\n  " for field in head_fields) + _escape(key) + ": ["
    lead, close = "\n    ", "]"
    for item in items:
        yield lead + (encode(item) if encode else json.dumps(item, indent=2).replace("\n", "\n    "))
        lead, close = ",\n    ", "\n  ]"
    yield close + "".join(",\n  " + field for field in tail_fields) + "\n}\n"


def _csv_chunks(fields: Sequence[str], blocks: Iterable[Iterable[Sequence[Any]]]) -> Iterator[str]:
    """The header line of a CSV table of `fields`, then each block of rows as one string.

    A row holds its cells in `fields` order; None is written as an empty cell.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    # An empty first block yields the header line on its own.
    for rows in itertools.chain([()], blocks):
        writer.writerows(rows)
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()


def _csv_row(row: dict, fields: Sequence[str]) -> tuple:
    """`row`'s cells in `fields` order: a bool is written true/false, and a missing key is an empty cell."""
    return tuple(
        ("true" if value else "false") if value is True or value is False else value
        for value in map(row.get, fields)
    )


@functools.lru_cache(maxsize=256)
def _distribution_cells(n: int, p: Fraction) -> tuple[tuple[int, str, str, str], ...]:
    """(r, probability, at_most, at_least) of Binomial(n, p), built and formatted once per (n, p).

    The distribution is computed here only. For p = a/b, the exact term
    ``binomial_rationality(n, r, p)`` is N_r / b**n with N_r = C(n, r) a**r (b - a)**(n - r),
    so each cell divides an integer (N_r or a sum of them) by b**n, which
    rounds exactly as ``_fmt8`` of the Fraction does.
    """
    a, b = p.numerator, p.denominator
    ups = list(itertools.accumulate(itertools.repeat(a, n), operator.mul, initial=1))
    downs = list(itertools.accumulate(itertools.repeat(b - a, n), operator.mul, initial=1))
    combs = itertools.accumulate(range(n), lambda c, r: c * (n - r) // (r + 1), initial=1)
    terms = [c * ups[r] * downs[n - r] for r, c in enumerate(combs)]
    below, whole = list(itertools.accumulate(terms, initial=0)), b**n
    return tuple(
        (r, _fmt8(term / whole), _fmt8(below[r + 1] / whole), _fmt8((whole - below[r]) / whole))
        for r, term in enumerate(terms)
    )


_DISTRIBUTION_ROW_JSON = _json_template("r probability at_most at_least", "\n          ")


@functools.lru_cache(maxsize=256)
def _distribution_json(n: int, p: Fraction) -> str:
    """The "distribution" list of a section's JSON, built once per (n, p) from `_distribution_cells`."""
    rows = [_DISTRIBUTION_ROW_JSON % (r, *map(_escape, texts)) for r, *texts in _distribution_cells(n, p)]
    return _json_list(rows, "\n        ")


# A reviewer section and one of its assessments, as items of the report's
# "reviewers" and "assessments" lists.
_SECTION_JSON = _json_template(
    "reviewer_id periods catalog period_patterns joint_pattern assessments overall_rationality", "\n    "
) % (*["%s"] * 6, _json_template("n p realized_rational_count distribution", "\n      "))
_ASSESSMENT_JSON = _json_template(
    "object pattern absent_periods rank_class bar zone degree polarity_match narrative"
    " single_period_conformant rating comment_polarity annotations",
    "\n        ",
)

# The JSON text of each value a report field takes from a fixed set: null,
# the bools, and the members of the report's enums.
_JSON_CONSTANT: dict[Any, str] = {None: "null", True: "true", False: "false"}
_JSON_CONSTANT.update((m, _escape(m.value)) for e in (RankClass, Zone, NarrativeCode, Polarity) for m in e)


def _section_json(section: ReviewerSection) -> str:
    """One reviewer section as an item of the report's "reviewers" list."""
    periods = section.periods
    assessments = []
    for a in section.assessments:
        review = a.review
        absent = [str(period) for period, flag in zip(periods, a.pattern.absent_flags) if flag]
        assessments.append(_ASSESSMENT_JSON % (
            _escape(a.object),
            _escape(a.pattern.render()),
            _json_list(absent, "\n          "),
            _JSON_CONSTANT[a.rank_class],
            "null" if a.bar is None else _escape(a.bar),
            _JSON_CONSTANT[a.zone],
            _escape(_fmt8(a.degree.value)) if a.degree else "null",
            _JSON_CONSTANT[a.polarity_match],
            _JSON_CONSTANT[a.narrative],
            _JSON_CONSTANT[a.single_period_conformant],
            "null" if review is None else review.rating,
            "null" if review is None else _JSON_CONSTANT[review.comment_polarity],
            _json_list(list(map(_escape, a.annotations)), "\n          "),
        ))
    overall = section.overall
    return _SECTION_JSON % (
        _escape(section.reviewer_id),
        _json_list(list(map(str, periods)), "\n      "),
        _json_list(list(map(_escape, section.catalog)), "\n      "),
        _json_list(list(map(_escape, section.period_patterns)), "\n      "),
        "null" if section.joint_pattern is None else _escape(section.joint_pattern),
        _json_list(assessments, "\n      "),
        overall.n,
        _escape(_fmt8(overall.p)),
        "null" if overall.realized_r is None else overall.realized_r,
        _distribution_json(overall.n, overall.p),
    )


# The report renderers below each yield the report's head, then one chunk per
# reviewer section, rendered from that section's records alone, then its tail.


def _json_stream(report: TrustReport) -> Iterator[str]:
    """The report as JSON, one reviewer section per chunk."""
    params = report.parameters
    head = {
        "tool": _TOOL,
        "parameters": {"membership": params.membership_variant, "d0_zone": params.d0_zone, "p": _fmt8(params.p)},
    }
    tail = {
        "flagged_reviews": [
            {"reviewer_id": f.review.reviewer_id, "object": f.review.object,
             "rating": f.review.rating, "reason": f.reason}
            for f in report.flagged_reviews
        ],
        "errors": [{"reviewer_id": e.reviewer_id, "message": e.message} for e in report.errors],
    }
    return _json_document(head, "reviewers", report.reviewers, tail, _section_json)


_CSV_COLUMNS = [
    "record", "reviewer_id", "object", "pattern", "rank_class", "bar", "zone",
    "degree", "polarity_match", "narrative", "rating", "comment_polarity",
    "annotations", "r", "probability", "at_most", "at_least", "reason", "message",
]


def _csv_blocks(report: TrustReport) -> Iterator[list[tuple]]:
    """The report's CSV rows, one per assessment, binomial row, flagged review and error.

    Each reviewer section is one block, and the flagged reviews and errors together the last.
    """
    for section in report.reviewers:
        rid, overall = section.reviewer_id, section.overall
        block = [
            (
                "assessment", rid, a.object, a.pattern.render(), a.rank_class.value, a.bar,
                a.zone.value if a.zone else None, _fmt8(a.degree.value) if a.degree else None,
                None if a.polarity_match is None else "true" if a.polarity_match else "false",
                a.narrative.value if a.narrative else None, a.review.rating if a.review else None,
                a.review.comment_polarity.value if a.review else None, " | ".join(a.annotations),
                None, None, None, None, None, None,
            )
            for a in section.assessments
        ]
        # An overall row leaves the columns object to annotations empty, and reason and message.
        cells = _distribution_cells(overall.n, overall.p)
        block += (("overall", rid, *(None,) * 11, *row, None, None) for row in cells)
        yield block
    flagged = (
        {"record": "flagged_review", "reviewer_id": f.review.reviewer_id, "object": f.review.object,
         "rating": f.review.rating, "reason": f.reason}
        for f in report.flagged_reviews
    )
    errors = ({"record": "error", "reviewer_id": e.reviewer_id, "message": e.message} for e in report.errors)
    yield [_csv_row(row, _CSV_COLUMNS) for row in itertools.chain(flagged, errors)]


def _csv_stream(report: TrustReport) -> Iterator[str]:
    return _csv_chunks(_CSV_COLUMNS, _csv_blocks(report))


def _text_stream(report: TrustReport) -> Iterator[str]:
    params = report.parameters
    yield f"{_TOOL}\nparameters: membership={params.membership_variant} d0-zone={params.d0_zone} p={_fmt8(params.p)}\n"
    for section in report.reviewers:
        lines = [
            "",
            f"reviewer {section.reviewer_id}  periods {list(section.periods)}  catalog [{', '.join(section.catalog)}]",
            "  period patterns: " + " ".join(section.period_patterns),
        ]
        if section.joint_pattern:
            lines.append("  joint pattern:   " + section.joint_pattern)
        lines.append(
            f"  {'object':<10}{'pattern':<12}{'rank':<12}{'bar':<5}{'zone':<12}{'degree':<12}{'match':<7}narrative"
        )
        for a in section.assessments:
            match = "" if a.polarity_match is None else ("yes" if a.polarity_match else "NO")
            lines.append(
                f"  {a.object:<9} {a.pattern.render():<11} {a.rank_class.value:<11} {a.bar or '-':<4} "
                f"{a.zone.value if a.zone else '-':<11} {_fmt8(a.degree.value) if a.degree else '-':<11} "
                f"{match:<6} {a.narrative.value if a.narrative else '-'}"
            )
            lines += (f"    note ({a.object}): {note}" for note in a.annotations)
        overall = section.overall
        lines.append(
            f"  overall: n={overall.n} p={_fmt8(overall.p)}"
            + (f" realized rational count={overall.realized_r}" if overall.realized_r is not None else "")
        )
        lines += (
            f"    r={r}  f={prob}  f(<= r)={at_most}  f(>= r)={at_least}"
            for r, prob, at_most, at_least in _distribution_cells(overall.n, overall.p)
        )
        yield "\n".join(lines) + "\n"
    lines = []
    if report.flagged_reviews:
        lines += ["", "flagged reviews:"]
        lines += (
            f"  {f.review.reviewer_id} / {f.review.object} (rating {f.review.rating}): {f.reason}"
            for f in report.flagged_reviews
        )
    if report.errors:
        lines += ["", "errors:"]
        lines += (f"  [{e.reviewer_id or '-'}] {e.message}" for e in report.errors)
    yield "".join(line + "\n" for line in lines)


_REPORT_RENDERERS = {"json": _json_stream, "csv": _csv_stream, "text": _text_stream}


def report_to_json(report: TrustReport) -> str:
    return "".join(_json_stream(report))


def report_to_csv(report: TrustReport) -> str:
    return "".join(_csv_stream(report))


def report_to_text(report: TrustReport) -> str:
    return "".join(_text_stream(report))


def report_to_dict(report: TrustReport) -> dict:
    """The report as plain JSON values: the document `report_to_json` writes, parsed."""
    return json.loads(report_to_json(report))


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


def tau_rows(n: int, t: int, membership_variant: str = "minmax") -> Iterator[dict]:
    """The rows `tau n t` lists, as the outcome set is enumerated; `n`, `t` and the cap are checked at once."""
    if t < 1:
        raise DomainError(f"need at least one period, got t={t}")
    if n < 2:
        raise DomainError(f"need at least 2 objects per period, got {n}")
    # n >= 2, so t >= bit_length(cap) already means n**t > cap; n**t is never built huge.
    if t >= MAX_TAU_ROWS.bit_length() or n**t > MAX_TAU_ROWS:
        raise DomainError(f"tau {n} {t} would list n**t > {MAX_TAU_ROWS} patterns")
    patterns = iter_tau([n] * t)
    if t != 2:
        return ({"pattern": pat.render(), "rank_class": pat.rank_class.value} for pat in patterns)
    degrees = bar_degrees((n, n), membership_variant)
    return (
        {"pattern": pat.render(), "rank_class": pat.rank_class.value, "bar": pat.bin,
         "frequency": bar_frequency((n, n), d), "membership": _fmt8(degrees[d].value)}
        for pat in patterns
        for d in [signed_difference(pat.slots)]
    )


def cmd_tau(n: int, t: int, *, membership_variant: str = "minmax", fmt: str = "text") -> Iterator[str]:
    """The listing of the outcome set in chunks, each rendered as its row is enumerated."""
    rows = tau_rows(n, t, membership_variant)
    fields = ["pattern", "rank_class", "bar", "frequency", "membership"][: 5 if t == 2 else 2]
    if fmt == "json":
        row_json = _json_template(" ".join(fields), "\n    ")
        # Every value of a row is a string but the frequency, an int.
        encode = lambda row: row_json % tuple(v if isinstance(v, int) else _escape(v) for v in row.values())
        return _json_document({"n": n, "t": t}, "rows", rows, {}, encode)
    if fmt == "csv":
        return _csv_chunks(fields, ([_csv_row(row, fields)] for row in rows))
    width = t * (len(str(n - 1)) + 1) + 3  # the widest pattern has all t slots at n - 1
    bar = "bar={bar:<3} f={frequency:<3} degree={membership}" if t == 2 else ""
    lines = (f"{r['pattern']:<{width}}{r['rank_class']:<12}{bar.format_map(r)}\n" for r in rows)
    return itertools.chain([f"rationality outcome set: n={n} t={t} size={n**t}\n"], lines)


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
        return "".join(_json_document({"chosen": chosen.id}, "elements", rows, {}))
    if fmt == "csv":
        fields = ["id", "mu", "nu", "H", "chosen"]
        return "".join(_csv_chunks(fields, [[_csv_row(row, fields) for row in rows]]))
    lines = [f"{r['id']:<11} mu={r['mu']:<7} nu={r['nu']:<7} H={r['H']}" for r in rows]
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
        tail = {"rationalizing_order": list(order) if order else None}
        return "".join(_json_document({"contraction_consistent": result.consistent}, "violations", violations, tail))
    if fmt == "csv":
        rows = [{"record": "verdict", "consistent": result.consistent, "order": ranking}]
        rows += (
            {**v, "record": "violation", "small": " ".join(v["small"]), "large": " ".join(v["large"])}
            for v in violations
        )
        fields = ["record", "consistent", "small", "large", "chosen_large", "chosen_small", "order"]
        return "".join(_csv_chunks(fields, [[_csv_row(row, fields) for row in rows]]))
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
            chunks = cmd_tau(args.n, args.t, membership_variant=args.membership, fmt=args.format)
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
