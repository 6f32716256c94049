"""Command-line surface: input parsing, report rendering, subcommands.

Episodes arrive as JSONL (one record per line, streaming-friendly); reviews,
graded lists, and choice tables are single JSON documents. Reports render as
json, csv, or text with all numbers at 8 decimal places and no timestamps,
so identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
import os
import re
import reprlib
import stat
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Iterator, NoReturn, Sequence

from . import __version__
from ._pipeline import (
    D0_ZONE_CHOICES,
    MEMBERSHIP_VARIANTS,
    NarrativeCode,
    OverallRationality,
    Polarity,
    ReportError,
    Review,
    ReviewerSection,
    TrustReport,
    ValidatedEpisode,
    _Scored,
    as_probability,
    build_report,
)
from .errors import ChoiceTrustError

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2

# Output formats every command renders.
FORMATS = ("json", "csv", "text")

_TOOL = f"choicetrust {__version__}"


class ParseError(ChoiceTrustError):
    """Malformed input; the message starts with where it sits, its path written by `_path_text`."""

    def __init__(self, where: str | Path, message: str) -> None:
        super().__init__(f"{_path_text(where)}: {message}")


def _fault(where: str | Path | None, message: str) -> ChoiceTrustError:
    """A ParseError at `where`; with no `where`, a ChoiceTrustError that the reader of records locates."""
    return ChoiceTrustError(message) if where is None else ParseError(where, message)


def _fmt8(x: Fraction | float) -> str:
    return f"{float(x):.8f}"


# ---------------------------------------------------------------------------
# wire parsing


def _not_utf8(exc: UnicodeDecodeError) -> str:
    """The problem of bytes that are not UTF-8, at the first of them within what was decoded: a file or a line."""
    return f"not UTF-8 text ({exc.reason} at byte {exc.start})"


def _read_text(path: str | Path) -> str:
    """A whole JSON document as UTF-8 text, every CR kept; undecodable bytes are a ParseError naming the file."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(path, _not_utf8(exc)) from None


def _object(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object's members as a dict; a repeated key raises KeyError naming it."""
    record = dict(pairs)
    if len(record) < len(pairs):
        seen: set[str] = set()
        raise KeyError(next(key for key, _ in pairs if key in seen or seen.add(key)))
    return record


# Built once: json.loads builds a new decoder on every call that passes a hook.
_DECODER = json.JSONDecoder(object_pairs_hook=_object)
_JSON_SPACE = " \t\n\r"  # JSON's whitespace, all that may surround a value; a blank JSONL line holds nothing else


def _decode(text: str, where: str | Path | None) -> Any:
    """The JSON value in `text`, parsed once by the decoder's C scanner. A fault, raised by `_fault`, is `invalid
    JSON (...)` in `json.loads`' words, a repeated key too; in a whole document a syntax error names its line."""
    try:
        if text.startswith("\ufeff"):  # as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        try:
            value, end = _DECODER.scan_once(text, len(text) - len(text.lstrip(_JSON_SPACE)))
        except StopIteration as exc:  # no value: raw_decode's words
            raise json.JSONDecodeError("Expecting value", text, exc.value) from None
        if end < len(text) and (rest := text[end:].lstrip(_JSON_SPACE)):  # trailing data: decode's words
            raise json.JSONDecodeError("Extra data", text, len(text) - len(rest))
        return value
    except KeyError as exc:
        problem = f"repeated key {reprlib.repr(exc.args[0])}"
    except json.JSONDecodeError as exc:
        problem, where = exc.msg, None if where is None else f"{where}:{exc.lineno}"
    except ValueError:  # an integer literal over sys.get_int_max_str_digits()
        problem = "integer literal too long"
    except RecursionError:
        problem = "nested too deeply"
    raise _fault(where, f"invalid JSON ({problem})")


def _shape(value: Any, kind: type[dict] | type[list], where: str | Path | None, noun: str) -> Any:
    """`value` if it is a JSON object (`dict`) or array (`list`), as `kind` says; a fault is raised by `_fault`."""
    if not isinstance(value, kind):
        raise _fault(where, f"{noun} must be a JSON {'object' if kind is dict else 'array'}")
    return value


# Ids are printed in reports and error lines, so no id may hold a control
# character (C0, DEL, C1), a line or paragraph separator, or a lone surrogate,
# which UTF-8 cannot encode.
_NOT_IN_ID = re.compile(r"[\x00-\x1f\x7f-\x9f\u2028\u2029\ud800-\udfff]")


def _is_id(value: Any) -> bool:
    return isinstance(value, str) and _NOT_IN_ID.search(value) is None


def _path_text(path: str | Path) -> str:
    """`path` as a message names it: as it is, or as `ascii` writes it if it holds a character no id may hold."""
    return str(path) if _is_id(str(path)) else ascii(str(path))


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


def _field(record: dict, key: str, kind: str, where: str | Path | None, default: Any = _REQUIRED) -> Any:
    """`record[key]`, checked to be of the wire type `kind`.

    An absent field takes `default` and is an error without one; a field
    whose default is None may also be given as null. A fault is raised by `_fault`.
    """
    value = record.get(key, default)
    if value is _REQUIRED:
        raise _fault(where, f"missing field {key!r}")
    if value is not default and not _KINDS[kind](value):
        raise _fault(where, f"field {key!r} must be {kind}, got {reprlib.repr(value)}")
    return value


def load_episodes(path: str | Path) -> tuple[list[ValidatedEpisode], list[str]]:
    """Read a JSONL episode file, skipping blank lines (JSON whitespace only). An undecodable, malformed or invalid
    line, or a repeat of an accepted line's reviewer and period, is a `path:line` diagnostic; the others are records."""
    episodes: list[ValidatedEpisode] = []
    problems: list[str] = []
    accepted: dict[tuple[str, int], int] = {}
    name = _path_text(path)
    # Split at b"\n", a byte within no other UTF-8 character, and only there: splitlines() also splits at U+2028.
    for lineno, line in enumerate(Path(path).read_bytes().split(b"\n"), start=1):
        try:
            if not (raw := line.decode("utf-8")).strip(_JSON_SPACE):
                continue
            record = _shape(_decode(raw, None), dict, None, "episode record")
            get = record.get
            rid, period, catalog, wishlist, cart, final = fields = (
                get("reviewer_id"), get("period"), get("catalog"), get("wishlist"), get("cart"), get("final")
            )
            try:  # exact types and one search over every id; on a miss, a `_field` call per field names the fault
                wire = (
                    type(rid) is str and type(period) is int
                    and type(catalog) is type(wishlist) is type(cart) is type(final) is list
                    and not _NOT_IN_ID.search("".join([rid, *catalog, *wishlist, *cart, *final]))
                )
            except TypeError:  # a list entry is not a string
                wire = False
            if not wire:
                fields = (
                    _field(record, "reviewer_id", "id", None), _field(record, "period", "int", None),
                    *[_field(record, key, "a list of id strings", None) for key in ("catalog", "wishlist", "cart", "final")],
                )
            episode = ValidatedEpisode(*fields)
            key = episode.reviewer_id, episode.period
            if accepted.setdefault(key, lineno) != lineno:
                raise ChoiceTrustError("reviewer %r already has period %d (line %d)" % (*key, accepted[key]))
            episodes.append(episode)
        except ChoiceTrustError as exc:  # raised with no place: each line's problem is placed here
            problems.append(f"{name}:{lineno}: {exc}")
        except UnicodeDecodeError as exc:
            problems.append(f"{name}:{lineno}: {_not_utf8(exc)}")
    return episodes, problems


def load_reviews(path: str | Path) -> tuple[list[Review], list[str]]:
    """Read the reviews document; per-record problems become diagnostics."""
    name = _path_text(path)
    doc = _shape(_decode(_read_text(path), name), list, name, "reviews document")
    reviews: list[Review] = []
    problems: list[str] = []
    for idx, record in enumerate(doc):
        try:
            get = _shape(record, dict, None, "review").get
            rid, obj, rating, polarity, text = fields = (
                get("reviewer_id"), get("object"), get("rating"), get("comment_polarity"), get("comment_text", "")
            )
            if not (  # as for an episode
                type(rid) is type(obj) is type(text) is str and type(rating) is int
                and (polarity is None or type(polarity) is str) and not _NOT_IN_ID.search(rid + obj)
            ):
                fields = (_field(record, "reviewer_id", "id", None), _field(record, "object", "id", None),
                          _field(record, "rating", "int", None), _field(record, "comment_polarity", "str", None, None),
                          _field(record, "comment_text", "str", None, ""))
            reviews.append(Review(*fields))
        except ChoiceTrustError as exc:
            problems.append(f"{name}: review #{idx}: {exc}")
    return reviews, problems


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


def _json_document(head: dict, key: str, items: Iterable, tail: dict, encode: Callable) -> Iterator[str]:
    """``json.dumps({**head, key: list(items), **tail}, indent=2) + "\\n"``
    in chunks: the head, then one chunk per item, then the tail.

    `key` is in neither `head` nor `tail`, whose keys are strings. `encode`
    returns an item's JSON text as an item of the list; a head or tail field
    is written by ``json.dumps``. Its ``ensure_ascii`` escapes every newline in
    a string, so each raw newline in its text breaks a line of the layout, and
    replacing them re-indents a value to its depth.
    """
    head_fields, tail_fields = (
        [_escape(name) + ": " + json.dumps(value, indent=2).replace("\n", "\n  ") for name, value in fields.items()]
        for fields in (head, tail)
    )
    yield "{\n  " + "".join(field + ",\n  " for field in head_fields) + _escape(key) + ": ["
    lead, close = "\n    ", "]"
    for item in items:
        yield lead + encode(item)
        lead, close = ",\n    ", "\n  ]"
    yield close + "".join(",\n  " + field for field in tail_fields) + "\n}\n"


def _csv_writer() -> Callable[[Iterable[Sequence[Any]]], str]:
    """A function that returns the CSV text of the rows it is given; None is written as an empty cell."""
    import csv  # here, so that a run that writes no CSV never loads it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")

    def write(rows: Iterable[Sequence[Any]]) -> str:
        writer.writerows(rows)
        text = buf.getvalue()
        buf.seek(0)
        buf.truncate()
        return text

    return write


def _distribution_cells(n: int, p: Fraction) -> tuple[tuple[int, str, str, str], ...]:
    """(r, probability, at_most, at_least) of Binomial(n, p), formatted by `_fmt8`; each renderer memoizes it.

    Each cell divides integers of `OverallRationality.numerators` by b**n, which rounds as `_fmt8` of the Fraction.
    """
    whole = p.denominator**n
    return tuple(
        (r, _fmt8(term / whole), _fmt8((below + term) / whole), _fmt8((whole - below) / whole))
        for r, (term, below) in enumerate(OverallRationality(n, p).numerators())
    )


# A reviewer section, one of its assessments and one of its binomial rows, as
# items of the report's "reviewers", "assessments" and "distribution" lists.
_SECTION_JSON = _json_template(
    "reviewer_id periods catalog period_patterns joint_pattern assessments overall_rationality", "\n    "
) % (*["%s"] * 6, _json_template("n p realized_rational_count distribution", "\n      "))
_ASSESSMENT_JSON = _json_template(
    "object pattern absent_periods rank_class bar zone degree polarity_match narrative"
    " single_period_conformant rating comment_polarity annotations",
    "\n        ",
)
_DISTRIBUTION_ROW_JSON = _json_template("r probability at_most at_least", "\n          ")

# The JSON text of each value an assessment's per-object fields take: null,
# the bools, and the members of the narrative and polarity enums.
_JSON_CONSTANT: dict[Any, str] = {None: "null", True: "true", False: "false"}
_JSON_CONSTANT.update((m, _escape(m.value)) for e in (NarrativeCode, Polarity) for m in e)


def _per_binomial(render: Callable[[int, Fraction], Any]) -> Callable[[OverallRationality], Any]:
    """`render(n, p)` of a section's overall record, memoized for one render by n and p's numerator
    and denominator: hashing the Fraction itself is a Python-level call."""
    memo: dict[tuple[int, int, int], Any] = {}

    def rendered(overall: OverallRationality) -> Any:
        key = overall.n, overall.p.numerator, overall.p.denominator
        return memo.get(key) or memo.setdefault(key, render(overall.n, overall.p))

    return rendered


def _overall_json(n: int, p: Fraction) -> tuple[str, str]:
    """The JSON texts of a section's "p" and "distribution"; the JSON renderer memoizes them per (n, p)."""
    rows = [_DISTRIBUTION_ROW_JSON % (r, *map(_escape, texts)) for r, *texts in _distribution_cells(n, p)]
    return _escape(_fmt8(p)), _json_list(rows, "\n        ")


def _key_cells(key: _Scored) -> tuple[str, str, str | None, str | None, str | None]:
    """The pattern, rank class, bar, zone and degree cells of a run-total key's record; None is an empty cell."""
    return (
        key.pattern.render(), key.rank_class.value, key.bar,
        key.zone.value if key.zone else None, _fmt8(key.degree.value) if key.degree else None,
    )


def _assessment_json(key: _Scored, periods: tuple[int, ...]) -> str:
    """`_ASSESSMENT_JSON` filled with what a run-total key's record decides, with %s holes
    left for the object, polarity_match, narrative, rating and comment_polarity."""
    absent = [str(period) for period, flag in zip(periods, key.pattern.absent_flags) if flag]
    pattern, rank, bar, zone, degree, absent, conformant, notes = (
        text.replace("%", "%%")
        for text in (
            *("null" if cell is None else _escape(cell) for cell in _key_cells(key)),
            _json_list(absent, "\n          "),
            _JSON_CONSTANT[key.single_period_conformant],
            _json_list(list(map(_escape, key.annotations)), "\n          "),
        )
    )
    return _ASSESSMENT_JSON % ("%s", pattern, absent, rank, bar, zone, degree, "%s", "%s", conformant, "%s", "%s", notes)


def _section_json(
    section: ReviewerSection, overall_json: Callable[[OverallRationality], tuple[str, str]], assessment_json: Callable
) -> str:
    """A reviewer section as an item of the report's "reviewers" list.

    `overall_json` is `_per_binomial(_overall_json)`, and `assessment_json` is one render's `functools.cache` of
    `_assessment_json`, which keys each template on the run-total key's record it reads and the periods.
    """
    periods = section.periods
    assessments = []
    for a in section.assessments:
        review = a.review
        assessments.append(assessment_json(a.key, periods) % (
            _escape(a.object),
            _JSON_CONSTANT[a.polarity_match],
            _JSON_CONSTANT[a.narrative],
            "null" if review is None else review.rating,
            "null" if review is None else _JSON_CONSTANT[review.comment_polarity],
        ))
    overall = section.overall
    p, distribution = overall_json(overall)
    return _SECTION_JSON % (
        _escape(section.reviewer_id),
        _json_list(list(map(str, periods)), "\n      "),
        _json_list(list(map(_escape, section.catalog)), "\n      "),
        _json_list(list(map(_escape, section.period_patterns)), "\n      "),
        "null" if section.joint_pattern is None else _escape(section.joint_pattern),
        _json_list(assessments, "\n      "),
        overall.n,
        p,
        "null" if overall.realized_r is None else overall.realized_r,
        distribution,
    )


# The report renderers below each yield the report's head, then one chunk per
# reviewer section, rendered from that section's records alone, then its tail.


def _tail(report: TrustReport) -> dict[str, list[dict]]:
    """The report's flagged reviews and errors, each as a dict of its fields: the JSON document's tail."""
    return {
        "flagged_reviews": [
            {"reviewer_id": f.review.reviewer_id, "object": f.review.object,
             "rating": f.review.rating, "reason": f.reason}
            for f in report.flagged_reviews
        ],
        "errors": [{"reviewer_id": e.reviewer_id, "message": e.message} for e in report.errors],
    }


def _json_stream(report: TrustReport) -> Iterator[str]:
    """The report as JSON, one reviewer section per chunk."""
    params = report.parameters
    head = {
        "tool": _TOOL,
        "parameters": {"membership": params.membership_variant, "d0_zone": params.d0_zone, "p": _fmt8(params.p)},
    }
    overall_json, assessment_json = _per_binomial(_overall_json), functools.cache(_assessment_json)
    encode = functools.partial(_section_json, overall_json=overall_json, assessment_json=assessment_json)
    return _json_document(head, "reviewers", report.reviewers, _tail(report), encode)


_CSV_COLUMNS = [
    "record", "reviewer_id", "object", "pattern", "rank_class", "bar", "zone",
    "degree", "polarity_match", "narrative", "rating", "comment_polarity",
    "annotations", "r", "probability", "at_most", "at_least", "reason", "message",
]


def _csv_stream(report: TrustReport) -> Iterator[str]:
    """The report's CSV rows, one per assessment, binomial row, flagged review and error: the header,
    one chunk per reviewer section, then the flagged reviews and errors together. The binomial rows
    of one (n, p) differ only in their reviewer id, so the cells after it are written once and
    follow each section's `overall,<id>,`, whose id cell the same writer writes."""
    write = _csv_writer()
    # An overall row leaves the columns object to annotations empty, and reason and message.
    overall_rows = _per_binomial(
        lambda n, p: write([(*(None,) * 11, *row, None, None) for row in _distribution_cells(n, p)])[:-1]
    )
    key_cells = functools.cache(_key_cells)
    yield write([_CSV_COLUMNS])
    for section in report.reviewers:
        rid = section.reviewer_id
        rows = []
        for a in section.assessments:
            key = a.key
            rows.append((
                "assessment", rid, a.object, *key_cells(key),
                None if a.polarity_match is None else "true" if a.polarity_match else "false",
                a.narrative.value if a.narrative else None, a.review.rating if a.review else None,
                a.review.comment_polarity.value if a.review else None, " | ".join(key.annotations),
                None, None, None, None, None, None,
            ))
        lead = write([("overall", rid)])[:-1] + ","
        yield write(rows) + lead + overall_rows(section.overall).replace("\n", "\n" + lead) + "\n"
    # The tail holds no bool, and a missing key is an empty cell.
    tail = zip(("flagged_review", "error"), _tail(report).values())
    yield write([list(map({"record": record, **row}.get, _CSV_COLUMNS)) for record, rows in tail for row in rows])


def _text_stream(report: TrustReport) -> Iterator[str]:
    params = report.parameters
    distribution = _per_binomial(lambda n, p: "\n".join(
        ["    r=%s  f=%s  f(<= r)=%s  f(>= r)=%s" % cells for cells in _distribution_cells(n, p)]
    ))
    # The padded pattern to degree columns of a run-total key's record; a pattern and a rank class are never empty.
    columns = functools.cache(lambda key: "{:<11} {:<11} {:<4} {:<11} {:<11} ".format(*[c or "-" for c in _key_cells(key)]))
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
            lines.append(f"  {a.object:<9} {columns(a.key)}{match:<6} {a.narrative.value if a.narrative else '-'}")
            lines += (f"    note ({a.object}): {note}" for note in a.annotations)
        overall = section.overall
        lines.append(
            f"  overall: n={overall.n} p={_fmt8(overall.p)}"
            + (f" realized rational count={overall.realized_r}" if overall.realized_r is not None else "")
        )
        lines.append(distribution(overall))
        yield "\n".join(lines) + "\n"
    flagged, errors = _tail(report).values()
    lines = []
    if flagged:
        layout = "  {reviewer_id} / {object} (rating {rating}): {reason}"
        lines += ["", "flagged reviews:", *map(layout.format_map, flagged)]
    if errors:
        lines += ["", "errors:", *(f"  [{e['reviewer_id'] or '-'}] {e['message']}" for e in errors)]
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


def _score(
    episodes_path: str | Path, reviews_path: str | Path, membership_variant: str, d0_zone: str, p: Fraction, fmt: str
) -> tuple[Iterator[str], int]:
    """The report of the episode and review files as its renderer's chunks, not yet rendered, and its exit code.

    A report without a reviewer section is a ParseError.
    """
    episodes, episode_problems = load_episodes(episodes_path)
    if not episodes and not episode_problems:
        raise ParseError(episodes_path, "episode file contains no records")
    reviews, review_problems = load_reviews(reviews_path)
    report = build_report(episodes, reviews, membership_variant=membership_variant, d0_zone=d0_zone, p=p)
    extra = tuple(ReportError(reviewer_id=None, message=m) for m in episode_problems + review_problems)
    report = TrustReport(report.parameters, report.reviewers, report.flagged_reviews, report.errors + extra)
    if not report.reviewers:
        # Every episode is then in report.errors, as a parse or validation problem.
        count, first = len(report.errors), report.errors[0]
        who = "" if first.reviewer_id is None else f"reviewer {first.reviewer_id!r}: "
        raise ParseError(
            episodes_path,
            f"no reviewer could be scored ({count} problem{'' if count == 1 else 's'}; first: {who}{first.message})",
        )
    return _REPORT_RENDERERS[fmt](report), EXIT_PARTIAL if report.has_errors else EXIT_OK


# ---------------------------------------------------------------------------
# entry point


# `score`'s options after the shared `--out`: name, choices (None takes any value), default and help. `_build_parser`
# adds them, and `_plain_score` reads a plain `score` line by them.
_SCORE_OPTIONS = (
    ("--membership", MEMBERSHIP_VARIANTS, "minmax", None),
    ("--d0-zone", D0_ZONE_CHOICES, "rational", None),
    ("--p", None, "1/2", "rational-zone probability (e.g. 0.5 or 1/2)"),
    ("--format", FORMATS, "json", None),
)


def _build_parser():
    import argparse  # here, so that a plain `score` line (see `_plain_score`) never loads it
    parser = argparse.ArgumentParser(prog="choicetrust", description=__doc__)
    parser.add_argument("--version", action="version", version=_TOOL)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to this path instead of stdout")

    score = sub.add_parser("score", parents=[common], help="score reviewers from episode and review files")
    score.add_argument("episodes", help="JSONL episode file")
    score.add_argument("reviews", help="JSON reviews document")
    for name, choices, default, text in _SCORE_OPTIONS:
        score.add_argument(name, choices=choices, default=default, help=text)

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


def _plain_score(argv: Sequence[str]) -> SimpleNamespace | None:
    """What `_build_parser` parses from a plain `score` line: `score`, two positionals, and `--out` and
    `_SCORE_OPTIONS` by their exact names, as `--name value` or `--name=value`, the last of a repeated one kept, each
    value among its choices, no positional or value after a space starting with "-". Any other line is None, for
    argparse to parse."""
    if not argv or argv[0] != "score":
        return None
    options, args = {"--out": None}, {"command": "score", "out": None}
    for name, choices, default, _ in _SCORE_OPTIONS:
        options[name], args[name[2:].replace("-", "_")] = choices, default
    positionals, tokens = [], iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        name, equals, value = token.partition("=")
        if name not in options or not equals and (value := next(tokens, "-")).startswith("-"):
            return None
        if (choices := options[name]) is not None and value not in choices:
            return None
        args[name[2:].replace("-", "_")] = value
    return SimpleNamespace(**args, episodes=positionals[0], reviews=positionals[1]) if len(positionals) == 2 else None


def _parse(argv: Sequence[str] | None) -> Any:
    """`_build_parser`'s arguments of `argv`. Help and the version, after which argparse exits 0, are written by
    `_write`, so that a write that fails is an error as a report's is; argparse would drop its own write's error."""
    text = io.StringIO()
    try:
        with contextlib.redirect_stdout(text):
            return _build_parser().parse_args(argv)
    except SystemExit as stop:
        if stop.code == 0:
            _write((text.getvalue(),), None)
        raise


def _write(chunks: Iterable[str], out: str | None) -> None:
    """Write `chunks` in order to the file `out`, or to stdout, each as it comes.

    A regular file `out` that fails part way is removed, so no partial report
    is left; a device, a FIFO or a symbolic link such as /dev/stdout is kept.
    """
    if out:
        fh = open(out, "w", encoding="utf-8")
        try:
            with fh:
                fh.writelines(chunks)
        except BaseException as exc:
            with contextlib.suppress(OSError):
                if stat.S_ISREG(os.lstat(out).st_mode):
                    os.unlink(out)
            if isinstance(exc, OSError) and exc.filename is None:  # a failed write names no file; `main` prints it
                exc.filename = out
            raise
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except OSError:
        # Whatever is still buffered would fail again when the interpreter
        # flushes stdout at exit, so stdout now leads to the null device. A
        # stream with no descriptor (`main` run in-process) is left as it is,
        # and the write's own error goes on to `main`.
        with contextlib.suppress(OSError):
            descriptor = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, descriptor)
            os.close(devnull)
        raise


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _plain_score(sys.argv[1:] if argv is None else argv) or _parse(argv)
        code = EXIT_OK
        if args.command == "score":
            p = as_probability(args.p, "--p")
            chunks, code = _score(args.episodes, args.reviews, args.membership, args.d0_zone, p, args.format)
        else:
            # The other commands live apart, so that `score` never imports them.
            from .cli_commands import cmd_check, cmd_info_index, cmd_tau

            if args.command == "tau":
                chunks = cmd_tau(args.n, args.t, membership_variant=args.membership, fmt=args.format)
            elif args.command == "info-index":
                chunks = [cmd_info_index(args.list, fmt=args.format)]
            else:
                chunks = [cmd_check(args.table, fmt=args.format)]
        _write(chunks, args.out)
        return code
    except OSError as exc:
        where = f"{_path_text(exc.filename)}: {exc.strerror}" if exc.filename else exc
        print(f"error: {where}", file=sys.stderr)
        return EXIT_FATAL
    except ChoiceTrustError as exc:  # a known problem of the input; anything else is a fault of the program
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_FATAL


def entry() -> NoReturn:
    """Run `main` as the process: the `choicetrust` script and `python -m choicetrust.cli_io`.

    What is alive now (the interpreter, the stdlib, the package) lives until
    exit, so it is frozen, and the collector is switched off: a run leaves
    the same few cyclic objects (the json head's; argparse's on a line it
    parses) whatever its input, so memory stays bounded by the input with no sweep.
    `main` does neither, because tests and library callers run it
    in-process, where their own cycles must still be collected.
    """
    # Under `python -m`, `cli_commands` imports its helpers from this module rather than compiling a second copy.
    sys.modules.setdefault("choicetrust.cli_io", sys.modules[__name__])
    gc.freeze()
    gc.disable()
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
