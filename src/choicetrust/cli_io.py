"""Command-line surface: input parsing, report rendering, subcommands.

Episodes arrive as JSONL (one record per line, streaming-friendly); reviews,
graded lists, and choice tables are single JSON documents. Reports render as
json, csv, or text with all numbers at 8 decimal places and no timestamps,
so identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import itertools
import json
import os
import re
import reprlib
import stat
import sys
from fractions import Fraction
from pathlib import Path
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
    TrustAssessment,
    TrustReport,
    ValidatedEpisode,
    build_report,
)
from ._record import as_probability
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


def load_episodes(path: str | Path) -> tuple[list[ValidatedEpisode], list[str]]:
    """Read a JSONL episode file; malformed or invalid lines, and repeats of an accepted line's reviewer
    and period, become `path:line` diagnostics, not aborts."""
    episodes: list[ValidatedEpisode] = []
    problems: list[str] = []
    accepted: dict[tuple[str, int], int] = {}
    name = _path_text(path)
    # Lines end at "\n" only: splitlines() would also split at a U+2028 inside a string.
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        if not raw.strip():
            continue
        where = f"{name}:{lineno}"
        try:
            record = _shape(_decode(raw, name, lineno), dict, where, "episode record")
            episode = ValidatedEpisode(
                reviewer_id=_field(record, "reviewer_id", "id", where),
                period=_field(record, "period", "int", where),
                attainable=_field(record, "catalog", "a list of id strings", where),
                wishlist=_field(record, "wishlist", "a list of id strings", where),
                cart=_field(record, "cart", "a list of id strings", where),
                final=_field(record, "final", "a list of id strings", where),
            )
            key = episode.reviewer_id, episode.period
            if accepted.setdefault(key, lineno) != lineno:
                raise ParseError(where, "reviewer %r already has period %d (line %d)" % (*key, accepted[key]))
            episodes.append(episode)
        except ChoiceTrustError as exc:  # a ParseError names its place already
            problems.append(str(exc) if isinstance(exc, ParseError) else f"{where}: {exc}")
    return episodes, problems


def load_reviews(path: str | Path) -> tuple[list[Review], list[str]]:
    """Read the reviews document; per-record problems become diagnostics."""
    name = _path_text(path)
    doc = _shape(_decode(_read_text(path), name), list, name, "reviews document")
    reviews: list[Review] = []
    problems: list[str] = []
    for idx, record in enumerate(doc):
        where = f"{name}: review #{idx}"
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
        except ChoiceTrustError as exc:  # a ParseError names its place already
            problems.append(str(exc) if isinstance(exc, ParseError) else f"{where}: {exc}")
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


def _csv_chunks(fields: Sequence[str], blocks: Iterable[Iterable[Sequence[Any]]]) -> Iterator[str]:
    """The header line of a CSV table of `fields`, then each block of rows as one string.

    A row holds its cells in `fields` order; None is written as an empty cell.
    """
    import csv  # here, so that a run that writes no CSV never loads it

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


def _overall_json(n: int, p: Fraction) -> tuple[str, str]:
    """The JSON texts of a section's "p" and "distribution"; the JSON renderer memoizes them per (n, p)."""
    rows = [_DISTRIBUTION_ROW_JSON % (r, *map(_escape, texts)) for r, *texts in _distribution_cells(n, p)]
    return _escape(_fmt8(p)), _json_list(rows, "\n        ")


def _key_cells(a: TrustAssessment) -> tuple[str, str, str | None, str | None, str | None]:
    """The pattern, rank class, bar, zone and degree cells of `a`'s run-total key; None is an empty cell."""
    return (
        a.pattern.render(), a.rank_class.value, a.bar,
        a.zone.value if a.zone else None, _fmt8(a.degree.value) if a.degree else None,
    )


def _assessment_json(a: TrustAssessment, periods: tuple[int, ...]) -> str:
    """`_ASSESSMENT_JSON` filled with what `a`'s run-total key decides, with %s holes
    left for the object, polarity_match, narrative, rating and comment_polarity."""
    absent = [str(period) for period, flag in zip(periods, a.pattern.absent_flags) if flag]
    pattern, rank, bar, zone, degree, absent, conformant, notes = (
        text.replace("%", "%%")
        for text in (
            *("null" if cell is None else _escape(cell) for cell in _key_cells(a)),
            _json_list(absent, "\n          "),
            _JSON_CONSTANT[a.single_period_conformant],
            _json_list(list(map(_escape, a.annotations)), "\n          "),
        )
    )
    return _ASSESSMENT_JSON % ("%s", pattern, absent, rank, bar, zone, degree, "%s", "%s", conformant, "%s", "%s", notes)


def _section_json(
    section: ReviewerSection, overall_json: Callable[[int, Fraction], tuple[str, str]], fragments: dict
) -> str:
    """A reviewer section as an item of the report's "reviewers" list.

    `overall_json` memoizes `_overall_json`, and `fragments` holds one render's
    `_assessment_json` templates. A template is keyed on the identity of the
    pattern and degree records it reads, which the report keeps alive for the
    whole render, and on the value of every other field it reads.
    """
    periods = section.periods
    assessments = []
    for a in section.assessments:
        key = (
            id(a.pattern), id(a.degree), a.rank_class, a.bar, a.zone, a.single_period_conformant, a.annotations, periods
        )
        template = fragments.get(key)
        if template is None:
            template = fragments[key] = _assessment_json(a, periods)
        review = a.review
        assessments.append(template % (
            _escape(a.object),
            _JSON_CONSTANT[a.polarity_match],
            _JSON_CONSTANT[a.narrative],
            "null" if review is None else review.rating,
            "null" if review is None else _JSON_CONSTANT[review.comment_polarity],
        ))
    overall = section.overall
    p, distribution = overall_json(overall.n, overall.p)
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
    encode = functools.partial(_section_json, overall_json=functools.cache(_overall_json), fragments={})
    return _json_document(head, "reviewers", report.reviewers, _tail(report), encode)


_CSV_COLUMNS = [
    "record", "reviewer_id", "object", "pattern", "rank_class", "bar", "zone",
    "degree", "polarity_match", "narrative", "rating", "comment_polarity",
    "annotations", "r", "probability", "at_most", "at_least", "reason", "message",
]


def _csv_blocks(report: TrustReport) -> Iterator[list[tuple]]:
    """The report's CSV rows, one per assessment, binomial row, flagged review and error.

    Each reviewer section is one block, and the flagged reviews and errors together the last.
    """
    distribution = functools.cache(_distribution_cells)
    for section in report.reviewers:
        rid, overall = section.reviewer_id, section.overall
        block = [
            (
                "assessment", rid, a.object, *_key_cells(a),
                None if a.polarity_match is None else "true" if a.polarity_match else "false",
                a.narrative.value if a.narrative else None, a.review.rating if a.review else None,
                a.review.comment_polarity.value if a.review else None, " | ".join(a.annotations),
                None, None, None, None, None, None,
            )
            for a in section.assessments
        ]
        # An overall row leaves the columns object to annotations empty, and reason and message.
        cells = distribution(overall.n, overall.p)
        block += (("overall", rid, *(None,) * 11, *row, None, None) for row in cells)
        yield block
    tail = zip(("flagged_review", "error"), _tail(report).values())
    yield [_csv_row({"record": record, **row}, _CSV_COLUMNS) for record, rows in tail for row in rows]


def _csv_stream(report: TrustReport) -> Iterator[str]:
    return _csv_chunks(_CSV_COLUMNS, _csv_blocks(report))


def _text_stream(report: TrustReport) -> Iterator[str]:
    params = report.parameters
    distribution = functools.cache(_distribution_cells)
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
            pattern, rank, bar, zone, degree = _key_cells(a)
            lines.append(
                f"  {a.object:<9} {pattern:<11} {rank:<11} {bar or '-':<4} {zone or '-':<11} {degree or '-':<11} "
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
            for r, prob, at_most, at_least in distribution(overall.n, overall.p)
        )
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
    """Write `chunks` in order to the file `out`, or to stdout, each as it comes.

    A regular file `out` that fails part way is removed, so no partial report
    is left; a device, a FIFO or a symbolic link such as /dev/stdout is kept.
    """
    if out:
        fh = open(out, "w", encoding="utf-8")
        try:
            with fh:
                fh.writelines(chunks)
        except BaseException:
            with contextlib.suppress(OSError):
                if stat.S_ISREG(os.lstat(out).st_mode):
                    os.unlink(out)
            raise
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
    except (ChoiceTrustError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_FATAL


def entry() -> NoReturn:
    """Run `main` as the process: the `choicetrust` script and `python -m choicetrust.cli_io`.

    What is alive now (the interpreter, the stdlib, the package) lives until
    exit, so it is frozen: the collector's sweeps during the run, and its full
    collection at shutdown, then walk only what the run itself made. `main`
    does not freeze, because tests and library callers run it in-process,
    where a freeze would keep their own cycles from ever being collected.
    """
    # Under `python -m`, `cli_commands` imports its helpers from this module rather than compiling a second copy.
    sys.modules.setdefault("choicetrust.cli_io", sys.modules[__name__])
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
