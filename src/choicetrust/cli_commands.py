"""The `tau`, `info-index` and `check` subcommands, and the documents they read.

`cli_io.main` imports this module only for those commands, so `score` never
loads it nor the consistency checker and information index behind it. The
commands parse and render through `cli_io`'s wire and writer helpers, with
the same layout rules as `score`.
"""

from __future__ import annotations

import itertools
import json
import reprlib
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from .cli_io import (
    ParseError,
    _csv_writer,
    _decode,
    _escape,
    _field,
    _fmt8,
    _json_document,
    _json_template,
    _path_text,
    _read_text,
    _shape,
)
from .consistency import ChoiceFunctionTable, check_contraction, rationalizable
from .errors import DomainError, GradeError
from .info_index import IfsElement, IfsList, choose_from_list, entropy
from .rationality_outcomes import bar_degree, bar_frequency, iter_tau, signed_difference

# Largest outcome set `tau` lists; it holds n**t patterns.
MAX_TAU_ROWS = 10**6


def _csv_row(row: dict, fields: Sequence[str]) -> tuple:
    """`row`'s cells in `fields` order: a bool is written true/false, and a missing key is an empty cell."""
    return tuple(
        ("true" if value else "false") if value is True or value is False else value
        for value in map(row.get, fields)
    )


def _csv_chunks(fields: Sequence[str], blocks: Iterable[Iterable[Sequence[Any]]]) -> Iterator[str]:
    """The header line of a CSV table of `fields`, then each block of rows as one string.

    A row holds its cells in `fields` order; None is written as an empty cell.
    """
    write = _csv_writer()
    yield write([fields])
    yield from map(write, blocks)


def load_ifs_list(path: str | Path) -> IfsList:
    name = _path_text(path)
    doc = _shape(_decode(_read_text(path), name), list, name, "graded list")
    elements: dict[str, IfsElement] = {}
    for idx, record in enumerate(doc):
        where = f"{name}: element #{idx}"
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
    name = _path_text(path)
    doc = _shape(_decode(_read_text(path), name), dict, name, "choice table")
    ground = _field(doc, "ground_set", "a list of id strings", name)
    choices: dict[frozenset[str], str] = {}
    for idx, record in enumerate(_field(doc, "choices", "a list", name)):
        where = f"{name}: choice #{idx}"
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
    ns = (n, n)
    bars = {d: (bar_frequency(ns, d), _fmt8(bar_degree(ns, d, membership_variant).value)) for d in range(1 - n, n)}
    return (
        {"pattern": pat.render(), "rank_class": pat.rank_class.value, "bar": pat.bin,
         "frequency": frequency, "membership": degree}
        for pat in patterns
        for frequency, degree in [bars[signed_difference(pat.slots)]]
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
        return json.dumps({"chosen": chosen.id, "elements": rows}, indent=2) + "\n"
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
        doc = {"contraction_consistent": result.consistent, "violations": violations, "rationalizing_order": order}
        return json.dumps(doc, indent=2) + "\n"
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
