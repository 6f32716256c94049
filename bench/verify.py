"""Check a `choicetrust score` report against the generator's stage ranks.

The oracle does not run any of the program's code. For each object and
period the run count must equal the number of catalog objects with a
strictly lower stage rank that period; it renders as the empty run when the
object is absent or the count is zero. For two periods the bar is the
signed difference of the counts (second minus first), and the min-max degree
follows from the closed-form bar frequency for catalog sizes (a, b):
``f(d) = min(a-1, b-1-d) - max(0, -d) + 1``. The expected exit code, the
assessment count and the numbers of errors and flagged reviews come from
what the generator wrote.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction

from workloads import Case, Reviewer

EMPTY_RUN = "ε"
_BAR_LETTERS = {-3: "C", -2: "B", -1: "A", 0: "D", 1: "E", 2: "F", 3: "G"}
MAX_PROBLEMS = 5


@dataclass(frozen=True)
class Assessment:
    object: str
    pattern: str
    absent_periods: tuple[int, ...]
    bar: str | None
    zone: str | None
    degree: str | None


@dataclass(frozen=True)
class Section:
    periods: tuple[int, ...]
    catalog: tuple[str, ...]
    assessments: tuple[Assessment, ...]
    realized_rational: int | None


def bar_frequency(a: int, b: int, d: int) -> int:
    """How many two-period run pairs over sizes (a, b) have difference d."""
    return min(a - 1, b - 1 - d) - max(0, -d) + 1


def minmax_degree(a: int, b: int, d: int) -> str:
    freqs = [bar_frequency(a, b, e) for e in range(1 - a, b)]
    lo, hi = min(freqs), max(freqs)
    value = Fraction(1) if hi == lo else Fraction(bar_frequency(a, b, d) - lo, hi - lo)
    return f"{float(value):.8f}"


def _zone(d: int) -> str:
    return "Rational" if d > 0 else "Irrational" if d < 0 else "Reflexive"


def expected_section(reviewer: Reviewer) -> Section:
    periods = reviewer.periods
    two_period = len(periods) == 2
    sizes = [len(p.catalog) for p in periods]
    assessments = []
    realized = 0
    for obj in reviewer.catalog:
        counts = []
        for p in periods:
            rank = p.ranks.get(obj)
            counts.append(None if rank is None else sum(r < rank for r in p.ranks.values()))
        pattern = "{" + ",".join(str(c) if c else EMPTY_RUN for c in counts) + "}"
        absent = tuple(p.period for p, c in zip(periods, counts) if c is None)
        bar = zone = degree = None
        if two_period:
            d = (counts[1] or 0) - (counts[0] or 0)
            bar, zone = _BAR_LETTERS.get(d, f"{d:+d}"), _zone(d)
            if min(sizes) >= 2:
                degree = minmax_degree(sizes[0], sizes[1], d)
            realized += d >= 0  # the default d0 zone counts a zero difference as rational
        assessments.append(Assessment(obj, pattern, absent, bar, zone, degree))
    return Section(
        periods=tuple(p.period for p in periods),
        catalog=reviewer.catalog,
        assessments=tuple(assessments),
        realized_rational=realized if two_period else None,
    )


class Verifier:
    """Expected report contents of one case, built once and checked per output."""

    def __init__(self, case: Case) -> None:
        self.case = case
        self.sections = {r.reviewer_id: expected_section(r) for r in case.reviewers}

    def check(self, text: str, exit_code: int) -> list[str]:
        """Return the problems found in one report; an empty list means it is correct."""
        problems: list[str] = []
        if exit_code != self.case.exit_code:
            problems.append(f"exit code {exit_code}, expected {self.case.exit_code}")
        try:
            if self.case.fmt == "json":
                self._check_json(text, problems)
            else:
                self._check_csv(text, problems)
        except (ValueError, KeyError, TypeError, csv.Error) as exc:
            problems.append(f"unreadable report: {exc!r}")
        return problems[:MAX_PROBLEMS]

    def _check_section(self, rid: str, got: list[tuple], problems: list[str]) -> int:
        want = self.sections[rid]
        if [g[0] for g in got] != list(want.catalog):
            problems.append(f"{rid}: assessed objects differ from the catalog union")
            return len(got)
        for g, w in zip(got, want.assessments):
            if g[1] != w.pattern:
                problems.append(f"{rid}/{w.object}: run pattern {g[1]}, expected {w.pattern}")
            if g[2] != w.bar or g[3] != w.zone:
                problems.append(f"{rid}/{w.object}: bar/zone {g[2]}/{g[3]}, expected {w.bar}/{w.zone}")
            if g[4] != w.degree:
                problems.append(f"{rid}/{w.object}: degree {g[4]}, expected {w.degree}")
        return len(got)

    def _check_totals(self, rids: list[str], assessed: int, errors: int, flagged: int,
                      problems: list[str]) -> None:
        if rids != [r.reviewer_id for r in self.case.reviewers]:
            problems.append("scored reviewers differ from the generated ones")
        if assessed != self.case.assessments:
            problems.append(f"{assessed} assessments, expected {self.case.assessments}")
        if errors != self.case.errors:
            problems.append(f"{errors} errors, expected {self.case.errors}")
        if flagged != self.case.flagged:
            problems.append(f"{flagged} flagged reviews, expected {self.case.flagged}")

    def _check_json(self, text: str, problems: list[str]) -> None:
        doc = json.loads(text)
        assessed = 0
        rids = []
        for section in doc["reviewers"]:
            rid = section["reviewer_id"]
            rids.append(rid)
            if rid not in self.sections:
                continue
            want = self.sections[rid]
            if tuple(section["periods"]) != want.periods:
                problems.append(f"{rid}: periods {section['periods']}, expected {list(want.periods)}")
            overall = section["overall_rationality"]
            if overall["n"] != len(want.catalog) or overall["realized_rational_count"] != want.realized_rational:
                problems.append(f"{rid}: overall n/realized count disagree with the patterns")
            got = [
                (a["object"], a["pattern"], a["bar"], a["zone"], a["degree"])
                for a in section["assessments"]
            ]
            assessed += self._check_section(rid, got, problems)
            for a, w in zip(section["assessments"], want.assessments):
                if a["object"] == w.object and tuple(a["absent_periods"]) != w.absent_periods:
                    problems.append(f"{rid}/{w.object}: absent periods {a['absent_periods']}")
        self._check_totals(rids, assessed, len(doc["errors"]), len(doc["flagged_reviews"]), problems)

    def _check_csv(self, text: str, problems: list[str]) -> None:
        by_reviewer: dict[str, list[tuple]] = {}
        errors = flagged = 0
        for row in csv.DictReader(io.StringIO(text)):
            record = row["record"]
            if record == "assessment":
                by_reviewer.setdefault(row["reviewer_id"], []).append(
                    (row["object"], row["pattern"], row["bar"] or None,
                     row["zone"] or None, row["degree"] or None)
                )
            elif record == "error":
                errors += 1
            elif record == "flagged_review":
                flagged += 1
        assessed = 0
        for rid, got in by_reviewer.items():
            if rid in self.sections:
                assessed += self._check_section(rid, got, problems)
        self._check_totals(list(by_reviewer), assessed, errors, flagged, problems)
