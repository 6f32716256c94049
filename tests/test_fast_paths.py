"""Each fast scoring path equals the paper-literal construct it replaces.

The oracles are the constructs as the paper states them: the stop/run
scanner over flattened 0/1 matrices, the enumerated two-period bar table,
and exact prefix sums of the binomial pmf. One property holds whole reports
against the reference pipeline in `reference_report.py`; later ones hold
the per-report score and rank-tuple memos against the uncached derivation.
The last ones hold the loaders' one-parse decode against the stdlib
decoder, each check the loaders and `ValidatedEpisode` run first against
the code it skips, and an assessment built on its key's shared record
against one built by hand.
"""

import contextlib
import itertools
import json
import math
import pickle
import reprlib
import tempfile
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choicetrust import (
    EPSILON,
    ChoiceEpisode,
    ChoiceTrustError,
    Degree,
    FlaggedReview,
    NarrativeCode,
    OverallRationality,
    Polarity,
    RankClass,
    ReportError,
    ReportParameters,
    Review,
    ReviewerSection,
    RunCount,
    RunPattern,
    ShapeError,
    TrustAssessment,
    TrustReport,
    ValidatedEpisode,
    Zone,
    bar_degree,
    bar_frequency,
    bin_table,
    binomial_rationality,
    build_report,
    classify_rank,
    concat_patterns,
    derive_matrix,
    flatten,
    match_review,
    membership,
    omega,
    period_string,
    run_totals,
    scan_runs,
    signed_difference,
    validate_episode,
    zone,
)
from choicetrust.cli_io import (
    _REPORT_RENDERERS,
    ParseError,
    _distribution_cells,
    _fmt8,
    _overall_json,
    report_to_csv,
    report_to_dict,
    report_to_json,
    report_to_text,
)

from helpers import episode
from choicetrust import _pipeline, cli_io, trust_scoring
from choicetrust._pipeline import _NOTE_MINMAX_FLOOR, _NOTE_REFERENCE_TABLE, _NOTE_SMALL_CATALOG, _score_totals
from reference_report import reference_distribution, reference_output, reference_overall, reference_report
from reference_report import report_to_dict as reference_report_to_dict

IDS = tuple(f"o{i}" for i in range(12))


@st.composite
def catalogs(draw):
    """1 to 12 ids of the shared pool, in a random catalog order."""
    return draw(st.permutations(IDS))[: draw(st.integers(1, len(IDS)))]


@st.composite
def staged_episodes(draw, catalog=None, period=1):
    """A validated episode over `catalog` (or a drawn one) with random stage ranks."""
    if catalog is None:
        catalog = draw(catalogs())
    ranks = draw(st.lists(st.integers(0, 3), min_size=len(catalog), max_size=len(catalog)))
    ranks[draw(st.integers(0, len(catalog) - 1))] = 3  # the final stage is never empty
    stages = [[o for o, r in zip(catalog, ranks) if r >= k] for k in (1, 2, 3)]
    return episode("r", period, catalog, *stages)


@st.composite
def episode_histories(draw):
    """One to three periods over catalogs drawn from a shared pool, so objects
    can be absent from some periods."""
    periods = draw(st.integers(1, 3))
    return [draw(staged_episodes(period=k)) for k in range(1, periods + 1)]


def oracle_slot(ep, obj):
    """Run total of `obj` in one period by the stop/run scanner, as omega reports it."""
    if obj not in ep.attainable:
        return EPSILON, True
    count = scan_runs(flatten(derive_matrix(ep)))[ep.attainable.index(obj)]
    return (RunCount(count) if count else EPSILON), False


@settings(deadline=None)
@given(staged_episodes())
def test_run_totals_equal_scanned_runs(ep):
    assert run_totals(ep) == scan_runs(flatten(derive_matrix(ep)))


@settings(deadline=None)
@given(episode_histories())
def test_omega_equals_scanner_oracle(eps):
    for obj in dict.fromkeys(o for ep in eps for o in ep.attainable):
        pattern = omega(eps, obj)
        slots, absent = zip(*(oracle_slot(ep, obj) for ep in eps))
        assert pattern.slots == slots
        assert pattern.absent_flags == absent


@settings(deadline=None)
@given(st.data())
def test_pattern_strings_equal_flattened_vectors(data):
    catalog = data.draw(catalogs())
    periods = data.draw(st.integers(1, 3))
    matrices = [derive_matrix(data.draw(staged_episodes(catalog, k))) for k in range(1, periods + 1)]
    strings = [flatten(m).as_string() for m in matrices]
    assert strings == ["".join(str(b) for row in m.bits for b in row) for m in matrices]
    assert "".join(strings) == concat_patterns(matrices).as_string()


def test_bar_frequencies_and_degrees_equal_enumerated_table():
    for a in range(2, 13):
        for b in range(2, 13):
            table = bin_table((a, b))
            assert [bar_frequency((a, b), bar.difference) for bar in table.bins] == [
                bar.frequency for bar in table.bins
            ]
            assert (table.min_frequency, table.max_frequency) == (1, min(a, b))
            for variant in ("minmax", "smoothed"):
                for bar in table.bins:
                    assert bar_degree((a, b), bar.difference, variant) == membership(bar.difference, table, variant)


@settings(deadline=None)
@example(300, Fraction(3, 10))
@example(40, Fraction(0))
@example(40, Fraction(1))
@given(st.integers(0, 40), st.fractions(min_value=0, max_value=1, max_denominator=50))
def test_cdf_equals_exact_prefix_sums(n, p):
    overall = OverallRationality.from_parameters(n, p)
    terms = [binomial_rationality(n, r, p) for r in range(n + 1)]
    for r in range(-1, n + 2):
        prefix = sum(terms[: r + 1], Fraction(0)) if r >= 0 else Fraction(0)
        assert overall.at_most(r) == prefix
        assert overall.at_least(r) == sum(terms[max(r, 0) :], Fraction(0))
    assert overall == reference_overall(n, p, None)
    rows = [dict(zip(("r", "probability", "at_most", "at_least"), cells)) for cells in _distribution_cells(n, p)]
    assert rows == reference_distribution(overall)


@settings(max_examples=40, deadline=None)
@example(300, Fraction(0))
@example(300, Fraction(1))
@example(96, Fraction(3, 10))
@given(st.integers(0, 300), st.sampled_from([Fraction(0), Fraction(1)]) | st.fractions(0, 1, max_denominator=12))
def test_distribution_cells_are_formatted_exact_terms_and_sums(n, p):
    terms = [binomial_rationality(n, r, p) for r in range(n + 1)]
    below = list(itertools.accumulate(terms, initial=Fraction(0)))
    cells = tuple((r, _fmt8(terms[r]), _fmt8(below[r + 1]), _fmt8(1 - below[r])) for r in range(n + 1))
    assert _distribution_cells(n, p) == cells
    # The section's "distribution" list sits four levels deep in the report.
    rows = [dict(zip(("r", "probability", "at_most", "at_least"), row)) for row in cells]
    assert _overall_json(n, p)[1] == json.dumps(rows, indent=2).replace("\n", "\n        ")


def test_one_numerator_walk_serves_the_cdf_and_the_rows(monkeypatch):
    # The CDF and the rows walk `OverallRationality.numerators`, never the paper term.
    n, p = 300, Fraction(3, 10)
    terms = [binomial_rationality(n, r, p) for r in range(n + 1)]
    below = list(itertools.accumulate(terms, initial=Fraction(0)))
    cells = tuple((r, _fmt8(terms[r]), _fmt8(below[r + 1]), _fmt8(1 - below[r])) for r in range(n + 1))

    def refuse(*args):
        raise AssertionError("binomial_rationality called")

    monkeypatch.setattr(trust_scoring, "binomial_rationality", refuse)
    overall = OverallRationality(n, p)
    assert [overall.at_most(r) for r in range(-1, n + 2)] == [0, *below[1:], 1]
    assert [overall.at_least(r) for r in range(-1, n + 2)] == [1, *(1 - b for b in below[:-1]), 0]
    assert _distribution_cells(n, p) == cells


def test_distribution_cells_hold_one_term_at_a_time():
    # A numerator has up to n * 133 bits here (about 17 KB); lists of all n + 1 of them peaked at about 34 MB.
    tracemalloc.start()
    try:
        _distribution_cells(1000, Fraction(1, 10**40))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@settings(deadline=None)
@given(st.integers(1, 40), st.data())
def test_period_string_equals_matrix_string(n, data):
    catalog = [f"o{i}" for i in range(n)]
    ep = data.draw(staged_episodes(catalog))
    assert period_string(ep) == flatten(derive_matrix(ep)).as_string()


@st.composite
def period_catalogs(draw):
    """One to three catalogs: repeats of the first, reorderings of it, or fresh ones."""
    first = draw(catalogs())
    more = st.sampled_from([first, first[::-1]]) | catalogs()
    return [first] + draw(st.lists(more, max_size=2))


@settings(deadline=None)
@given(period_catalogs(), st.data())
def test_joint_pattern_gate_equals_matrix_order_gate(catalog_list, data):
    eps = [data.draw(staged_episodes(c, k)) for k, c in enumerate(catalog_list, start=1)]
    (section,) = build_report(eps).reviewers
    try:
        joint = concat_patterns([derive_matrix(ep) for ep in eps]).as_string()
    except ShapeError:  # the matrices disagree on catalog order
        joint = None
    assert section.joint_pattern == (joint if len(eps) > 1 else None)


def test_mutating_a_report_dict_leaves_later_reports_unchanged(canonical_episodes, canonical_reviews):
    report = build_report(canonical_episodes, canonical_reviews)
    before = report_to_json(report)
    (section,) = report.reviewers
    for doc in report_to_dict(report)["reviewers"]:
        doc["overall_rationality"]["distribution"].append({"r": 99})
        for row in doc["overall_rationality"]["distribution"]:
            row["probability"] = "mutated"
    fragment = _overall_json(section.overall.n, section.overall.p)[1]
    assert '"mutated"' not in fragment and '"r": 99' not in fragment
    assert report_to_json(report) == before


REVIEWERS = ("r1", "r2", "r3")


@st.composite
def raw_episode(draw, reviewer, period, catalog):
    """An unvalidated episode over `catalog`; about one in ten has an empty final stage."""
    if draw(st.integers(0, 9)) == 0:
        return ChoiceEpisode(reviewer, period, tuple(catalog), (), (), ())
    ep = draw(staged_episodes(catalog, period))
    return ChoiceEpisode(reviewer, period, ep.attainable, ep.wishlist, ep.cart, ep.final)


@st.composite
def batches(draw):
    """Episodes of one to three reviewers, in any order, and reviews that may miss or repeat."""
    episodes = []
    for reviewer in draw(st.lists(st.sampled_from(REVIEWERS), min_size=1, max_size=3, unique=True)):
        shared = draw(catalogs())
        periods = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=draw(st.booleans())))
        for period in periods:
            catalog = shared if draw(st.integers(0, 2)) else draw(catalogs())
            episodes.append(draw(raw_episode(reviewer, period, catalog)))
    reviews = st.builds(
        Review,
        st.sampled_from(REVIEWERS + ("r4",)),
        st.sampled_from(IDS),
        st.integers(1, 5),
        st.sampled_from([None, "positive", "neutral", "negative"]),
    )
    return draw(st.permutations(episodes)), draw(st.lists(reviews, max_size=8))


# Catalog sizes (4, 5): object o0 falls from the top run total to the empty
# run, so it sits on an extreme bar, whose min-max degree is 0.
_EXTREME_BAR = (
    [
        ChoiceEpisode("r1", 1, ("o0", "o1", "o2", "o3"), ("o0",), ("o0",), ("o0",)),
        ChoiceEpisode("r1", 2, ("o0", "o1", "o2", "o3", "o4"), ("o1",), ("o1",), ("o1",)),
    ],
    [],
)


@settings(max_examples=150, deadline=None)
@example(_EXTREME_BAR, "minmax", "rational", Fraction(1, 2))
@given(
    batches(),
    st.sampled_from(["minmax", "smoothed"]),
    st.sampled_from(["rational", "irrational"]),
    st.sampled_from([Fraction(1, 2), Fraction(0), Fraction(1), Fraction(3, 10), Fraction(2, 7)]),
)
def test_report_equals_the_paper_pipeline(batch, variant, d0_zone, p):
    episodes, reviews = batch
    params = {"membership_variant": variant, "d0_zone": d0_zone, "p": p}
    fast = build_report(episodes, reviews, **params)
    reference = reference_report(episodes, reviews, **params)
    rendered = report_to_json(fast)
    assert rendered == report_to_json(reference)
    assert fast == reference
    assert [s["overall_rationality"]["distribution"] for s in json.loads(rendered)["reviewers"]] == [
        reference_distribution(s.overall) for s in reference.reviewers
    ]


def _assert_streamed_report_equals_its_document(report):
    # The head, one chunk per reviewer section, and the tail.
    for fmt, render in _REPORT_RENDERERS.items():
        chunks = list(render(report))
        assert len(chunks) == len(report.reviewers) + 2
        assert "".join(chunks) == reference_output(report, fmt)
        assert "".join(chunks) == {"json": report_to_json, "csv": report_to_csv, "text": report_to_text}[fmt](report)
    assert report_to_dict(report) == reference_report_to_dict(report)


@settings(max_examples=100, deadline=None)
@given(
    batches(),
    st.sampled_from(["minmax", "smoothed"]),
    st.sampled_from(["rational", "irrational"]),
    st.sampled_from([Fraction(1, 2), Fraction(0), Fraction(3, 10)]),
)
def test_streamed_report_equals_its_document(batch, variant, d0_zone, p):
    episodes, reviews = batch
    report = build_report(episodes, reviews, membership_variant=variant, d0_zone=d0_zone, p=p)
    _assert_streamed_report_equals_its_document(report)


def test_streamed_report_equals_its_document_where_a_list_is_empty(canonical_episodes, canonical_reviews):
    no_sections = build_report([])
    assert (no_sections.reviewers, no_sections.flagged_reviews, no_sections.errors) == ((), (), ())
    clean = build_report(canonical_episodes, canonical_reviews)
    assert clean.reviewers and not clean.flagged_reviews and not clean.errors
    flagged_only = build_report(canonical_episodes, [*canonical_reviews, Review("rev-1", "Q", 2)])
    assert flagged_only.flagged_reviews and not flagged_only.errors
    invalid = ChoiceEpisode("rev-2", 1, ("M",), ("N",), (), ())
    errors_only = build_report([*canonical_episodes, invalid], canonical_reviews)
    assert errors_only.reviewers and errors_only.errors and not errors_only.flagged_reviews
    for report in (no_sections, clean, flagged_only, errors_only):
        _assert_streamed_report_equals_its_document(report)


def test_assessments_that_share_a_pattern_render_their_own_fields():
    # One RunPattern object under two assessments whose bar, degree, zone and
    # annotations differ, and under sections whose periods differ.
    pattern = RunPattern((RunCount(2), EPSILON), (False, True))
    rank = classify_rank(pattern.slots)
    plain = TrustAssessment(
        "a", pattern, rank, "-2", Zone.IRRATIONAL, Degree(Fraction(1, 3), False), None, None, None, None, ()
    )
    review = Review("r1", "b", 4, "positive")
    odd = TrustAssessment(
        "b", pattern, rank, "D", Zone.REFLEXIVE, Degree(Fraction(0), True), True, NarrativeCode.STEADY, None,
        review, ("100% hand-written", "%s"),
    )
    # Two that share the pattern and the degree record too, but differ in every other field of the key.
    degree = Degree(Fraction(2, 5), False)
    left = TrustAssessment(
        "c", pattern, RankClass.INCREASING, "E", Zone.RATIONAL, degree, None, None, True, None, ("left",)
    )
    right = TrustAssessment("d", pattern, RankClass.MIXED, None, None, degree, None, None, False, None, ())
    sections = (
        ReviewerSection("r1", (1, 2), ("a", "b"), ("0100", "0000"), None, (plain, odd), OverallRationality(2, "1/2", 1)),
        ReviewerSection("r2", (3, 7), ("a",), ("0",), None, (plain,), OverallRationality(1, "1/2", 0)),
        ReviewerSection("r3", (1, 2), ("c", "d"), ("0100", "0010"), None, (left, right), OverallRationality(2, "1/2")),
    )
    report = TrustReport(ReportParameters(), sections, (), ())
    for fmt, render in _REPORT_RENDERERS.items():
        assert "".join(render(report)) == reference_output(report, fmt)


def test_a_report_whose_sections_come_from_a_generator_renders_as_a_tuple_of_them():
    # Each section, and its key record, is freed once its chunk is written, so a later
    # section's key record may be built at the address of an earlier one's.
    def section(i):
        pattern = RunPattern((RunCount(i + 1), EPSILON), (False, True))
        a = TrustAssessment("o", pattern, classify_rank(pattern.slots), None, None, None, None, None, None, None, ())
        return ReviewerSection(f"r{i}", (1, 2), ("o",), ("1", "0"), None, (a,), OverallRationality(1, "1/2"))

    for fmt, render in _REPORT_RENDERERS.items():
        streamed = "".join(render(TrustReport(ReportParameters(), (section(i) for i in range(16)), (), ())))
        assert streamed == "".join(render(TrustReport(ReportParameters(), tuple(map(section, range(16))), (), ())))


def test_a_json_render_renders_each_pattern_once_per_distinct_key(canonical_raw_episodes, canonical_reviews):
    # A second reviewer with the same episodes repeats every key of the first.
    twin = [ChoiceEpisode("rev-2", e.period, e.attainable, e.wishlist, e.cart, e.final) for e in canonical_raw_episodes]
    report = build_report([*canonical_raw_episodes, *twin], canonical_reviews)
    assessments = [(a, s.periods) for s in report.reviewers for a in s.assessments]
    keys = {
        (id(a.pattern), id(a.degree), a.rank_class, a.bar, a.zone, a.single_period_conformant, a.annotations, periods)
        for a, periods in assessments
    }
    calls = []
    render = RunPattern.render
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RunPattern, "render", lambda pattern: calls.append(pattern) or render(pattern))
        rendered = report_to_json(report)
    assert len(calls) == len(keys) < len(assessments)
    assert rendered == reference_output(report, "json")


# Ids a library caller may give: csv quotes a comma, a quote, a line break and edge
# spaces; text writes them as they are.
ODD_IDS = ("", "a,b", 'say "hi"', "x\ry", "x\ny", " edge ", "plain")
_PATTERNS = (
    RunPattern((RunCount(2), EPSILON), (False, True)),
    RunPattern((EPSILON, RunCount(3), EPSILON), (True, False, False)),
    RunPattern((RunCount(1),), (False,)),
)
_DEGREES = (None, Degree(Fraction(1, 3), False), Degree(Fraction(0), True))


@st.composite
def hand_built_reports(draw):
    """A report built by hand, as a library caller may: odd ids, sections whose n and p may differ, and
    pattern and degree records shared across assessments."""
    ids = st.sampled_from(ODD_IDS)
    reviews = st.builds(Review, ids, ids, st.integers(1, 5), st.sampled_from([None, *Polarity]))
    assessment = st.builds(
        TrustAssessment, ids, st.sampled_from(_PATTERNS), st.sampled_from(RankClass),
        st.sampled_from([None, "A", "D", "-4"]), st.sampled_from([None, *Zone]), st.sampled_from(_DEGREES),
        st.sampled_from([None, True, False]), st.sampled_from([None, *NarrativeCode]),
        st.sampled_from([None, True, False]), st.none() | reviews, st.lists(ids, max_size=2).map(tuple),
    )
    overall = st.builds(
        OverallRationality, st.integers(0, 5), st.sampled_from(["1/2", "3/10", "2/7", "0", "1", "0.5"])
    )
    section = st.builds(
        ReviewerSection, ids, st.just((1, 2)), st.lists(ids, max_size=3).map(tuple), st.just(("0100", "0010")),
        st.sampled_from([None, "01000010"]), st.lists(assessment, max_size=4).map(tuple), overall,
    )
    flagged = st.builds(FlaggedReview, reviews, ids)
    errors = st.builds(ReportError, st.none() | ids, ids)
    return TrustReport(
        ReportParameters(p=draw(st.sampled_from(["1/2", "3/10"]))),
        tuple(draw(st.lists(section, max_size=4))),
        tuple(draw(st.lists(flagged, max_size=2))),
        tuple(draw(st.lists(errors, max_size=2))),
    )


@settings(max_examples=150, deadline=None)
@given(hand_built_reports())
def test_hand_built_reports_render_as_the_reference_writes_them(report):
    for fmt, render in _REPORT_RENDERERS.items():
        assert "".join(render(report)) == reference_output(report, fmt)


def _key(a):
    """What csv and text key an assessment's pattern to degree cells on: the fields `_key_cells` reads."""
    return id(a.pattern), a.rank_class, a.bar, a.zone, id(a.degree)


def test_each_render_writes_each_key_and_each_binomial_block_once(canonical_raw_episodes, canonical_reviews):
    # A second reviewer with the same episodes repeats every key and the (n, p) of the first; a third section,
    # built by hand, repeats the keys at another p.
    twin = [ChoiceEpisode("rev-2", e.period, e.attainable, e.wishlist, e.cart, e.final) for e in canonical_raw_episodes]
    report = build_report([*canonical_raw_episodes, *twin], canonical_reviews)
    s = report.reviewers[0]
    other_p = ReviewerSection(
        "rev-3", s.periods, s.catalog, s.period_patterns, s.joint_pattern, s.assessments,
        OverallRationality(s.overall.n, "3/10", s.overall.realized_r),
    )
    report = TrustReport(report.parameters, (*report.reviewers, other_p), (), ())
    assessments = [a for section in report.reviewers for a in section.assessments]
    keys = {_key(a) for a in assessments}
    blocks = {(section.overall.n, section.overall.p) for section in report.reviewers}
    assert len(keys) < len(assessments) and len(blocks) < len(report.reviewers)
    key_cells, distribution_cells = cli_io._key_cells, cli_io._distribution_cells
    for fmt, render in _REPORT_RENDERERS.items():
        cells, rows = [], []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli_io, "_key_cells", lambda a: cells.append(_key(a)) or key_cells(a))
            patch.setattr(cli_io, "_distribution_cells", lambda n, p: rows.append((n, p)) or distribution_cells(n, p))
            # The memos do not outlive a render: the second renders every key and block again.
            for _ in range(2):
                assert "".join(render(report)) == reference_output(report, fmt)
        assert Counter(rows) == Counter([*blocks, *blocks])
        if fmt != "json":  # json keys its templates on more fields, as the test above counts
            assert Counter(cells) == Counter([*keys, *keys])


@given(st.lists(st.none() | st.integers(1, 5), min_size=1, max_size=4))
def test_rank_class_equals_its_step_by_step_definition(totals):
    values = [total or 0 for total in totals]
    ups = any(b > a for a, b in zip(values, values[1:]))
    downs = any(b < a for a, b in zip(values, values[1:]))
    expected = (
        RankClass.MIXED if ups and downs
        else RankClass.INCREASING if ups
        else RankClass.DECREASING if downs
        else RankClass.REFLEXIVE
    )
    assert classify_rank([RunCount(total) if total else EPSILON for total in totals]) is expected
    assert _score_totals(tuple(totals), None, "minmax", "rational").rank_class is expected


@st.composite
def run_total_tuples(draw):
    """Per-period run totals of one object (None where absent) and its two-period catalog sizes."""
    sizes = draw(st.lists(st.integers(2, 12), min_size=1, max_size=3))
    totals = tuple(draw(st.none() | st.integers(0, n - 1)) for n in sizes)
    # Two periods score without sizes when one holds fewer than two objects.
    ns = tuple(sizes) if len(sizes) == 2 and draw(st.integers(0, 4)) else None
    return totals, ns


@settings(max_examples=300, deadline=None)
@given(run_total_tuples(), st.sampled_from(["minmax", "smoothed"]), st.sampled_from(["rational", "irrational"]))
@example(((3, None), (4, 4)), "minmax", "rational")  # the reference-table note's only catalog sizes
def test_run_total_memo_equals_uncached_derivation(case, variant, d0_zone):
    totals, ns = case
    scored = _score_totals(totals, ns, variant, d0_zone)
    slots = tuple(RunCount(t) if t else EPSILON for t in totals)
    assert scored.pattern.slots == slots
    assert scored.pattern.absent_flags == tuple(t is None for t in totals)
    assert scored.rank_class == classify_rank(slots)
    if len(totals) == 2:
        d = signed_difference(slots)
        assert scored.zone == zone(slots)
        if ns is None:
            assert (scored.bar, scored.degree, scored.annotations) == (None, None, (_NOTE_SMALL_CATALOG,))
        else:
            table = bin_table(ns)
            degree = membership(d, table, variant)
            notes = ()
            if variant == "minmax" and degree.value == 0:
                notes = (_NOTE_MINMAX_FLOOR, _NOTE_REFERENCE_TABLE) if ns == (4, 4) else (_NOTE_MINMAX_FLOOR,)
            assert (scored.bar, scored.degree, scored.annotations) == (table.by_difference(d).label, degree, notes)
        assert scored.counts_rational == (d > 0 or d == 0 and d0_zone == "rational")
        assert scored.single_period_conformant is None
    else:
        assert (scored.zone, scored.bar, scored.degree, scored.annotations) == (None, None, None, ())
        assert scored.counts_rational is False
        assert scored.single_period_conformant == (not slots[0].is_epsilon if len(totals) == 1 else None)


@settings(max_examples=60, deadline=None)
@given(batches())
def test_report_is_the_same_from_a_cold_and_a_warm_memo(batch):
    episodes, reviews = batch
    first = build_report(episodes, reviews)
    other = build_report(episodes, reviews, membership_variant="smoothed", d0_zone="irrational")
    report_to_json(other)
    later = build_report(episodes, reviews)
    assert later == first
    assert report_to_json(later) == report_to_json(first)


def _score_keys(report):
    """The (totals, ns) key of each assessment of `report`, read back from its records."""
    keys = []
    for section in report.reviewers:
        sizes = tuple(math.isqrt(len(pattern)) for pattern in section.period_patterns)
        ns = sizes if len(sizes) == 2 and min(sizes) >= 2 else None
        for a in section.assessments:
            slots = zip(a.pattern.slots, a.pattern.absent_flags)
            keys.append((tuple(None if absent else slot.numeric for slot, absent in slots), ns))
    return keys


@settings(max_examples=60, deadline=None)
@given(batches(), st.sampled_from(["minmax", "smoothed"]), st.sampled_from(["rational", "irrational"]))
def test_each_verdict_in_the_table_equals_match_review(batch, variant, d0_zone):
    for totals, ns in set(_score_keys(build_report(*batch))):
        scored = _score_totals(totals, ns, variant, d0_zone)
        if len(totals) != 2:
            assert scored.verdicts is None
            continue
        assert set(scored.verdicts) == set(Polarity)
        slots = scored.pattern.slots
        irrational = zone(slots) is Zone.IRRATIONAL
        first, second = slots
        d = signed_difference(slots)
        trajectory = (
            NarrativeCode.COMPLETE_REJECTION if second.is_epsilon and not first.is_epsilon
            else NarrativeCode.SUDDEN_ADOPTION if first.is_epsilon and not second.is_epsilon
            else NarrativeCode.CONTINUITY_DOWN if d < 0
            else NarrativeCode.CONTINUITY_UP if d > 0
            else NarrativeCode.STEADY
        )
        for polarity, (matched, narrative) in scored.verdicts.items():
            # match_review reads the same table, so this equality pins only its
            # public signature; the assertions after it check the rule itself.
            assert (matched, narrative) == match_review(Review("r", "o", 3, polarity), slots)
            if polarity is Polarity.NEUTRAL:
                assert (matched, narrative) == (True, NarrativeCode.WEAK_MATCH)
            elif irrational == (polarity is Polarity.NEGATIVE):
                assert (matched, narrative) == (True, trajectory)
            else:
                assert (matched, narrative) == (False, NarrativeCode.DISPUTED)


def _assert_each_key_is_scored_once_per_report(episodes, reviews):
    calls = []

    def counting(totals, ns, variant, d0_zone, slot):
        calls.append((totals, ns))
        return _score_totals(totals, ns, variant, d0_zone, slot)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_pipeline, "_score_totals", counting)
        report = build_report(episodes, reviews)
        assert len(calls) == len(set(calls))
        assert set(calls) == set(_score_keys(report))
        # The memo does not outlive its report: the next one scores every key again.
        first = list(calls)
        build_report(episodes, reviews)
    assert calls == first + first


def test_run_total_memo_scores_each_key_once_per_report(canonical_raw_episodes, canonical_reviews):
    # A second reviewer with the same episodes repeats every key of the first.
    twin = [ChoiceEpisode("rev-2", e.period, e.attainable, e.wishlist, e.cart, e.final) for e in canonical_raw_episodes]
    _assert_each_key_is_scored_once_per_report([*canonical_raw_episodes, *twin], canonical_reviews)


@settings(max_examples=60, deadline=None)
@given(batches())
def test_run_total_memo_scores_each_key_once_per_report_on_any_batch(batch):
    _assert_each_key_is_scored_once_per_report(*batch)


def _assert_each_rank_tuple_is_read_once_per_report(episodes, reviews):
    calls = {period_string: [], run_totals: []}

    def counting(derive):
        return lambda ep: calls[derive].append(ep.ranks) or derive(ep)

    with pytest.MonkeyPatch.context() as patch:
        for derive in calls:
            patch.setattr(_pipeline, derive.__name__, counting(derive))
        report = build_report(episodes, reviews)
        # Only the episodes of a scored reviewer are read, each once per distinct rank tuple.
        scored = {section.reviewer_id for section in report.reviewers}
        ranks = set()
        for raw in episodes:
            if raw.reviewer_id in scored:
                with contextlib.suppress(ChoiceTrustError):
                    ranks.add(validate_episode(raw).ranks)
        first = {derive: list(tuples) for derive, tuples in calls.items()}
        for tuples in first.values():
            assert len(tuples) == len(set(tuples))
            assert set(tuples) == ranks
        # The memo does not outlive its report: the next one reads every rank tuple again.
        build_report(episodes, reviews)
    assert calls == {derive: tuples + tuples for derive, tuples in first.items()}


def test_rank_tuple_memo_reads_each_tuple_once_per_report(canonical_raw_episodes, canonical_reviews):
    # A second reviewer with the same episodes repeats every rank tuple of the first.
    twin = [ChoiceEpisode("rev-2", e.period, e.attainable, e.wishlist, e.cart, e.final) for e in canonical_raw_episodes]
    _assert_each_rank_tuple_is_read_once_per_report([*canonical_raw_episodes, *twin], canonical_reviews)


@settings(max_examples=60, deadline=None)
@given(batches())
def test_rank_tuple_memo_reads_each_tuple_once_per_report_on_any_batch(batch):
    _assert_each_rank_tuple_is_read_once_per_report(*batch)


# Ingest: each check the loaders run first equals the code it skips on a miss.


def _outcome(call, *args):
    """`call(*args)`'s value as its repr, or the type and text of the package error it raised."""
    try:
        return repr(call(*args))
    except ChoiceTrustError as exc:
        return type(exc), str(exc)


_KEYS = st.sampled_from(["a", "b", "a:b", ":", "", 'q"']).map(json.dumps)
_SCALAR_TEXTS = st.sampled_from(["null", "true", "false", "0", "-12", "2.5e3", "1e400", '"x:y"', '"\\u0000"', '"\\ud800"'])
_JSON_TEXTS = st.recursive(
    _SCALAR_TEXTS | st.text(max_size=4).map(json.dumps),
    lambda inner: st.lists(inner, max_size=3).map(lambda items: "[" + ", ".join(items) + "]")
    # Keys drawn from a few, so that objects repeat them.
    | st.lists(st.tuples(_KEYS, inner), max_size=3).map(lambda members: "{" + ",".join(f"{k}:{v}" for k, v in members) + "}"),
    max_leaves=8,
)
_PADDING = st.text(" \t\n\r\x0b\x0c\xa0 ", max_size=3)  # JSON whitespace, and others JSON refuses


def _stdlib_outcome(text, where):
    """`_outcome` of `_decode(text, where)` as the stdlib decoder with the repeated-key hook gives it:
    `json.loads` refuses a BOM, then runs that decoder's `decode`; a fault maps to `_decode`'s words and place."""
    try:
        return repr(json.loads(text, object_pairs_hook=cli_io._object))
    except KeyError as exc:
        problem = f"repeated key {reprlib.repr(exc.args[0])}"
    except json.JSONDecodeError as exc:
        problem, where = exc.msg, None if where is None else f"{where}:{exc.lineno}"
    except ValueError:
        problem = "integer literal too long"
    except RecursionError:
        problem = "nested too deeply"
    message = f"invalid JSON ({problem})"
    return (ChoiceTrustError, message) if where is None else (ParseError, f"{where}: {message}")


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["", "\ufeff"]), _PADDING, _JSON_TEXTS, _PADDING, st.sampled_from(["", "x", "{}", "]", ",1"]))
@example("", "", "[" * 5000 + "]" * 5000, "", "")  # nested too deeply
@example("", "", "1" * 5000, "", "")  # an integer literal too long
@example("", "", "", " ", "")  # whitespace only
def test_decode_equals_the_hook_decoder(bom, lead, body, trail, extra):
    # One parse by the C scanner reads every text as the stdlib decoder does: a JSONL line's fault has no place,
    # and a document's syntax error names its line.
    text = bom + lead + body + trail + extra
    for where in (None, "doc.json"):
        assert _outcome(cli_io._decode, text, where) == _stdlib_outcome(text, where)


# Wire values the loaders must refuse, or take: bools as ints, nulls, control characters and a lone surrogate in ids,
# and lists with entries that are not strings.
_WIRE_IDS = st.sampled_from(["a", "b:c", "", " x", "\x00", "x\x1f", "\x7f", " ", "\ud800", "é"])
_WIRE_VALUES = (
    st.none() | st.booleans() | st.integers(-1, 3) | st.sampled_from([2.0, 2.5]) | _WIRE_IDS
    | st.lists(_WIRE_IDS | st.integers(0, 1) | st.none() | st.just(["a"]), max_size=3)
    | st.just({"a": "b"}) | st.sampled_from(["positive", "neutral", "bad"])
)


@st.composite
def _mutated(draw, record):
    """A copy of `record` with up to three of its fields, or an extra one, dropped or given another wire value."""
    record = dict(record)
    for key in draw(st.lists(st.sampled_from([*record, "extra"]), max_size=3)):
        if draw(st.booleans()):
            record.pop(key, None)
        else:
            record[key] = draw(_WIRE_VALUES)
    return record


@st.composite
def wire_episodes(draw):
    ep = draw(staged_episodes())
    record = {"reviewer_id": draw(_WIRE_IDS), "period": 1, "catalog": list(ep.attainable), "wishlist": list(ep.wishlist),
              "cart": list(ep.cart), "final": list(ep.final)}
    return draw(_mutated(record))


_EPISODE_FIELDS = (
    ("reviewer_id", "id"), ("period", "int"), ("catalog", "a list of id strings"), ("wishlist", "a list of id strings"),
    ("cart", "a list of id strings"), ("final", "a list of id strings"),
)
_REVIEW_FIELDS = (
    ("reviewer_id", "id"), ("object", "id"), ("rating", "int"), ("comment_polarity", "str", None),
    ("comment_text", "str", ""),
)


def _by_fields(record, fields, build):
    """The record built from one `_field` call per field, in order, as the loaders did before their wire check."""
    return build(*[cli_io._field(record, key, kind, None, *default) for key, kind, *default in fields])


def _loaded(load, text):
    """`load` of a file "in.json" that holds `text`, read from a directory of its own."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp)
        Path("in.json").write_text(text, encoding="utf-8")
        return load("in.json")


@settings(max_examples=300, deadline=None)
@given(wire_episodes())
def test_episode_wire_check_equals_a_field_check_per_field(record):
    expected = _outcome(_by_fields, record, _EPISODE_FIELDS, ValidatedEpisode)
    episodes, problems = _loaded(cli_io.load_episodes, json.dumps(record))
    if isinstance(expected, str):
        assert (repr(episodes), problems) == (f"[{expected}]", [])
    else:
        assert (episodes, problems) == ([], [f"in.json:1: {expected[1]}"])


@settings(max_examples=300, deadline=None)
@given(st.lists(_mutated({"reviewer_id": "r", "object": "a:b", "rating": 4, "comment_polarity": "positive",
                          "comment_text": "fine"}), max_size=3))
def test_review_wire_check_equals_a_field_check_per_field(records):
    reviews, problems = _loaded(cli_io.load_reviews, json.dumps(records))
    expected_reviews, expected_problems = [], []
    for index, record in enumerate(records):
        outcome = _outcome(_by_fields, record, _REVIEW_FIELDS, Review)
        if isinstance(outcome, str):
            expected_reviews.append(outcome)
        else:
            expected_problems.append(f"in.json: review #{index}: {outcome[1]}")
    assert (list(map(repr, reviews)), problems) == (expected_reviews, expected_problems)


# Stage sets over a few ids, with repeats, items outside their enclosing stage, empty stages and an unhashable item.
_STAGE = st.lists(st.sampled_from(["a", "b", "c", "d", ["u"]]), max_size=4)


def _raised(call, *args):
    try:
        return call(*args)
    except (ChoiceTrustError, TypeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(st.tuples(_STAGE, _STAGE, _STAGE, _STAGE) | staged_episodes().map(
    lambda ep: (ep.attainable, ep.wishlist, ep.cart, ep.final)
))
def test_stage_set_check_equals_the_walk(stages):
    fast = _raised(lambda: ValidatedEpisode("r", 1, *stages).ranks)
    assert fast == _raised(_pipeline._stage_walk, ChoiceEpisode("r", 1, *stages))


@settings(max_examples=60, deadline=None)
@given(batches())
def test_a_pipeline_built_assessment_equals_its_hand_built_twin(batch):
    report = build_report(*batch)
    for section in report.reviewers:
        for a in section.assessments:
            fields = [getattr(a, name) for name in TrustAssessment.__match_args__]
            twin = TrustAssessment(*fields)
            assert twin.key is not a.key
            assert twin == a and hash(twin) == hash(a) and repr(twin) == repr(a)
            assert pickle.loads(pickle.dumps(a)) == twin and pickle.loads(pickle.dumps(twin)) == a
            assert TrustAssessment(**dict(zip(TrustAssessment.__match_args__, fields))) == a
            # Every assessment of one run-total key in a report reads the key's one record.
            assert all(b.key is a.key for b in section.assessments if b.pattern is a.pattern)
