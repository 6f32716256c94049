"""Each fast scoring path equals the paper-literal construct it replaces.

The oracles are the constructs as the paper states them: the stop/run
scanner over flattened 0/1 matrices, the enumerated two-period bar table,
and exact prefix sums of the binomial pmf. One property holds whole reports
against the reference pipeline in `reference_report.py`; the last ones hold
the per-report score memo against the uncached derivation.
"""

import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choicetrust import (
    EPSILON,
    ChoiceEpisode,
    Degree,
    NarrativeCode,
    OverallRationality,
    Polarity,
    RankClass,
    ReportParameters,
    Review,
    ReviewerSection,
    RunCount,
    RunPattern,
    ShapeError,
    TrustAssessment,
    TrustReport,
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
    zone,
)
from choicetrust.cli_io import (
    _REPORT_RENDERERS,
    _distribution_cells,
    _fmt8,
    _overall_json,
    report_to_csv,
    report_to_dict,
    report_to_json,
    report_to_text,
)

from helpers import episode
from choicetrust import _pipeline
from choicetrust.trust_scoring import _NOTE_MINMAX_FLOOR, _NOTE_REFERENCE_TABLE, _NOTE_SMALL_CATALOG, _score_totals
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
    # `prob` is the one reader of the paper term; the CDF and the rows walk `OverallRationality.numerators`.
    n, p = 300, Fraction(3, 10)
    terms = [binomial_rationality(n, r, p) for r in range(n + 1)]
    below = list(itertools.accumulate(terms, initial=Fraction(0)))
    cells = tuple((r, _fmt8(terms[r]), _fmt8(below[r + 1]), _fmt8(1 - below[r])) for r in range(n + 1))

    def refuse(*args):
        raise AssertionError("binomial_rationality called")

    monkeypatch.setattr(_pipeline, "binomial_rationality", refuse)
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
            assert (scored.bar, scored.degree, scored.notes) == (None, None, (_NOTE_SMALL_CATALOG,))
        else:
            table = bin_table(ns)
            degree = membership(d, table, variant)
            notes = ()
            if variant == "minmax" and degree.value == 0:
                notes = (_NOTE_MINMAX_FLOOR, _NOTE_REFERENCE_TABLE) if ns == (4, 4) else (_NOTE_MINMAX_FLOOR,)
            assert (scored.bar, scored.degree, scored.notes) == (table.by_difference(d).label, degree, notes)
        assert scored.counts_rational == (d > 0 or d == 0 and d0_zone == "rational")
        assert scored.conformant is None
    else:
        assert (scored.zone, scored.bar, scored.degree, scored.notes) == (None, None, None, ())
        assert scored.counts_rational is False
        assert scored.conformant == (not slots[0].is_epsilon if len(totals) == 1 else None)


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

    def counting(totals, ns, variant, d0_zone):
        calls.append((totals, ns))
        return _score_totals(totals, ns, variant, d0_zone)

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
