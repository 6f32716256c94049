"""Each fast scoring path equals the paper-literal construct it replaces.

The oracles are the constructs as the paper states them: the stop/run
scanner over flattened 0/1 matrices, the enumerated two-period bar table,
and exact prefix sums of the binomial pmf.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from choicetrust import (
    EPSILON,
    OverallRationality,
    RunCount,
    bar_degrees,
    bar_frequency,
    bin_table,
    concat_patterns,
    derive_matrix,
    flatten,
    membership,
    omega,
    run_patterns,
    run_totals,
    scan_runs,
)

from helpers import episode

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
    if obj not in ep.ranks:
        return EPSILON, True
    count = scan_runs(flatten(derive_matrix(ep)))[ep.attainable.index(obj)]
    return (RunCount(count) if count else EPSILON), False


@settings(deadline=None)
@given(staged_episodes())
def test_run_totals_equal_scanned_runs(ep):
    assert run_totals(ep) == scan_runs(flatten(derive_matrix(ep)))


@settings(deadline=None)
@given(episode_histories())
def test_omega_and_run_patterns_equal_scanner_oracle(eps):
    objects = list(dict.fromkeys(o for ep in eps for o in ep.attainable))
    patterns = run_patterns(eps, objects)
    for obj, pattern in zip(objects, patterns):
        slots, absent = zip(*(oracle_slot(ep, obj) for ep in eps))
        assert pattern.object == obj
        assert pattern.slots == slots
        assert pattern.absent_flags == absent
        assert omega(eps, obj) == pattern


@settings(deadline=None)
@given(st.data())
def test_pattern_strings_equal_flattened_vectors(data):
    catalog = data.draw(catalogs())
    periods = data.draw(st.integers(1, 3))
    matrices = [derive_matrix(data.draw(staged_episodes(catalog, k))) for k in range(1, periods + 1)]
    strings = [m.as_string() for m in matrices]
    assert strings == [flatten(m).as_string() for m in matrices]
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
                assert dict(bar_degrees((a, b), variant)) == {
                    bar.difference: membership(bar.difference, table, variant) for bar in table.bins
                }


@settings(deadline=None)
@given(st.integers(0, 40), st.fractions(min_value=0, max_value=1, max_denominator=50))
def test_cached_cdf_equals_exact_prefix_sums(n, p):
    overall = OverallRationality.from_parameters(n, p)
    for r in range(-1, n + 2):
        prefix = sum(overall.pmf[: r + 1], Fraction(0)) if r >= 0 else Fraction(0)
        assert overall.at_most(r) == prefix
        assert overall.at_least(r) == sum(overall.pmf[max(r, 0) :], Fraction(0))
