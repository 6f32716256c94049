import itertools
import random

import pytest

from choicetrust import (
    ChoiceFunctionTable,
    DomainError,
    EPSILON,
    IncompleteTableError,
    Lemma2Class,
    RunCount,
    check_contraction,
    classify_lemma2,
    induced_table,
    rationalizable,
)
from choicetrust.errors import render_set


def _all_nonempty_subsets(ground):
    out = []
    for r in range(1, len(ground) + 1):
        out.extend(itertools.combinations(ground, r))
    return out


def _random_table(rng, ground):
    return ChoiceFunctionTable(
        ground_set=ground,
        choices={frozenset(s): rng.choice(s) for s in _all_nonempty_subsets(ground)},
    )


VIOLATING = ChoiceFunctionTable(
    ground_set=("a", "b", "c"),
    choices={
        frozenset({"a"}): "a",
        frozenset({"b"}): "b",
        frozenset({"c"}): "c",
        frozenset({"a", "b"}): "a",
        frozenset({"a", "c"}): "a",
        frozenset({"b", "c"}): "b",
        frozenset({"a", "b", "c"}): "b",
    },
)


def test_order_induced_table_passes_contraction():
    table = induced_table(("w", "x", "y", "z"))
    assert check_contraction(table).consistent


def test_nested_pair_with_stable_choice_has_no_violation():
    # choosing x1 from {x1,x3} and again from {x1} is consistent for that pair
    table = induced_table(("x1", "x2", "x3"))
    assert table.choice(("x1", "x3")) == "x1"
    assert table.choice(("x1",)) == "x1"
    result = check_contraction(table)
    assert result.consistent
    assert not any(
        set(v.small) == {"x1"} and set(v.large) == {"x1", "x3"} for v in result.violations
    )


def test_contraction_violation_found_at_exact_pair():
    result = check_contraction(VIOLATING)
    assert not result.consistent
    pairs = {(frozenset(v.small), frozenset(v.large)) for v in result.violations}
    assert (frozenset({"a", "b"}), frozenset({"a", "b", "c"})) in pairs
    v = result.violations[0]
    assert v.chosen_large == "b" and v.chosen_small == "a"


def test_rationalizable_recovers_chain():
    table = induced_table(("M", "N", "V", "Z"))
    assert rationalizable(table) == ("M", "N", "V", "Z")


def test_violating_table_is_not_rationalizable():
    assert rationalizable(VIOLATING) is None


def test_single_element_table_trivially_rationalizable():
    table = induced_table(("solo",))
    assert rationalizable(table) == ("solo",)
    assert check_contraction(table).consistent


def test_soundness_random_tables():
    rng = random.Random(99)
    ground4 = ("a", "b", "c", "d")
    for _ in range(10000):
        table = _random_table(rng, ground4)
        order = rationalizable(table)
        if order is not None:
            assert check_contraction(table).consistent


def test_soundness_exhaustive_n3():
    ground = ("a", "b", "c")
    subsets = _all_nonempty_subsets(ground)
    for assignment in itertools.product(*[s for s in subsets]):
        table = ChoiceFunctionTable(
            ground_set=ground,
            choices={frozenset(s): pick for s, pick in zip(subsets, assignment)},
        )
        if rationalizable(table) is not None:
            assert check_contraction(table).consistent


def test_completeness_on_total_orders():
    for n in range(1, 6):
        ground = tuple(f"e{i}" for i in range(n))
        for order in itertools.permutations(ground):
            table = induced_table(order)
            recovered = rationalizable(table)
            assert recovered is not None
            assert induced_table(recovered).choices == table.choices


def test_incomplete_table_lists_missing_subsets():
    with pytest.raises(IncompleteTableError) as err:
        ChoiceFunctionTable(
            ground_set=("a", "b"),
            choices={frozenset({"a"}): "a", frozenset({"a", "b"}): "a"},
        )
    assert ("b",) in err.value.missing


def test_chosen_member_must_belong_to_subset():
    with pytest.raises(DomainError):
        ChoiceFunctionTable(
            ground_set=("a", "b"),
            choices={
                frozenset({"a"}): "a",
                frozenset({"b"}): "b",
                frozenset({"a", "b"}): "c",
            },
        )


def test_messages_quote_ids_that_hold_set_syntax():
    assert render_set(("a", "b")) == "{a,b}"
    odd = ("a,b", "{c}", "d e", "it's", 'say "x"')
    assert render_set(("a", *odd)) == "{a," + ",".join(repr(oid) for oid in odd) + "}"

    ground = ("a", "a,b", "b")
    choices = {frozenset(s): s[0] for s in _all_nonempty_subsets(ground)}
    choices[frozenset({"a", "b"})] = "b"
    (violation,) = check_contraction(ChoiceFunctionTable(ground, choices)).violations
    assert violation.describe() == (
        "{a,b} within {a,'a,b',b}: large set chose 'a' (still available) but small set chose 'b'"
    )

    pair = {frozenset({"a"}): "a", frozenset({"a,b"}): "a,b", frozenset({"a", "a,b"}): "a"}
    with pytest.raises(DomainError, match=r"^chosen element 'a' is not a member of \{'a,b'\}$"):
        ChoiceFunctionTable(("a", "a,b"), {**pair, frozenset({"a,b"}): "a"})
    with pytest.raises(DomainError, match=r"^subset \{a,'x y'\} is not within the ground set$"):
        ChoiceFunctionTable(("a", "a,b"), {**pair, frozenset({"a", "x y"}): "a"})


def test_ground_set_capped():
    ground = tuple(f"e{i}" for i in range(7))
    with pytest.raises(DomainError):
        ChoiceFunctionTable(ground_set=ground, choices={})


def test_classify_lemma2():
    assert classify_lemma2((RunCount(1), RunCount(2))) == Lemma2Class.STRONG
    assert classify_lemma2((RunCount(2), RunCount(1))) == Lemma2Class.WEAK
    assert classify_lemma2((RunCount(1), RunCount(3))) == Lemma2Class.NEITHER
    assert classify_lemma2((2, 3)) == Lemma2Class.STRONG


def test_classify_lemma2_strong_for_all_adjacent_ascents():
    n = 6
    for k in range(1, n - 1):
        assert classify_lemma2((k, k + 1), n=n) == Lemma2Class.STRONG
        assert classify_lemma2((k + 1, k), n=n) == Lemma2Class.WEAK


def test_classify_lemma2_rejects_epsilon_and_bounds():
    with pytest.raises(DomainError):
        classify_lemma2((EPSILON, RunCount(1)))
    with pytest.raises(DomainError):
        classify_lemma2((5, 6), n=4)


@pytest.mark.parametrize("pair", [(1.7, 2.2), ("2", "3"), (True, 2), (2, 2.5)], ids=repr)
def test_classify_lemma2_refuses_a_count_that_is_not_an_integer(pair):
    with pytest.raises(DomainError, match="run count must be an integer"):
        classify_lemma2(pair)


@pytest.mark.parametrize("n", [4.5, "4", True], ids=repr)
def test_classify_lemma2_refuses_an_n_that_is_not_an_integer(n):
    with pytest.raises(DomainError, match="n must be an integer"):
        classify_lemma2((1, 2), n=n)


def test_classify_lemma2_takes_an_integral_count_as_its_int():
    assert classify_lemma2((2.0, 3), n=4.0) == Lemma2Class.STRONG
