import itertools
from fractions import Fraction

import pytest

from choicetrust import (
    DomainError,
    EPSILON,
    RankClass,
    RunCount,
    bar_label,
    bin_frequencies,
    bin_pattern,
    build_tau,
    classify_rank,
    count_tau_two_periods,
    membership,
    signed_difference,
    slot_alphabet,
    two_period_decomposition,
)


def rc(*values):
    return tuple(EPSILON if v is None else RunCount(v) for v in values)


def test_build_tau_four_four():
    tau = build_tau([4, 4])
    assert len(tau) == 16
    slots = {tuple(s.numeric for s in p.slots) for p in tau}
    assert slots == set(itertools.product(range(4), repeat=2))


def test_build_tau_single_period_of_two():
    tau = build_tau([2])
    assert [p.render() for p in tau] == ["{ε}", "{1}"]


def test_build_tau_mixed_sizes():
    tau = build_tau([3, 4])
    assert len(tau) == 12
    firsts = {p.slots[0].numeric for p in tau}
    seconds = {p.slots[1].numeric for p in tau}
    assert firsts == {0, 1, 2} and seconds == {0, 1, 2, 3}


def test_build_tau_needs_periods():
    with pytest.raises(DomainError):
        build_tau([])
    with pytest.raises(DomainError):
        build_tau([1, 4])


@pytest.mark.parametrize("ns", [[2.5, 3], [3.9], ["4"], [True, 2], [None]])
def test_build_tau_refuses_sizes_it_would_truncate(ns):
    with pytest.raises(DomainError, match="period size must be an integer"):
        build_tau(ns)


def test_bin_frequencies_refuses_a_fractional_size():
    with pytest.raises(DomainError, match="period size must be an integer"):
        bin_frequencies(3.5)
    assert bin_frequencies(3.0) == bin_frequencies(3)


def test_build_tau_size_is_n_to_the_t():
    for n in range(2, 6):
        for t in range(1, 4):
            assert len(build_tau([n] * t)) == n**t


def test_count_tau_two_periods():
    assert count_tau_two_periods(4) == 16
    assert two_period_decomposition(4) == (6, 10)
    for n in (2, 3, 4, 5):
        assert count_tau_two_periods(n) == len(build_tau([n, n]))


def test_classify_rank_examples():
    assert classify_rank(rc(1, 1)) is RankClass.REFLEXIVE
    assert classify_rank(rc(1, 2)) is RankClass.INCREASING
    assert classify_rank(rc(3, None)) is RankClass.DECREASING
    assert classify_rank(rc(1, 3, 2)) is RankClass.MIXED
    assert classify_rank(rc(None, None)) is RankClass.REFLEXIVE
    assert classify_rank(rc(None, 1, 1)) is RankClass.INCREASING


def test_bin_pattern_examples():
    assert bin_pattern(rc(3, None)) == "C"
    assert bin_pattern(rc(None, 3)) == "G"
    assert bin_pattern(rc(2, 1)) == "A"
    assert bin_pattern(rc(1, 2)) == "E"
    assert bin_pattern(rc(2, 2)) == "D"
    # the tree's ambiguous cell resolves by difference
    assert bin_pattern(rc(2, None)) == "B"
    assert bin_pattern(rc(1, None)) == "A"
    with pytest.raises(DomainError):
        bin_pattern(rc(1, 2, 3))


def test_bin_frequencies_canonical():
    table = bin_frequencies(4)
    assert {b.label: b.frequency for b in table.bins} == {
        "A": 3, "B": 2, "C": 1, "D": 4, "E": 3, "F": 2, "G": 1,
    }


def test_bin_frequencies_n_two():
    table = bin_frequencies(2)
    assert {b.difference: b.frequency for b in table.bins} == {-1: 1, 0: 2, 1: 1}


def test_bin_frequencies_partition_and_symmetry():
    for n in range(2, 7):
        table = bin_frequencies(n)
        assert sum(b.frequency for b in table.bins) == n * n
        for b in table.bins:
            assert b.frequency == table.by_difference(-b.difference).frequency


def test_reflexive_implies_center_bar():
    for pattern in build_tau([4, 4]):
        if pattern.rank_class is RankClass.REFLEXIVE:
            assert pattern.bin == "D"


def test_every_pattern_gets_one_class_and_bar():
    table = bin_frequencies(4)
    seen = []
    for b in table.bins:
        seen.extend(b.patterns)
    assert len(seen) == 16
    for pattern in seen:
        assert pattern.rank_class in RankClass
        assert pattern.bin == bar_label(signed_difference(pattern.slots))


def test_membership_canonical():
    table = bin_frequencies(4)
    assert membership("D", table).value == 1
    assert membership("A", table).value == Fraction(2, 3)
    assert membership("E", table).value == Fraction(2, 3)
    assert membership("B", table).value == Fraction(1, 3)
    assert membership("F", table).value == Fraction(1, 3)
    assert membership("C", table).value == 0
    assert membership("G", table).value == 0


def test_membership_n_two():
    table = bin_frequencies(2)
    assert membership(0, table).value == 1
    assert membership(-1, table).value == 0
    assert membership(1, table).value == 0


def test_membership_monotone_in_frequency():
    for n in range(2, 7):
        table = bin_frequencies(n)
        ordered = sorted(table.bins, key=lambda b: b.frequency)
        degrees = [membership(b.label, table).value for b in ordered]
        assert degrees == sorted(degrees)
        assert membership(0, table).value == 1


def test_membership_smoothed_variant_strictly_positive():
    table = bin_frequencies(4)
    assert membership("C", table, "smoothed").value == Fraction(1, 4)
    assert membership("D", table, "smoothed").value == 1
    for b in table.bins:
        assert membership(b.label, table, "smoothed").value > 0


def test_membership_degenerate_table_flagged():
    # a one-bar table happens when both alphabets collapse; fabricate via n=2
    # restricted to its center by filtering is not possible through the API,
    # so check the flag contractually on an all-equal table
    table = bin_frequencies(2)
    degree = membership(0, table)
    assert degree.degenerate is False
    from choicetrust.rationality_outcomes import Bin, BinTable

    flat = BinTable(ns=(2, 2), bins=tuple(
        Bin(difference=b.difference, label=b.label, patterns=b.patterns[:1]) for b in table.bins
    ))
    degree = membership(0, flat)
    assert degree.value == 1 and degree.degenerate is True


def test_membership_unknown_bar():
    table = bin_frequencies(4)
    with pytest.raises(DomainError):
        membership("X", table)
    with pytest.raises(DomainError):
        membership("A", table, "weird")


def test_slot_alphabet():
    assert [s.numeric for s in slot_alphabet(4)] == [0, 1, 2, 3]
    with pytest.raises(DomainError):
        slot_alphabet(1)
