import random

import pytest

from choicetrust import (
    DomainError,
    EPSILON,
    RunCount,
    RunPattern,
    UnknownObjectError,
    concat_patterns,
    derive_matrix,
    flatten,
    omega,
    outdegrees,
    scan_runs,
    single_period_rationality_pattern,
)

from helpers import chain_episode, chain_matrix, episode, random_staged_episode


def test_scan_runs_canonical_joint(canonical_episodes):
    joint = concat_patterns([derive_matrix(e) for e in canonical_episodes])
    assert scan_runs(joint) == (3, 2, 1, 0, 0, 1, 2, 3)


def test_scan_runs_zero_matrix():
    v = episode("r", 1, "MNVZ", "MNVZ", "MNVZ", "MNVZ")
    assert scan_runs(flatten(derive_matrix(v))) == (0, 0, 0, 0)


def test_scan_runs_single_period(canonical_episodes):
    assert scan_runs(flatten(derive_matrix(canonical_episodes[0]))) == (3, 2, 1, 0)


def test_scan_runs_handles_runs_meeting_at_row_edges():
    # catalog order M,N,V,Z but chain N > M > V > Z: row M ends with 1s and
    # row N starts with one, so the scanner must not merge them
    v = episode("r", 1, "MNVZ", "MNV", "MN", "N")
    pattern = flatten(derive_matrix(v))
    assert pattern.as_string() == "0011101100010000"
    assert scan_runs(pattern) == (2, 3, 1, 0)


def test_scan_runs_equals_outdegrees_for_strict_orders():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(2, 4)
        catalog = [f"o{i}" for i in range(n)]
        matrices = []
        expected = []
        for period in range(1, rng.randint(2, 4) + 1):
            pref = catalog[:]
            rng.shuffle(pref)
            m = derive_matrix(chain_episode(pref, catalog, period=period))
            matrices.append(m)
            expected.extend(outdegrees(m))
        assert list(scan_runs(concat_patterns(matrices))) == expected


def test_scan_runs_equals_outdegrees_on_large_chains():
    for n in (5, 6):
        catalog = [f"o{i}" for i in range(n)]
        pref = list(reversed(catalog))
        m = chain_matrix(pref, catalog)
        assert scan_runs(flatten(m)) == outdegrees(m)


def test_omega_canonical(canonical_episodes):
    expected = {
        "M": ("3", "ε"),
        "N": ("2", "1"),
        "V": ("1", "2"),
        "Z": ("ε", "3"),
    }
    for obj, slots in expected.items():
        pattern = omega(canonical_episodes, obj)
        assert tuple(str(s) for s in pattern.slots) == slots
        assert pattern.absent_flags == (False, False)


def test_omega_render(canonical_episodes):
    assert omega(canonical_episodes, "M").render() == "{3,ε}"


def test_omega_marks_absent_periods():
    first = episode("r", 1, "MN", "MN", "M", "M")
    second = episode("r", 2, "MNV", "MNV", "MV", "V")
    pattern = omega([first, second], "V")
    assert pattern.absent_flags == (True, False)
    assert pattern.slots[0].is_epsilon


def test_omega_unknown_object(canonical_episodes):
    with pytest.raises(UnknownObjectError):
        omega(canonical_episodes, "Q")


def test_omega_requires_sorted_periods(canonical_episodes):
    with pytest.raises(DomainError):
        omega(tuple(reversed(canonical_episodes)), "M")


def test_omega_never_emits_zero_count():
    rng = random.Random(31)
    for _ in range(200):
        ids = [f"o{i}" for i in range(rng.randint(1, 5))]
        eps = [random_staged_episode(rng, ids, period=k) for k in (1, 2, 3)]
        for oid in ids:
            for slot in omega(eps, oid).slots:
                assert slot.is_epsilon or slot.numeric >= 1


def test_omega_slot_equals_outdegree_when_present():
    rng = random.Random(32)
    for _ in range(200):
        ids = [f"o{i}" for i in range(rng.randint(1, 5))]
        eps = [random_staged_episode(rng, ids, period=k) for k in (1, 2)]
        degs = [dict(zip(ids, outdegrees(derive_matrix(e)))) for e in eps]
        for oid in ids:
            pattern = omega(eps, oid)
            for k, slot in enumerate(pattern.slots):
                assert slot.numeric == degs[k][oid]


def test_no_complete_irrationality():
    # whenever some period has a strict preference, some object keeps a run
    rng = random.Random(33)
    for _ in range(300):
        ids = [f"o{i}" for i in range(rng.randint(2, 5))]
        eps = [random_staged_episode(rng, ids, period=k) for k in (1, 2)]
        any_strict = any(sum(outdegrees(derive_matrix(e))) > 0 for e in eps)
        if not any_strict:
            continue
        assert any(
            not slot.is_epsilon for oid in ids for slot in omega(eps, oid).slots
        )


def test_single_period_pattern():
    assert single_period_rationality_pattern(4) == (3, 2, 1)
    assert single_period_rationality_pattern(2) == (1,)
    assert single_period_rationality_pattern(5) == (4, 3, 2, 1)
    with pytest.raises(DomainError):
        single_period_rationality_pattern(1)


def test_single_period_pattern_matches_chain_scan():
    catalog = [f"o{i}" for i in range(5)]
    runs = scan_runs(flatten(chain_matrix(catalog, catalog)))
    assert runs == single_period_rationality_pattern(5) + (0,)


def test_run_count_validation_and_display():
    assert str(RunCount(3)) == "3"
    assert RunCount(3).unary() == "111"
    assert str(EPSILON) == "ε"
    assert EPSILON.numeric == 0
    with pytest.raises(DomainError):
        RunCount(0)


def test_run_pattern_absent_slot_must_be_epsilon():
    with pytest.raises(DomainError):
        RunPattern(slots=(RunCount(2),), absent_flags=(True,))
