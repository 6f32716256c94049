import itertools
import random

import numpy as np
import pytest

from choicetrust import (
    PatternVector,
    PreferenceMatrix,
    ShapeError,
    concat_patterns,
    derive_matrix,
    flatten,
    outdegrees,
)

from helpers import chain_episode, episode, random_matrix, random_staged_episode

U1_ROWS = ["0111", "0011", "0001", "0000"]
U2_ROWS = ["0000", "1000", "1100", "1110"]


def _rows(matrix):
    return ["".join(str(int(b)) for b in row) for row in matrix.bits]


@pytest.fixture
def canonical_matrices(canonical_episodes):
    return tuple(derive_matrix(e) for e in canonical_episodes)


def test_derive_matrix_period_one(canonical_matrices):
    assert _rows(canonical_matrices[0]) == U1_ROWS


def test_derive_matrix_period_two(canonical_matrices):
    assert _rows(canonical_matrices[1]) == U2_ROWS


def test_derive_matrix_all_stages_equal_is_zero():
    v = episode("r", 1, "MNVZ", "MNVZ", "MNVZ", "MNVZ")
    assert _rows(derive_matrix(v)) == ["0000"] * 4


def test_outdegrees_canonical(canonical_matrices):
    assert outdegrees(canonical_matrices[0]) == (3, 2, 1, 0)
    assert outdegrees(canonical_matrices[1]) == (0, 1, 2, 3)


def test_outdegrees_zero_matrix():
    m = PreferenceMatrix(order=("a", "b", "c", "d"), bits=np.zeros((4, 4), dtype=int))
    assert outdegrees(m) == (0, 0, 0, 0)


def test_flatten_canonical(canonical_matrices):
    assert flatten(canonical_matrices[0]).as_string() == "".join(U1_ROWS)
    assert flatten(canonical_matrices[1]).as_string() == "".join(U2_ROWS)


def test_flatten_one_by_one():
    m = PreferenceMatrix(order=("a",), bits=np.zeros((1, 1), dtype=int))
    assert flatten(m).as_string() == "0"


def test_concat_patterns_canonical(canonical_matrices):
    joint = concat_patterns(canonical_matrices)
    assert joint.as_string() == "01110011000100000000100011001110"
    assert joint.periods == 2 and joint.n == 4


def test_concat_single_equals_flatten(canonical_matrices):
    assert concat_patterns(canonical_matrices[:1]).bits == flatten(canonical_matrices[0]).bits


def test_concat_zero_matrices():
    z = PreferenceMatrix(order=tuple("abcd"), bits=np.zeros((4, 4), dtype=int))
    assert concat_patterns([z, z]).as_string() == "0" * 32


def test_concat_length_is_sum_of_squares():
    rng = random.Random(5)
    for periods in (1, 2, 3, 4):
        n = rng.randint(1, 5)
        ms = [random_matrix(rng, n) for _ in range(periods)]
        ms = [PreferenceMatrix(order=ms[0].order, bits=m.bits) for m in ms]
        assert len(concat_patterns(ms)) == periods * n * n


def test_concat_shape_mismatch():
    a = random_matrix(random.Random(1), 3)
    b = random_matrix(random.Random(2), 4)
    with pytest.raises(ShapeError):
        concat_patterns([a, b])


def test_derived_matrices_are_transitive_and_acyclic():
    rng = random.Random(21)
    for _ in range(200):
        ids = [f"o{i}" for i in range(rng.randint(1, 6))]
        m = derive_matrix(random_staged_episode(rng, ids))
        # transitive with a zero diagonal, hence acyclic
        assert not m.bits.diagonal().any()
        n = m.n
        for i, j, k in itertools.product(range(n), repeat=3):
            if m.bits[i, j] and m.bits[j, k]:
                assert m.bits[i, k]


def test_outdegree_sum_counts_strict_pairs():
    rng = random.Random(22)
    for _ in range(100):
        ids = [f"o{i}" for i in range(rng.randint(1, 5))]
        v = random_staged_episode(rng, ids)
        m = derive_matrix(v)
        strict_pairs = sum(
            1
            for a in ids
            for b in ids
            if v.ranks[a] > v.ranks[b]
        )
        assert sum(outdegrees(m)) == strict_pairs


def test_chain_outdegrees_are_zero_to_n_minus_one():
    for n in (2, 3, 4):
        ids = [f"o{i}" for i in range(n)]
        pref = list(reversed(ids))
        m = derive_matrix(chain_episode(pref, ids))
        assert sorted(outdegrees(m)) == list(range(n))


def test_pattern_vector_rejects_bad_shape():
    with pytest.raises(ShapeError):
        PatternVector(bits=(0, 1, 0), n=2, periods=1)
    with pytest.raises(ShapeError):
        PatternVector(bits=(0, 2, 0, 0), n=2, periods=1)
