import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from choicetrust import (
    AttributeVector,
    ChoiceEpisode,
    ConstraintRow,
    DimensionError,
    DomainError,
    DuplicateItemError,
    EmptyFinalError,
    NestingError,
    UnknownObjectError,
    attainable_set,
    stage_rank,
    validate_episode,
)

from helpers import episode, random_staged_episode


def _catalog(vectors):
    return {f"o{i}": AttributeVector(tuple(v)) for i, v in enumerate(vectors)}


def _oracle(catalog, rows):
    # independent per-row evaluation with exact arithmetic
    keep = []
    for oid, vec in catalog.items():
        ok = True
        for row in rows:
            total = sum(Fraction(c) * v for c, v in zip(row.coefficients, vec.values))
            if row.relation == "<=":
                ok = ok and total <= row.bound
            elif row.relation == ">=":
                ok = ok and total >= row.bound
            else:
                ok = ok and total == row.bound
        if ok:
            keep.append(oid)
    return tuple(keep)


def test_attainable_no_constraints_keeps_catalog():
    catalog = _catalog([(1,), (2,), (3,)])
    assert attainable_set(catalog, []) == ("o0", "o1", "o2")


def test_attainable_infeasible_budget_is_empty():
    catalog = _catalog([(10,), (25,), (7,)])
    row = ConstraintRow((1,), "<=", 0)
    assert attainable_set(catalog, [row]) == ()


def test_attainable_matches_bruteforce_on_random_catalogs():
    rng = random.Random(7)
    for trial in range(200):
        dim = rng.randint(1, 4)
        size = 5 if trial < 50 else rng.randint(1, 8)
        catalog = _catalog([[rng.randint(0, 20) for _ in range(dim)] for _ in range(size)])
        rows = [
            ConstraintRow(
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim)),
                rng.choice(("<=", "=", ">=")),
                Fraction(rng.randint(-10, 40)),
            )
            for _ in range(rng.randint(1, 4))
        ]
        assert attainable_set(catalog, rows) == _oracle(catalog, rows)


def test_attainable_preserves_catalog_order():
    catalog = {"z": AttributeVector((1,)), "a": AttributeVector((2,)), "m": AttributeVector((3,))}
    assert attainable_set(catalog, [ConstraintRow((1,), "<=", 5)]) == ("z", "a", "m")


def test_adding_constraints_never_grows_the_set():
    rng = random.Random(11)
    for _ in range(100):
        dim = rng.randint(1, 3)
        catalog = _catalog([[rng.randint(0, 9) for _ in range(dim)] for _ in range(rng.randint(1, 8))])
        make_row = lambda: ConstraintRow(
            tuple(Fraction(rng.randint(-2, 3)) for _ in range(dim)),
            rng.choice(("<=", "=", ">=")),
            Fraction(rng.randint(-5, 20)),
        )
        c1 = [make_row() for _ in range(rng.randint(0, 2))]
        c2 = [make_row() for _ in range(rng.randint(1, 2))]
        assert set(attainable_set(catalog, c1 + c2)) <= set(attainable_set(catalog, c1))


def test_attainable_dimension_mismatch_rejected():
    catalog = _catalog([(1, 2), (3, 4)])
    with pytest.raises(DimensionError):
        attainable_set(catalog, [ConstraintRow((1,), "<=", 5)])


def test_constraint_relation_validation():
    with pytest.raises(DomainError):
        ConstraintRow((1,), "<", 5)


def test_negative_attribute_rejected():
    with pytest.raises(DomainError):
        AttributeVector((1, -2))


def test_validate_canonical_episode():
    v = episode("r", 1, "MNVZ", "MNV", "MN", "M")
    assert v.attainable == ("M", "N", "V", "Z")
    assert v.final == ("M",)


def test_validate_singleton_chain():
    v = episode("r", 1, "M", "M", "M", "M")
    assert stage_rank(v, "M") == 3


def test_validate_nesting_violation_names_stage_and_item():
    raw = ChoiceEpisode("r", 1, ("M", "N"), ("M", "N"), ("N", "V"), ("N",))
    with pytest.raises(NestingError) as err:
        validate_episode(raw)
    assert err.value.stage == "cart"
    assert err.value.item == "V"


def test_validate_empty_final_rejected():
    raw = ChoiceEpisode("r", 1, ("M", "N"), ("M",), (), ())
    with pytest.raises(EmptyFinalError):
        validate_episode(raw)


def test_validate_duplicate_in_stage_rejected():
    raw = ChoiceEpisode("r", 1, ("M", "N"), ("M", "M"), ("M",), ("M",))
    with pytest.raises(DuplicateItemError):
        validate_episode(raw)


def test_validate_empty_attainable_rejected():
    with pytest.raises(DomainError):
        validate_episode(ChoiceEpisode("r", 1, (), (), (), ()))


def test_equal_adjacent_stages_allowed():
    v = episode("r", 1, "MN", "MN", "MN", "MN")
    assert stage_rank(v, "M") == 3 and stage_rank(v, "N") == 3


def test_stage_rank_canonical_values():
    v = episode("r", 1, "MNVZ", "MNV", "MN", "M")
    assert stage_rank(v, "M") == 3
    assert stage_rank(v, "N") == 2
    assert stage_rank(v, "V") == 1
    assert stage_rank(v, "Z") == 0


def test_stage_rank_unknown_object():
    v = episode("r", 1, "MN", "M", "M", "M")
    with pytest.raises(UnknownObjectError):
        stage_rank(v, "Q")


def test_stage_rank_total_on_random_episodes():
    rng = random.Random(3)
    for _ in range(100):
        ids = [f"o{i}" for i in range(rng.randint(1, 6))]
        v = random_staged_episode(rng, ids)
        assert type(v.ranks) is tuple and len(v.ranks) == len(v.attainable)
        for i, oid in enumerate(v.attainable):
            depth = 3 if oid in v.final else 2 if oid in v.cart else 1 if oid in v.wishlist else 0
            assert v.ranks[i] == stage_rank(v, oid) == depth


def test_period_must_be_positive():
    with pytest.raises(DomainError):
        ChoiceEpisode("r", 0, ("M",), ("M",), ("M",), ("M",))


# A coefficient or bound that is not a number of bounded size, and the start of its DomainError. An exponent of
# 10**7 would take seconds to build as a Fraction, so each must be refused before one is built.
_BAD_CONSTRAINT_NUMBERS = {
    "text": ("x", "constraint {} must be a decimal such as 0.25"),
    "nan": (float("nan"), "constraint {} must be a finite number"),
    "infinity": (float("inf"), "constraint {} must be a finite number"),
    "decimal nan": (Decimal("NaN"), "constraint {} must be a finite number"),
    "bool": (True, "constraint {} must be a finite number"),
    "tiny text": ("1e-1000000", "constraint {} must be a decimal such as 0.25"),
    "huge text": ("1e10000000", "constraint {} must be a decimal such as 0.25"),
    "tiny decimal": (Decimal("1E-10000000"), "constraint {} must have a denominator of at most 10\\*\\*80"),
    "huge decimal": (Decimal("1E+10000000"), "constraint {} must have an exponent of at most 320"),
    "tiny float": (5e-324, "constraint {} must have a denominator of at most 10\\*\\*80"),
}


@pytest.mark.parametrize("value, message", _BAD_CONSTRAINT_NUMBERS.values(), ids=_BAD_CONSTRAINT_NUMBERS)
def test_constraint_row_refuses_a_number_out_of_bounds_at_once(value, message):
    start = time.perf_counter()
    with pytest.raises(DomainError, match=message.format("coefficient")):
        ConstraintRow((1, value), "<=", 3)
    with pytest.raises(DomainError, match=message.format("bound")):
        ConstraintRow((1,), "<=", value)
    assert time.perf_counter() - start < 1


def test_constraint_row_reads_each_number_exactly():
    row = ConstraintRow((1, "1/3", Decimal("0.25"), 0.5, Decimal("0E+1000"), " -2e3 "), "<=", "1e-40")
    assert row.coefficients == (1, Fraction(1, 3), Fraction(1, 4), Fraction(1, 2), 0, -2000)
    assert row.bound == Fraction(1, 10**40)
    assert all(type(c) is Fraction for c in row.coefficients + (row.bound,))
