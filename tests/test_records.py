"""The package's record types: value semantics, immutability, copying, start-up cost.

Every record is a ``__slots__`` class built on ``choicetrust._record.Record``.
These checks run over each record type the package exports, one valid
instance of each.
"""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import choicetrust
from choicetrust import (
    AttributeVector,
    Bin,
    BinTable,
    ChoiceEpisode,
    ConstraintRow,
    ContractionResult,
    ContractionViolation,
    Degree,
    DomainError,
    FlaggedReview,
    IfsElement,
    IfsList,
    OverallRationality,
    PatternVector,
    Polarity,
    PreferenceMatrix,
    ReportError,
    ReportParameters,
    Review,
    ReviewerSection,
    RunCount,
    RunPattern,
    TauPattern,
    TrustAssessment,
    TrustReport,
    ValidatedEpisode,
    bin_table,
    build_report,
    build_tau,
    check_contraction,
    derive_matrix,
    flatten,
    induced_table,
    make_list,
    membership,
    omega,
    stage_rank,
    validate_episode,
)
from choicetrust._record import Record

RECORD_TYPES = [
    obj
    for name in choicetrust.__all__
    if isinstance(obj := getattr(choicetrust, name), type) and issubclass(obj, Record)
]


def _episodes():
    return (
        ChoiceEpisode("r", 1, ("a", "b", "c"), ("a", "b"), ("a",), ("a",)),
        ChoiceEpisode("r", 2, ("a", "b", "c"), ("c", "b"), ("c",), ("c",)),
    )


def _validated():
    return tuple(validate_episode(e) for e in _episodes())


def _report():
    """A report with a section, a flagged review and an error."""
    invalid = ChoiceEpisode("s", 1, ("a",), (), (), ())
    reviews = [Review("r", "a", 2, comment_text="worse"), Review("r", "zz", 5)]
    return build_report([*_episodes(), invalid], reviews)


# Each factory returns a fresh, equal instance at every call.
SAMPLES = {
    AttributeVector: lambda: AttributeVector((1, 2)),
    ConstraintRow: lambda: ConstraintRow((1, 2), "<=", 3),
    ChoiceEpisode: lambda: _episodes()[0],
    ValidatedEpisode: lambda: _validated()[0],
    ContractionViolation: lambda: ContractionViolation(("a", "b"), ("a", "b", "c"), "a", "b"),
    ContractionResult: lambda: check_contraction(induced_table(("a", "b", "c"))),
    IfsElement: lambda: IfsElement("x", 0.5, 0.25),
    IfsList: lambda: make_list([("x", 0.5, 0.25), ("y", 0.1, 0.2)]),
    RunCount: lambda: RunCount(2),
    RunPattern: lambda: omega(_validated(), "b"),
    PreferenceMatrix: lambda: derive_matrix(_validated()[0]),
    PatternVector: lambda: flatten(derive_matrix(_validated()[0])),
    TauPattern: lambda: build_tau([3, 3])[4],
    Bin: lambda: bin_table((3, 3)).by_difference(0),
    BinTable: lambda: bin_table((3, 3)),
    Degree: lambda: membership("D", bin_table((3, 3))),
    Review: lambda: Review("r", "a", 4, comment_text="fine"),
    OverallRationality: lambda: OverallRationality.from_parameters(3, "1/2", 1),
    TrustAssessment: lambda: _report().reviewers[0].assessments[0],
    ReviewerSection: lambda: _report().reviewers[0],
    FlaggedReview: lambda: _report().flagged_reviews[0],
    ReportError: lambda: _report().errors[0],
    ReportParameters: lambda: _report().parameters,
    TrustReport: _report,
}


def test_every_exported_record_type_has_a_sample():
    assert set(RECORD_TYPES) == set(SAMPLES)


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda cls: cls.__name__)
def test_record_value_semantics(cls):
    a, b = SAMPLES[cls](), SAMPLES[cls]()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)

    # The positional parameters of __init__ are the fields, in slot order.
    values = [getattr(a, name) for name in cls.__slots__]
    assert cls(*values) == a
    other = type("Other", (cls,), {"__slots__": ()})(*values)
    assert a != other and other != a
    assert a != tuple(values)

    name = cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(a, name, values[0])
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert getattr(a, name) is values[0]

    assert copy.copy(a) == a
    assert copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a
    assert repr(a).startswith(f"{cls.__name__}(")


def test_validated_episode_ranks_are_an_immutable_tuple_in_catalog_order():
    v = _validated()[1]
    assert type(v.ranks) is tuple and v.ranks == (0, 1, 3)
    assert v.ranks == tuple(stage_rank(v, oid) for oid in v.attainable)
    with pytest.raises(TypeError):
        v.ranks[0] = 0
    fields = [getattr(v, name) for name in ValidatedEpisode.__slots__]
    assert ValidatedEpisode(*fields[:-1], [0, 1, 3]) == v
    for ranks in ((0, 1), (0, 1, 3, 3)):
        with pytest.raises(DomainError, match="one stage rank per attainable object"):
            ValidatedEpisode(*fields[:-1], ranks)


# Per record, how to build it from one integer field's value, and read it back.
INTEGER_FIELDS = {
    "AttributeVector": (lambda v: AttributeVector((1, v)), lambda r: r.values[1]),
    "ChoiceEpisode": (lambda v: ChoiceEpisode("r", v, ("a",), ("a",), ("a",), ("a",)), lambda r: r.period),
    "RunCount": (RunCount, lambda r: r.value),
    "Review": (lambda v: Review("r", "a", v, Polarity.POSITIVE), lambda r: r.rating),
    # No polarity: the rating must be read before the polarity falls back to it.
    "Review-from-rating": (lambda v: Review("r", "a", v), lambda r: r.rating),
}


@pytest.mark.parametrize("build, read", INTEGER_FIELDS.values(), ids=INTEGER_FIELDS)
def test_integer_fields_are_never_truncated(build, read):
    for value in (2.5, 4.9, Fraction(7, 2), True, "4", float("inf"), float("nan")):
        with pytest.raises(DomainError, match="must be an integer"):
            build(value)
    # An integral value of another numeric type is taken as its int.
    for value in (4, 4.0, Fraction(4)):
        field = read(build(value))
        assert field == 4 and type(field) is int


_IMPORTED = """
import sys
import choicetrust.cli_io
print(" ".join(sorted({"dataclasses", "inspect"} & set(sys.modules))))
"""


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Both cost start-up time on every run of the command.
    src = Path(choicetrust.__file__).parents[1]
    child = subprocess.run(
        [sys.executable, "-c", _IMPORTED],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
        timeout=60,
    )
    assert (child.returncode, child.stderr, child.stdout) == (0, "", "\n")
