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
    GradeError,
    IfsElement,
    IfsList,
    NestingError,
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
    bar_frequency,
    bin_table,
    binomial_rationality,
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
from choicetrust._record import Record, as_int, as_probability
from helpers import child_env

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

    # The positional parameters of __init__ are the fields, in slot order,
    # and each may be given by its name instead.
    values = [getattr(a, name) for name in cls.__slots__]
    assert cls(*values) == a
    assert cls(**dict(zip(cls.__slots__, values))) == a
    wrong_calls = [
        ((*values, None), {}),  # an extra positional argument
        (values, {"not_a_field": 1}),  # an unknown keyword
        (values, {cls.__slots__[0]: values[0]}),  # one field both positionally and by keyword
    ]
    if cls.__init__ is Record.__init__:  # the shared constructor has no defaults
        wrong_calls.append((values[:-1], {}))  # a missing argument
    for args, kwargs in wrong_calls:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
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


HUGE = 10**5000  # an int Python refuses to print

TOO_LONG_TO_PRINT = {
    "as_probability-int": lambda: as_probability(HUGE),
    "as_probability-fraction": lambda: as_probability(Fraction(HUGE, 3)),
    "as_int": lambda: as_int(Fraction(HUGE + 1, 2), "n"),
    "Review-rating": lambda: Review("r", "a", HUGE),
    "ChoiceEpisode-period": lambda: ChoiceEpisode("r", -HUGE, ("a",), ("a",), ("a",), ("a",)),
    "binomial_rationality": lambda: binomial_rationality(3, HUGE, "1/2"),
    "OverallRationality-n": lambda: OverallRationality(-HUGE, "1/2"),
    "RunCount": lambda: RunCount(-HUGE),
    "build_tau": lambda: build_tau([-HUGE]),
    "bar_frequency": lambda: bar_frequency((4, 4), HUGE),
}


@pytest.mark.parametrize("call", TOO_LONG_TO_PRINT.values(), ids=TOO_LONG_TO_PRINT)
def test_a_number_too_long_to_print_is_still_a_domain_error(call):
    with pytest.raises(DomainError, match="<int too long to print>|<Fraction too long to print>"):
        call()


# A caller's id or relation that Python refuses to print, and the error it must raise.
UNPRINTABLE_ARGUMENT = {
    "NestingError": (NestingError, lambda: validate_episode(ChoiceEpisode("r", 1, (1,), (HUGE,), (), ()))),
    "GradeError": (GradeError, lambda: IfsElement(HUGE, 2, 0)),
    "ConstraintRow-relation": (DomainError, lambda: ConstraintRow((1,), HUGE, 3)),
}


@pytest.mark.parametrize("error, call", UNPRINTABLE_ARGUMENT.values(), ids=UNPRINTABLE_ARGUMENT)
def test_an_argument_too_long_to_print_raises_the_package_error(error, call):
    with pytest.raises(error, match="<int too long to print>"):
        call()


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


# Modules that importing the CLI must not load: each costs start-up time on
# every run of `score`, which uses none of them.
_NOT_ON_THE_SCORE_PATH = (
    "dataclasses",
    "inspect",
    "csv",
    "choicetrust.cli_commands",
    "choicetrust.consistency",
    "choicetrust.info_index",
    "choicetrust.choice_model",
    "choicetrust.preference_graph",
    "choicetrust.pattern_runs",
    "choicetrust.rationality_outcomes",
    "choicetrust.trust_scoring",
)
# The package modules `score` runs: the CLI, the scoring pipeline and what it imports.
_ON_THE_SCORE_PATH = "choicetrust choicetrust._pipeline choicetrust._record choicetrust.cli_io choicetrust.errors"
_IMPORTED = """
import sys
import choicetrust.cli_io
print(" ".join(sorted(set(%r) & set(sys.modules))))
print(" ".join(sorted(name for name in sys.modules if name.partition(".")[0] == "choicetrust")))
""" % (_NOT_ON_THE_SCORE_PATH,)


def test_importing_the_cli_loads_only_what_score_runs():
    child = subprocess.run(
        [sys.executable, "-c", _IMPORTED],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert (child.returncode, child.stderr, child.stdout) == (0, "", f"\n{_ON_THE_SCORE_PATH}\n")
