"""What ``choicetrust score`` runs below the command line: episodes, run totals, bar degrees and the report.

Four paper modules import their part of this module back and re-export it in
their ``__all__``:

- :mod:`~choicetrust.choice_model`: the episode records and :func:`validate_episode`;
- :mod:`~choicetrust.pattern_runs`: run counts and patterns, :func:`run_totals`, :func:`slot_rule`;
- :mod:`~choicetrust.rationality_outcomes`: rank classes, bar labels, closed-form frequencies and degrees;
- :mod:`~choicetrust.trust_scoring`: reviews, zones, verdicts, the binomial summary and :func:`build_report`.

Those modules keep the paper-literal reference that tests check this module
against: preference matrices, the stop/run scanner, the enumerated outcome set
and its bin table. This module imports only ``errors`` from the package, so that
``cli_io``, which imports it, loads none of that reference: a process run
without bytecode compiles every module it imports at start-up.

It also holds what every record type of the package is built on: the
:class:`Record` base, :data:`setfield`, and the field readers :func:`as_int`,
:func:`as_fraction` and :func:`as_probability`.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
import reprlib
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ChoiceTrustError, DomainError, DuplicateItemError, EmptyFinalError, NestingError, quote

# How a record's ``__init__`` sets a field; under this name, because a field
# and so an ``__init__`` parameter may be called ``object``.
setfield = object.__setattr__


def as_int(value: Any, what: str) -> int:
    """``value`` as an ``int``; a bool, or a value ``int()`` would truncate or cannot read, is a DomainError."""
    try:
        if (number := int(value)) == value and not isinstance(value, bool):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{what} must be an integer, got {quote(value)}")


# Longest text a probability may be given as, and largest power of ten its
# exponent may name. The exact binomial summary computes with p's numerator
# and denominator, so this bounds their size.
MAX_P_DIGITS = 40

_P_FORM = re.compile(r"[+-]?(?:\d+/\d*[1-9]\d*|(?:\d+\.?\d*|\.\d+)(?:[eE]([+-]?\d+))?)")

# Largest denominator of a probability given as a number: text within
# MAX_P_DIGITS has at most 76 digits of one, as has every float >= 1e-60. A
# Decimal with more places than MAX_P_PLACES is refused before it becomes a
# Fraction: without trailing zeros its denominator is over 2**320 > 10**80.
MAX_P_DENOMINATOR = 10**80
MAX_P_PLACES = 320


def as_fraction(value: Any, what: str) -> Fraction:
    """``value`` as an exact fraction of bounded size; anything else is a DomainError.

    Text is a decimal such as 0.25 or 1e-3, or a fraction such as 1/2, of at
    most :data:`MAX_P_DIGITS` characters with |exponent| <= MAX_P_DIGITS. A
    number is taken exactly, and its denominator may be at most
    :data:`MAX_P_DENOMINATOR`; a bool, None, NaN or an infinity is refused. A
    Decimal's exponent is read before any Fraction is built: it may be no
    less than -:data:`MAX_P_PLACES`, and no more than MAX_P_PLACES unless the
    Decimal is zero.
    """
    if isinstance(value, str):
        form = _P_FORM.fullmatch(value.strip()) if len(value) <= MAX_P_DIGITS else None
        if form is None or form[1] and abs(int(form[1])) > MAX_P_DIGITS:
            raise DomainError(
                f"{what} must be a decimal such as 0.25 or 1e-3, or a fraction such as 1/2, of at most "
                f"{MAX_P_DIGITS} characters with |exponent| <= {MAX_P_DIGITS}, got {reprlib.repr(value)}"
            )
        return Fraction(form[0])
    # Fraction(Decimal) first builds 10**|exponent|.
    exponent = value.as_tuple().exponent if isinstance(value, Decimal) and value.is_finite() else 0
    if exponent > MAX_P_PLACES and value:
        raise DomainError(f"{what} must have an exponent of at most {MAX_P_PLACES}, got {quote(value, reprlib.repr)}")
    deep = exponent < -MAX_P_PLACES
    try:
        fraction = None if isinstance(value, bool) else Fraction(0 if deep else value)
    except (TypeError, ValueError, OverflowError):
        fraction = None
    if fraction is None:
        raise DomainError(f"{what} must be a finite number or text such as 1/2, got {quote(value, reprlib.repr)}")
    if deep or fraction.denominator > MAX_P_DENOMINATOR:
        raise DomainError(f"{what} must have a denominator of at most 10**80, got one larger")
    return fraction


def as_probability(value: Any, what: str = "p") -> Fraction:
    """``value`` read by :func:`as_fraction`, which must be within [0, 1]; anything else is a DomainError.

    A Decimal out of range is refused before it is read.
    """
    outside = f"{what} must be within [0, 1], got {{}}"
    if isinstance(value, Decimal) and value.is_finite() and not 0 <= value <= 1:
        raise DomainError(outside.format(quote(value)))
    prob = as_fraction(value, what)
    if not 0 <= prob <= 1:
        raise DomainError(outside.format(quote(value)))
    return prob


class Record:
    """Construction, equality, hash, repr, immutability and copying over a record's fields.

    A record's fields are its ``__match_args__``; its ``__slots__`` hold only
    what it stores. A subclass's fields are its parent's, then the slots it
    adds, unless its body names its own ``__match_args__``. Where the fields
    are the slots, the base class's one constructor binds them in order,
    positionally or by keyword, with no defaults; a missing, unknown, repeated
    or extra argument is a TypeError that names the fields. A record that
    checks or coerces a field, or whose fields are not its slots, defines its
    own ``__init__`` and sets each slot once through :data:`setfield`. Two
    records are equal when they are of the same class and their fields are
    equal. A record pickles and copies as its class called with its field
    values, so the copy passes through ``__init__`` and its checks again. No
    method is generated when a record class is defined.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    # Each stored slot's setter, in slot order: calling one directly is the
    # fastest way to set a field, which matters on the scoring hot path.
    _setters: tuple[Callable[[Any, Any], None], ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        slots = cls.__dict__.get("__slots__", ())
        if "__match_args__" not in cls.__dict__:
            cls.__match_args__ += slots
        cls._setters += tuple([getattr(cls, name).__set__ for name in slots])

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict[str, Any]) -> tuple:
        """All field values in order, from arguments given partly or wholly by keyword."""
        fields = cls.__match_args__
        rest = fields[len(args):]
        if len(args) + len(kwargs) == len(fields):
            try:  # with as many arguments as fields, the keywords name exactly the rest
                return args + tuple([kwargs[name] for name in rest])
            except KeyError:
                pass
        problems = [f"{len(args) - len(fields)} extra positional argument(s)"] if len(args) > len(fields) else []
        for what, names in (
            ("given both positionally and by keyword", [name for name in fields[:len(args)] if name in kwargs]),
            ("unknown", [name for name in kwargs if name not in fields]),
            ("missing", [name for name in rest if name not in kwargs]),
        ):
            if names:
                problems.append(f"field(s) {what}: {', '.join(names)}")
        raise TypeError(f"{cls.__qualname__}({', '.join(fields)}): {'; '.join(problems)}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class ChoiceEpisode(Record):
    """One reviewer's four stage sets at one time period (not yet validated)."""

    __slots__ = ("reviewer_id", "period", "attainable", "wishlist", "cart", "final")

    def __init__(
        self,
        reviewer_id: str,
        period: int,
        attainable: tuple[str, ...],
        wishlist: tuple[str, ...],
        cart: tuple[str, ...],
        final: tuple[str, ...],
    ) -> None:
        setfield(self, "reviewer_id", reviewer_id)
        setfield(self, "attainable", tuple(attainable))
        setfield(self, "wishlist", tuple(wishlist))
        setfield(self, "cart", tuple(cart))
        setfield(self, "final", tuple(final))
        setfield(self, "period", as_int(period, "period"))
        if self.period < 1:
            raise DomainError(f"period must be a positive integer, got {quote(period, str)}")


class ValidatedEpisode(ChoiceEpisode):
    """A :class:`ChoiceEpisode` whose stage nesting is certified, with its stage ranks.

    The stage sets follow :class:`ChoiceEpisode`'s rules and must satisfy
    final <= cart <= wishlist <= attainable (adjacent stages may coincide),
    the final set must be nonempty, and no stage may repeat an id. An item's
    rank is how many stages inside the attainable one hold it: 0..3.
    ``ranks[i]`` is the stage rank of ``attainable[i]``, so no later
    derivation re-walks the stage sets. ``ranks`` may be omitted; given, it
    must equal what the stage sets give. A fault is named by :func:`_stage_walk`.

    Raises:
        DomainError: Empty attainable set, or ranks that disagree with the stage sets.
        DuplicateItemError: An id repeats within one stage.
        NestingError: An item appears in a stage but not its enclosing stage.
        EmptyFinalError: The final set is empty.
    """

    __slots__ = ("ranks",)

    def __init__(
        self,
        reviewer_id: str,
        period: int,
        attainable: tuple[str, ...],
        wishlist: tuple[str, ...],
        cart: tuple[str, ...],
        final: tuple[str, ...],
        ranks: Iterable[int] | None = None,
    ) -> None:
        super().__init__(reviewer_id, period, attainable, wishlist, cart, final)
        attainable, wishlist, cart, final = self.attainable, self.wishlist, self.cart, self.final
        # The walk's checks as set operations, in its order: the first to fail or raise leaves the walk to name it.
        if (
            attainable and len(a := set(attainable)) == len(attainable)
            and len(w := set(wishlist)) == len(wishlist) and w <= a
            and len(c := set(cart)) == len(cart) and c <= w
            and len(f := set(final)) == len(final) and f <= c and final
        ):
            walked = tuple([(o in w) + (o in c) + (o in f) for o in attainable])
        else:
            walked = _stage_walk(self)
        if ranks is not None and tuple(ranks) != walked:
            raise DomainError(
                f"need one stage rank per attainable object, {walked} by its stage sets, got {quote(tuple(ranks))}"
            )
        setfield(self, "ranks", walked)

    @property
    def n(self) -> int:
        return len(self.attainable)


def _stage_walk(episode: ChoiceEpisode) -> tuple[int, ...]:
    """Each attainable object's stage rank, by a walk of the stage sets, outermost first, that raises the first fault."""
    if not episode.attainable:
        raise DomainError("attainable set is empty")
    depth: dict[str, int] = {}
    for level, stage in enumerate(("attainable", "wishlist", "cart", "final")):
        items = getattr(episode, stage)
        if len(set(items)) < len(items):
            first: dict[str, int] = {}
            repeat = next(item for i, item in enumerate(items) if first.setdefault(item, i) != i)
            raise DuplicateItemError(f"item {quote(repeat)} occurs twice in stage {stage!r}")
        for item in items:
            # Every item of the enclosing stage, and only those, reached level - 1.
            if depth.get(item, -1) != level - 1:
                raise NestingError(stage, item)
            depth[item] = level
    if not episode.final:
        raise EmptyFinalError(f"episode (reviewer {episode.reviewer_id!r}, period {quote(episode.period)}) has an empty final set")
    return tuple(depth.values())  # in catalog order: the attainable stage came first


def validate_episode(episode: ChoiceEpisode | ValidatedEpisode) -> ValidatedEpisode:
    """Certify the stage nesting of an episode and rank its objects (see :class:`ValidatedEpisode`).

    A ``ValidatedEpisode`` is returned as it is: its constructor walked its stage sets, and it cannot change.
    """
    if isinstance(episode, ValidatedEpisode):
        return episode
    return ValidatedEpisode(
        episode.reviewer_id, episode.period, episode.attainable, episode.wishlist, episode.cart, episode.final
    )


class RunCount(Record):
    """A per-period run total: either a positive integer or the empty run.

    ``value`` is ``None`` for the empty-run symbol, which covers both "no run
    observed" and "object absent that period". Stored as an integer count;
    the unary 1-string form is display only (:meth:`unary`).
    """

    __slots__ = ("value",)

    def __init__(self, value: int | None = None) -> None:
        if value is not None:
            value = as_int(value, "run count")
            if value < 1:
                raise DomainError(f"run count must be a positive integer or empty, got {quote(value)}")
        setfield(self, "value", value)

    @property
    def is_epsilon(self) -> bool:
        return self.value is None

    @property
    def numeric(self) -> int:
        """Integer view used for ordering; the empty run compares as 0."""
        return 0 if self.value is None else self.value

    def unary(self) -> str:
        return "" if self.value is None else "1" * self.value

    def __str__(self) -> str:
        return "ε" if self.value is None else str(self.value)


EPSILON = RunCount(None)


class RunPattern(Record):
    """The paper's omega of an object: per-period run totals plus absence flags.

    Objects with the same totals share one pattern. ``absent_flags[k]``
    distinguishes "present but never preferred" from "not offered in period
    k"; both render as the empty run downstream.
    """

    __slots__ = ("slots", "absent_flags")

    def __init__(self, slots: tuple[RunCount, ...], absent_flags: tuple[bool, ...]) -> None:
        if len(slots) != len(absent_flags):
            raise DomainError("slots and absent_flags must have equal length")
        if any([slot.value is not None for slot in itertools.compress(slots, absent_flags)]):
            raise DomainError("an absent period must carry the empty run")
        setfield(self, "slots", slots)
        setfield(self, "absent_flags", absent_flags)

    def render(self) -> str:
        """Report form, e.g. ``{3,ε}``."""
        return "{" + ",".join(str(s) for s in self.slots) + "}"


def run_totals(episode: ValidatedEpisode) -> tuple[int, ...]:
    """Every object's run total in one period, catalog order, in O(n).

    Equals ``scan_runs(flatten(derive_matrix(episode)))``: a row's runs total
    its 1s, and row i has a 1 for each object ranked strictly below object i.
    So counts of the rank tuple's values (0..3) give every total, in catalog order.
    """
    ranks = episode.ranks
    below = (0, *itertools.accumulate(map(ranks.count, (0, 1, 2))))  # below[r] counts the ranks under r
    return tuple([below[rank] for rank in ranks])


def _slot(count: int | None) -> RunCount:
    return RunCount(count) if count else EPSILON


def slot_rule(counts: Sequence[int | None], slot: Callable[[int | None], RunCount] = _slot) -> RunPattern:
    """The run pattern of per-period run totals, None where the object is absent.

    A total of 0 and an absence both become the empty run; only an absence
    sets its flag. `slot` builds each slot; scoring passes a per-report memo of it.
    """
    return RunPattern(tuple(map(slot, counts)), tuple([count is None for count in counts]))


MEMBERSHIP_VARIANTS = ("minmax", "smoothed")

# Canonical bar letters of the two-period tree; differences beyond +/-3
# (catalogs larger than four) fall back to the signed difference itself.
_BAR_LETTERS = {-3: "C", -2: "B", -1: "A", 0: "D", 1: "E", 2: "F", 3: "G"}


class RankClass(str, Enum):
    REFLEXIVE = "Reflexive"
    INCREASING = "Increasing"
    DECREASING = "Decreasing"
    MIXED = "Mixed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Degree(Record):
    """A membership degree plus a flag for degenerate (all-equal) tables."""

    __slots__ = ("value", "degenerate")


def _rank_class(values: list[int]) -> RankClass:
    """The rank class of a tuple's run totals, the empty run as 0, by :func:`classify_rank`'s rule,
    read off one comparison with their order sorted each way."""
    up, down = values == sorted(values), values == sorted(values, reverse=True)
    if up == down:  # all equal, or steps both ways
        return RankClass.REFLEXIVE if up else RankClass.MIXED
    return RankClass.INCREASING if up else RankClass.DECREASING


def signed_difference(slots: Sequence[RunCount]) -> int:
    """Second-period total minus first (empty as 0); defined for t=2 only."""
    if len(slots) != 2:
        raise DomainError(f"signed difference needs exactly 2 periods, got {len(slots)}")
    return slots[1].numeric - slots[0].numeric


def bar_label(d: int) -> str:
    return _BAR_LETTERS.get(d, f"{d:+d}")


def bar_frequency(ns: Sequence[int], d: int) -> int:
    """Closed-form size of bar d of the two-period outcome set for ns=(a, b).

    Patterns {x, x+d} need 0 <= x <= a-1 and 0 <= x+d <= b-1, so the bar
    holds min(a-1, b-1-d) - max(0, -d) + 1 of them: 1 on the extreme bars
    d = 1-a and d = b-1, and min(a, b) at most. Equals
    ``bin_table(ns).by_difference(d).frequency``.
    """
    a, b = ns
    if a < 2 or b < 2:
        raise DomainError(f"need at least 2 objects per period, got {quote(tuple(ns))}")
    if not 1 - a <= d <= b - 1:
        raise DomainError(f"no bar with difference {quote(d, str)} in this table")
    return min(a - 1, b - 1 - d) - max(0, -d) + 1


def _degree(frequency: int, lo: int, hi: int, variant: str) -> Degree:
    if variant not in MEMBERSHIP_VARIANTS:
        raise DomainError(f"membership variant must be one of {MEMBERSHIP_VARIANTS}, got {quote(variant)}")
    if variant == "smoothed":
        return Degree(Fraction(frequency, hi), False)
    if hi == lo:
        return Degree(Fraction(1), True)
    return Degree(Fraction(frequency - lo, hi - lo), False)


def bar_degree(ns: Sequence[int], d: int, variant: str = "minmax") -> Degree:
    """Degree of bar d of the two-period outcome set for ns=(a, b).

    Uses the rule of :func:`membership` on :func:`bar_frequency`, whose
    minimum is 1 and maximum min(a, b), so no outcome set is enumerated.
    Equals ``membership(d, bin_table(ns), variant)``.
    """
    return _degree(bar_frequency(ns, d), 1, min(ns), variant)


D0_ZONE_CHOICES = ("rational", "irrational")

_NOTE_MINMAX_FLOOR = (
    "min-max degree is 0.00000000 on a minimum-frequency bar even though the "
    "degree scale is nominally (0,1]; the smoothed membership variant stays positive"
)
_NOTE_REFERENCE_TABLE = (
    "reference trust table lists 0.33 for this pattern; that value is not "
    "derivable from the min-max rule and is recorded here only as an annotation"
)
_NOTE_SMALL_CATALOG = "membership degree unavailable: a period offers fewer than two objects"


class Polarity(str, Enum):
    POSITIVE = "positive"
    NEUTRAL = "neutral"
    NEGATIVE = "negative"


class Zone(str, Enum):
    RATIONAL = "Rational"
    IRRATIONAL = "Irrational"
    REFLEXIVE = "Reflexive"


class NarrativeCode(str, Enum):
    """Interpretation templates attached to a matched or disputed review."""

    COMPLETE_REJECTION = "complete-rejection"
    CONTINUITY_DOWN = "continuity-maintained-down"
    CONTINUITY_UP = "continuity-maintained-up"
    SUDDEN_ADOPTION = "sudden-adoption"
    STEADY = "steady"
    WEAK_MATCH = "weak-match"
    DISPUTED = "disputed"


# Each polarity by its value: a member, being a str equal to its value, finds its own entry too.
_POLARITY = {member.value: member for member in Polarity}


class Review(Record):
    """One review record; polarity is input data, never mined from the text.

    Without a polarity, the rating gives it: 1-2 negative, 3 neutral, 4-5 positive.
    """

    __slots__ = ("reviewer_id", "object", "rating", "comment_polarity", "comment_text")

    def __init__(
        self,
        reviewer_id: str,
        object: str,
        rating: int,
        comment_polarity: Polarity | str | None = None,
        comment_text: str = "",
    ) -> None:
        setfield(self, "rating", as_int(rating, "rating"))
        if not 1 <= self.rating <= 5:
            raise DomainError(f"rating must be in 1..5, got {quote(rating, str)}")
        if comment_polarity is None:
            comment_polarity = "negative" if self.rating <= 2 else "neutral" if self.rating == 3 else "positive"
        try:
            setfield(self, "comment_polarity", _POLARITY[comment_polarity])
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise DomainError(f"{quote(comment_polarity)} is not a valid Polarity") from None
        setfield(self, "reviewer_id", reviewer_id)
        setfield(self, "object", object)
        setfield(self, "comment_text", comment_text)


def _zone_of_difference(d: int) -> Zone:
    if d > 0:
        return Zone.RATIONAL
    if d < 0:
        return Zone.IRRATIONAL
    return Zone.REFLEXIVE


def zone(slots: Sequence[RunCount]) -> Zone:
    """Zone of a two-period pattern by the sign of its run-count difference."""
    return _zone_of_difference(signed_difference(slots))


class OverallRationality(Record):
    """Binomial(n, p) of rational-zone counts, plus the realized count.

    The distribution is a function of ``(n, p)`` alone, so only those and the
    realized count are stored. :meth:`at_most`, :meth:`at_least` and the report
    renderers read the exact walk of :meth:`numerators`; the paper's one-term
    ``trust_scoring.binomial_rationality`` is its test oracle. ``n`` is an integer
    >= 0 (never a bool), ``p`` lies in [0, 1], and ``realized_r`` is None or in 0..n.
    """

    __slots__ = ("n", "p", "realized_r")

    def __init__(self, n: int, p: Fraction | float | str, realized_r: int | None = None) -> None:
        setfield(self, "n", as_int(n, "n"))
        if self.n < 0:
            raise DomainError(f"need n >= 0, got n={quote(n, str)}")
        setfield(self, "p", as_probability(p))
        if realized_r is not None:
            realized_r = as_int(realized_r, "realized_r")
            if not 0 <= realized_r <= self.n:
                raise DomainError(f"need 0 <= realized_r <= n, got realized_r={quote(realized_r)}, n={quote(n, str)}")
        setfield(self, "realized_r", realized_r)

    @classmethod
    def from_parameters(
        cls, n: int, p: Fraction | float | str, realized_r: int | None = None
    ) -> "OverallRationality":
        """Same as ``cls(n, p, realized_r)``; scoring builds the record through this
        name so that bench/tracing.py can time it as the binomial layer."""
        return cls(n, p, realized_r)

    def numerators(self) -> Iterator[tuple[int, int]]:
        """``(N_r, N_0 + ... + N_(r-1))`` for r = 0..n, each over the one denominator ``b**n`` (p = a/b).

        ``binomial_rationality(n, r, p)`` is N_r / b**n with N_r = C(n, r) a**r (b - a)**(n - r). The exact
        walk N_(r+1) = N_r (n - r) a / ((r + 1)(b - a)) holds one term and one running sum, so memory is
        O(n digits(p)) and no Fraction is built per term; at p = 1 (a = b) only N_n = b**n is nonzero.
        """
        n, a, b = self.n, self.p.numerator, self.p.denominator
        step = lambda t, r: t * ((n - r) * a) // ((r + 1) * (b - a))
        terms = [0] * n + [b**n] if a == b else itertools.accumulate(range(n), step, initial=(b - a) ** n)
        below = 0
        for term in terms:
            yield term, below
            below += term

    def at_most(self, r: int) -> Fraction:
        r = as_int(r, "r")
        term, below = next(itertools.islice(self.numerators(), min(r, self.n), None)) if r >= 0 else (0, 0)
        return Fraction(below + term, self.p.denominator**self.n)

    def at_least(self, r: int) -> Fraction:
        return 1 - self.at_most(as_int(r, "r") - 1)


# Row r of a period's matrix maps each stage rank q to "1" when r > q, else "0".
_ROW_OF_RANK = [bytes.maketrans(b"\0\1\2\3", (b"1" * r).ljust(4, b"0")) for r in range(4)]


def period_string(episode: ValidatedEpisode) -> str:
    """The period's preference matrix as a row-major 0/1 string, from its rank tuple.

    Entry (i, j) is 1 exactly when ranks[i] > ranks[j] (catalog order), and
    ranks take only the values 0..3, so the matrix has at most four distinct
    rows; each is built once, by translating the rank bytes. Equals
    ``flatten(derive_matrix(episode)).as_string()``.
    """
    ranks = bytes(episode.ranks)
    rows = [ranks.translate(table).decode() for table in _ROW_OF_RANK]
    return "".join([rows[r] for r in ranks])


def _verdicts(slots: Sequence[RunCount]) -> dict[Polarity, tuple[bool, NarrativeCode]]:
    """The verdict of :func:`match_review` for each polarity; scoring keeps one such table per run-total key."""
    z = zone(slots)
    matched, disputed = (True, _trajectory_code(slots)), (False, NarrativeCode.DISPUTED)
    return {
        Polarity.POSITIVE: disputed if z is Zone.IRRATIONAL else matched,
        Polarity.NEGATIVE: matched if z is Zone.IRRATIONAL else disputed,
        Polarity.NEUTRAL: (True, NarrativeCode.WEAK_MATCH),
    }


def _trajectory_code(slots: Sequence[RunCount]) -> NarrativeCode:
    first, second = slots
    if not first.is_epsilon and second.is_epsilon:
        return NarrativeCode.COMPLETE_REJECTION
    if first.is_epsilon and not second.is_epsilon:
        return NarrativeCode.SUDDEN_ADOPTION
    d = signed_difference(slots)
    if d < 0:
        return NarrativeCode.CONTINUITY_DOWN
    if d > 0:
        return NarrativeCode.CONTINUITY_UP
    return NarrativeCode.STEADY


class TrustAssessment(Record):
    """Everything the report says about one object of one reviewer.

    It stores its object, polarity_match, narrative and review, and ``key``: its run-total key's record, which holds
    the other seven fields. It is built, compared, hashed, written and pickled by the eleven of ``__match_args__``.
    """

    __slots__ = ("object", "key", "polarity_match", "narrative", "review")
    __match_args__ = (
        "object", "pattern", "rank_class", "bar", "zone", "degree", "polarity_match",
        "narrative", "single_period_conformant", "review", "annotations",
    )

    def __init__(self, object, pattern, rank_class, bar, zone, degree, polarity_match, narrative,
                 single_period_conformant, review, annotations) -> None:
        key = _Scored(pattern, rank_class, zone, bar, degree, annotations, None, single_period_conformant, None)
        Record.__init__(self, object, key, polarity_match, narrative, review)


for _name in ("pattern", "rank_class", "bar", "zone", "degree", "single_period_conformant", "annotations"):
    setattr(TrustAssessment, _name, property(operator.attrgetter("key." + _name)))
_set_object, _set_key, _set_match, _set_narrative, _set_review = TrustAssessment._setters


class ReviewerSection(Record):
    __slots__ = (
        "reviewer_id", "periods", "catalog", "period_patterns", "joint_pattern", "assessments", "overall",
    )


class FlaggedReview(Record):
    __slots__ = ("review", "reason")


class ReportError(Record):
    __slots__ = ("reviewer_id", "message")


class ReportParameters(Record):
    __slots__ = ("membership_variant", "d0_zone", "p")

    def __init__(
        self, membership_variant: str = "minmax", d0_zone: str = "rational", p: Fraction | float | str = Fraction(1, 2)
    ) -> None:
        if membership_variant not in MEMBERSHIP_VARIANTS:
            raise DomainError(
                f"membership variant must be one of {MEMBERSHIP_VARIANTS}, "
                f"got {quote(membership_variant)}"
            )
        if d0_zone not in D0_ZONE_CHOICES:
            raise DomainError(f"d0_zone must be one of {D0_ZONE_CHOICES}, got {quote(d0_zone)}")
        setfield(self, "membership_variant", membership_variant)
        setfield(self, "d0_zone", d0_zone)
        setfield(self, "p", as_probability(p))


class TrustReport(Record):
    __slots__ = ("parameters", "reviewers", "flagged_reviews", "errors")

    @property
    def has_errors(self) -> bool:
        return bool(self.errors) or bool(self.flagged_reviews)


def _catalog_union(episodes: Sequence[ValidatedEpisode]) -> tuple[str, ...]:
    # First-appearance order; objects joining later attach at the end so
    # earlier orderings never shift.
    seen: dict[str, None] = {}
    for ep in episodes:
        for oid in ep.attainable:
            seen.setdefault(oid, None)
    return tuple(seen)


class _Scored(NamedTuple):
    """What an assessment takes from its run totals alone, which its key's assessments share (a hand-built one its own)."""

    pattern: RunPattern
    rank_class: RankClass
    zone: Zone | None
    bar: str | None
    degree: Degree | None
    annotations: tuple[str, ...]
    counts_rational: bool
    single_period_conformant: bool | None
    verdicts: Mapping[Polarity, tuple[bool, NarrativeCode]] | None  # two periods only

    # One record per run-total key in a report: render memos key on it as itself; assessments compare their eleven fields.
    __hash__, __eq__, __ne__ = object.__hash__, object.__eq__, object.__ne__


def _score_totals(
    totals: tuple[int | None, ...], ns: tuple[int, int] | None, variant: str, d0_zone: str,
    slot: Callable[[int | None], RunCount] = _slot,
) -> _Scored:
    """Score one object's per-period run totals (None where it is absent).

    A stage rank is 0..3, so a period holds at most four distinct totals,
    and tuples repeat across objects and reviewers; :func:`build_report`
    memoizes this per report, so each is scored once per report and every
    object with that tuple shares its run pattern and its verdict on each
    review polarity. ``ns`` is the two periods' catalog sizes, None when a
    period has fewer than two objects; ``slot`` is as for :func:`slot_rule`.
    """
    pattern = slot_rule(totals, slot)
    slots = pattern.slots
    obj_zone = bar = degree = conformant = verdicts = None
    notes: tuple[str, ...] = ()
    counts_rational = False
    if len(slots) == 2:
        d = signed_difference(slots)
        obj_zone = _zone_of_difference(d)
        if ns is None:
            notes = (_NOTE_SMALL_CATALOG,)
        else:
            bar, degree = bar_label(d), bar_degree(ns, d, variant)
            if variant == "minmax" and degree.value == 0:
                notes = (_NOTE_MINMAX_FLOOR,)
                if ns == (4, 4):
                    notes += (_NOTE_REFERENCE_TABLE,)
        counts_rational = d > 0 or (d == 0 and d0_zone == "rational")
        verdicts = _verdicts(slots)
    elif len(slots) == 1:
        conformant = not slots[0].is_epsilon
    rank = _rank_class([total or 0 for total in totals])
    return _Scored(pattern, rank, obj_zone, bar, degree, notes, counts_rational, conformant, verdicts)


def _assess_reviewer(
    reviewer_id: str,
    episodes: Sequence[ValidatedEpisode],
    catalog: tuple[str, ...],
    review_for: Mapping[str, Review],
    score: Callable[..., _Scored],
    overall: Callable[..., OverallRationality],
    by_ranks: dict[tuple[int, ...], tuple[str, tuple[int, ...]]],
) -> ReviewerSection:
    periods = [by_ranks.get(ep.ranks) or by_ranks.setdefault(ep.ranks, (period_string(ep), run_totals(ep))) for ep in episodes]
    period_patterns = tuple([pattern for pattern, _ in periods])
    homogeneous = all(ep.attainable == episodes[0].attainable for ep in episodes)
    joint = "".join(period_patterns) if homogeneous and len(episodes) > 1 else None

    two_period = len(episodes) == 2
    ns = (episodes[0].n, episodes[1].n) if two_period and all(ep.n >= 2 for ep in episodes) else None

    # Each object's run totals, one per period and None where it is absent, in catalog order.
    per_object = zip(*[map(dict(zip(ep.attainable, counts)).get, catalog) for ep, (_, counts) in zip(episodes, periods)])
    assessments = []
    rational_count = 0
    for obj, totals in zip(catalog, per_object):
        scored = score(totals, ns)
        rational_count += scored.counts_rational
        review = review_for.get(obj)
        matched = narrative = None
        if two_period and review is not None:
            matched, narrative = scored.verdicts[review.comment_polarity]
        a = object.__new__(TrustAssessment)  # its stored fields set one by one: scoring binds no arguments
        _set_object(a, obj)
        _set_key(a, scored)
        _set_match(a, matched)
        _set_narrative(a, narrative)
        _set_review(a, review)
        assessments.append(a)

    return ReviewerSection(
        reviewer_id, tuple(ep.period for ep in episodes), catalog, period_patterns, joint,
        tuple(assessments), overall(len(catalog), rational_count if two_period else None),
    )


def build_report(
    episodes: Iterable[ChoiceEpisode | ValidatedEpisode],
    reviews: Iterable[Review] = (),
    *,
    membership_variant: str = "minmax",
    d0_zone: str = "rational",
    p: Fraction | float | str = Fraction(1, 2),
) -> TrustReport:
    """Run the full scoring pipeline over a batch of episodes and reviews.

    Each episode is validated once: a ``ChoiceEpisode`` here, a
    ``ValidatedEpisode`` (which ``load_episodes`` returns) by its own
    constructor. Per reviewer, in order: write every period's pattern string
    from its stage ranks, count each object's run totals from a stage-rank
    histogram (both memoized by ``ValidatedEpisode.ranks``, once per report
    for each distinct rank tuple), and score each distinct tuple of totals
    once per report (its slots, rank class, zone, bar, the bar's membership
    degree from the closed-form frequency table, and the verdict on each
    review polarity); then look up review verdicts and attach the overall-rationality record:
    the catalog size n, p and the realized rational count, from which the
    binomial distribution follows, built once per report for each distinct
    (n, count). No preference matrix or pattern vector is built.
    Record-level problems are collected and reported, never fatal for the
    rest of the batch.
    """
    params = ReportParameters(membership_variant=membership_variant, d0_zone=d0_zone, p=p)
    # One entry per distinct (totals, ns) key of this input, and one slot per distinct total, freed with the report.
    score = functools.cache(functools.partial(
        _score_totals, variant=params.membership_variant, d0_zone=params.d0_zone, slot=functools.cache(_slot)
    ))
    # One record per distinct (n, realized_r), likewise; p was checked once, above.
    overall = functools.cache(lambda n, realized_r: OverallRationality.from_parameters(n, params.p, realized_r))
    # One (pattern string, run totals) pair per distinct rank tuple, likewise.
    by_ranks: dict[tuple[int, ...], tuple[str, tuple[int, ...]]] = {}

    groups: dict[str, list[ValidatedEpisode]] = {}
    errors: list[ReportError] = []
    for episode in episodes:
        try:
            validated = validate_episode(episode)
        except ChoiceTrustError as exc:
            errors.append(ReportError(episode.reviewer_id, str(exc)))
            continue
        groups.setdefault(validated.reviewer_id, []).append(validated)

    pending: dict[tuple[str, str], Review] = {}
    flagged: list[FlaggedReview] = []
    for review in reviews:
        key = (review.reviewer_id, review.object)
        if key in pending:
            flagged.append(FlaggedReview(review, "duplicate review for this reviewer/object"))
            continue
        pending[key] = review

    sections = []
    for reviewer_id, eps in groups.items():
        eps.sort(key=lambda e: e.period)
        periods = [e.period for e in eps]
        if len(set(periods)) != len(periods):
            errors.append(ReportError(reviewer_id, f"duplicate periods {periods}"))
            continue
        catalog = _catalog_union(eps)
        review_for = {
            obj: pending.pop((reviewer_id, obj)) for obj in catalog if (reviewer_id, obj) in pending
        }
        sections.append(_assess_reviewer(reviewer_id, eps, catalog, review_for, score, overall, by_ranks))

    sectioned = {s.reviewer_id for s in sections}
    for (reviewer_id, obj), review in pending.items():
        reason = (
            "object absent from the reviewer's catalogs"
            if reviewer_id in sectioned
            else "reviewer has no validated episodes"
        )
        flagged.append(FlaggedReview(review, reason))

    return TrustReport(params, tuple(sections), tuple(flagged), tuple(errors))
