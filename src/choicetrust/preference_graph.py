"""Per-period preference digraphs and their binary pattern vectors.

Each validated episode induces an n-by-n binary relation: entry (i, j) is 1
when object i survived to a strictly later stage than object j. The matrix
flattens row-major into a 0/1 pattern vector; several periods concatenate
into one joint vector, which is the object the run scanner works on. One
builder makes both: a matrix's own vector is the one-period joint vector.

A matrix is a tuple of n rows, each a tuple of n ints in {0, 1}; every
consumer reads those rows directly. Scoring builds none of these: it writes
a period's pattern string straight from the stage ranks
(:func:`choicetrust.trust_scoring.period_string`). The matrices,
:func:`flatten` and :func:`concat_patterns` are the paper's constructs,
kept for tests, demos and the reference pipeline that scoring is checked
against.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ._pipeline import Record, setfield
from .choice_model import ValidatedEpisode
from .errors import ShapeError

__all__ = [
    "PreferenceMatrix",
    "PatternVector",
    "derive_matrix",
    "outdegrees",
    "flatten",
    "concat_patterns",
]


def _zero_one(entries: Iterable, what: str) -> tuple[int, ...]:
    """``entries`` as ints; each must equal 0 or 1 before it is converted, so 0.9, 1.5 and "1" are refused."""
    try:
        return tuple(map((0, 1).index, entries))
    except ValueError:
        raise ShapeError(f"{what} must be 0 or 1") from None


class PreferenceMatrix(Record):
    """Binary strict-preference relation over a fixed catalog order."""

    __slots__ = ("order", "bits")

    def __init__(self, order: tuple[str, ...], bits: tuple[tuple[int, ...], ...]) -> None:
        n = len(order)
        if len(bits) != n or any(len(row) != n for row in bits):
            raise ShapeError(f"expected a {n}x{n} matrix: {n} rows of {n} entries each")
        bits = tuple(_zero_one(row, "matrix entries") for row in bits)
        if any(bits[i][i] for i in range(n)):
            raise ShapeError("matrix diagonal must be zero")
        setfield(self, "order", tuple(order))
        setfield(self, "bits", bits)

    @property
    def n(self) -> int:
        return len(self.order)


class PatternVector(Record):
    """Row-major 0/1 flattening of one or more preference matrices.

    Length is always periods * n * n; every n**2 block is one period's
    matrix. Serializes as an ASCII 0/1 string via :meth:`as_string`.
    """

    __slots__ = ("bits", "n", "periods")

    def __init__(self, bits: tuple[int, ...], n: int, periods: int) -> None:
        bits = _zero_one(bits, "pattern bits")
        if len(bits) != periods * n * n:
            raise ShapeError(
                f"pattern of length {len(bits)} does not match "
                f"{periods} period(s) of {n}x{n} matrices"
            )
        setfield(self, "bits", bits)
        setfield(self, "n", n)
        setfield(self, "periods", periods)

    def as_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __len__(self) -> int:
        return len(self.bits)


def derive_matrix(episode: ValidatedEpisode) -> PreferenceMatrix:
    """Build the period's preference matrix from the episode's rank tuple.

    Entry (i, j) is 1 exactly when ``ranks[i] > ranks[j]`` (catalog order);
    ties leave both directions 0, so the matrix stays antisymmetric.
    """
    ranks = episode.ranks
    bits = tuple(tuple(int(r_i > r_j) for r_j in ranks) for r_i in ranks)
    return PreferenceMatrix(order=episode.attainable, bits=bits)


def outdegrees(matrix: PreferenceMatrix) -> tuple[int, ...]:
    """Row sums in catalog order: how many objects each one is preferred to."""
    return tuple(sum(row) for row in matrix.bits)


def flatten(matrix: PreferenceMatrix) -> PatternVector:
    """Row-major flattening of a single matrix: its one-period joint vector."""
    return concat_patterns((matrix,))


def concat_patterns(matrices: Sequence[PreferenceMatrix]) -> PatternVector:
    """Concatenate per-period flattenings into one joint pattern vector.

    This joint form keeps every pairwise comparison of every period; it is
    the input the run scanner expects. Every matrix must share the first's
    catalog order.
    """
    if not matrices:
        raise ShapeError("need at least one matrix")
    order = matrices[0].order
    for m in matrices[1:]:
        if m.order != order:
            raise ShapeError(f"matrices disagree on catalog order: {order} vs {m.order}")
    bits = tuple(b for m in matrices for row in m.bits for b in row)
    return PatternVector(bits=bits, n=len(order), periods=len(matrices))
