"""Per-period preference digraphs and their binary pattern vectors.

Each validated episode induces an n-by-n binary relation: entry (i, j) is 1
when object i survived to a strictly later stage than object j. The matrix
flattens row-major into a 0/1 pattern vector; several periods concatenate
into one joint vector, which is the object the run scanner works on.

Scoring reads a period's pattern string from
:meth:`PreferenceMatrix.as_string`; :func:`flatten` and
:func:`concat_patterns` build the paper's 0/1 vectors for the run scanner,
which tests use as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


@dataclass(frozen=True)
class PreferenceMatrix:
    """Binary strict-preference relation over a fixed catalog order."""

    order: tuple[str, ...]
    bits: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.bits, dtype=np.uint8).copy()
        n = len(self.order)
        if arr.shape != (n, n):
            raise ShapeError(f"expected a {n}x{n} matrix, got shape {arr.shape}")
        if not np.isin(arr, (0, 1)).all():
            raise ShapeError("matrix entries must be 0 or 1")
        if arr.trace() != 0:
            raise ShapeError("matrix diagonal must be zero")
        arr.flags.writeable = False
        object.__setattr__(self, "order", tuple(self.order))
        object.__setattr__(self, "bits", arr)

    @property
    def n(self) -> int:
        return len(self.order)

    def as_string(self) -> str:
        """Row-major 0/1 string; equals ``flatten(self).as_string()``."""
        return (self.bits + ord("0")).tobytes().decode("ascii")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PreferenceMatrix):
            return NotImplemented
        return self.order == other.order and bool(np.array_equal(self.bits, other.bits))


@dataclass(frozen=True)
class PatternVector:
    """Row-major 0/1 flattening of one or more preference matrices.

    Length is always periods * n * n; every n**2 block is one period's
    matrix. Serializes as an ASCII 0/1 string via :meth:`as_string`.
    """

    bits: tuple[int, ...]
    n: int
    periods: int

    def __post_init__(self) -> None:
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise ShapeError("pattern bits must be 0 or 1")
        if len(bits) != self.periods * self.n * self.n:
            raise ShapeError(
                f"pattern of length {len(bits)} does not match "
                f"{self.periods} period(s) of {self.n}x{self.n} matrices"
            )
        object.__setattr__(self, "bits", bits)

    def as_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __len__(self) -> int:
        return len(self.bits)


def derive_matrix(episode: ValidatedEpisode) -> PreferenceMatrix:
    """Build the period's preference matrix from stage ranks.

    Entry (i, j) is 1 exactly when i's stage rank strictly exceeds j's; ties
    leave both directions 0, so the matrix stays antisymmetric.
    """
    ranks = np.array([episode.ranks[oid] for oid in episode.attainable])
    bits = (ranks[:, None] > ranks[None, :]).astype(np.uint8)
    return PreferenceMatrix(order=episode.attainable, bits=bits)


def outdegrees(matrix: PreferenceMatrix) -> tuple[int, ...]:
    """Row sums in catalog order: how many objects each one is preferred to."""
    return tuple(int(s) for s in matrix.bits.sum(axis=1))


def flatten(matrix: PreferenceMatrix) -> PatternVector:
    """Row-major flattening of a single matrix."""
    return PatternVector(
        bits=tuple(int(b) for b in matrix.bits.reshape(-1)),
        n=matrix.n,
        periods=1,
    )


def _require_same_shape(matrices: Sequence[PreferenceMatrix]) -> None:
    if not matrices:
        raise ShapeError("need at least one matrix")
    first = matrices[0]
    for m in matrices[1:]:
        if m.order != first.order:
            raise ShapeError(
                f"matrices disagree on catalog order: {first.order} vs {m.order}"
            )


def concat_patterns(matrices: Sequence[PreferenceMatrix]) -> PatternVector:
    """Concatenate per-period flattenings into one joint pattern vector.

    This joint form keeps every pairwise comparison of every period; it is
    the input the run scanner expects.
    """
    _require_same_shape(matrices)
    bits: list[int] = []
    for m in matrices:
        bits.extend(int(b) for b in m.bits.reshape(-1))
    return PatternVector(bits=tuple(bits), n=matrices[0].n, periods=len(matrices))
