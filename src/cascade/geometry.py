"""Cone-ordered triangular arrays of symplectic root vectors.

The ambient object is an infinite horizontal strip of triangles, one triangle
for each degree -d < 0.  Odd-degree triangles point up, even-degree triangles
point down, and consecutive triangles interlock so that three consecutive
triangles tile a trapezoid with 2n+1 rows, numbered bottom up, row i holding
4n+1-i points.  Points are partially ordered by membership in the cone that
opens downward from a vertex.
"""
from __future__ import annotations

from typing import NamedTuple


class _Validated:
    """Mixin of a NamedTuple subclass that validates in __new__: _make (and
    _replace) build through __new__, and only a value of its class equals it."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


class _RankFields(NamedTuple):
    n: int
    k: int


class Rank(_Validated, _RankFields):
    """Rank n of the symplectic algebra sp_2n plus the level k (default 2).

    Construction rejects n < 1 and k < 1, so every Rank is valid.
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int = 2) -> Rank:
        if n < 1:
            raise ValueError(f"rank must be >= 1, got {n}")
        if k < 1:
            raise ValueError(f"level must be >= 1, got {k}")
        return super().__new__(cls, n, k)


class TrapezoidPoint(NamedTuple):
    """Position in the three-triangle trapezoid.

    Rows are numbered bottom up, 1 <= row <= 2n+1; row i holds columns
    1 <= col <= 4n+1-i, so the bottom row is the longest.
    """

    row: int
    col: int


class StripPoint(NamedTuple):
    """Position in the infinite strip: triangle d >= 1 with local coordinates.

    The triangle for degree -d has rows 1 <= local_row <= 2n, counted from its
    long side, and 1 <= local_col <= 2n+1-local_row.
    """

    d: int
    local_row: int
    local_col: int


class RootLabel(NamedTuple):
    """Signed index pair (a, b): +a stands for e_a and -a for -e_a.

    The label encodes the root vector of weight e_first + e_second; labels
    with first == -second are the Cartan coroots.
    """

    first: int
    second: int


def trapezoid_points(rank: Rank) -> list[TrapezoidPoint]:
    """All trapezoid points in row-major order, bottom row first."""
    n = rank.n
    return [
        TrapezoidPoint(i, j)
        for i in range(1, 2 * n + 2)
        for j in range(1, 4 * n + 2 - i)
    ]


def leq(a: TrapezoidPoint, b: TrapezoidPoint) -> bool:
    """True iff a lies in the cone below b (the partial order a <= b).

    (i, j) <= (p, r) iff i <= p and r <= j <= r + (p - i): going down from
    the vertex the cone widens by one column per row.
    """
    return a.row <= b.row and b.col <= a.col <= b.col + (b.row - a.row)


def _check_local(rank: Rank, local_row: int, local_col: int) -> None:
    """Reject a position outside a triangle: rows 1..2n, columns 1..2n+1-row."""
    if not 1 <= local_row <= 2 * rank.n:
        raise ValueError(f"local row out of range: {local_row}")
    if not 1 <= local_col <= 2 * rank.n + 1 - local_row:
        raise ValueError(f"local column out of range: {local_col}")


def strip_global(rank: Rank, p: StripPoint) -> tuple[int, int]:
    """Global (row, col) of a strip point; triangles 1..3 tile the trapezoid.

    Odd triangles d = 2t+1 sit upright, shifted right by 2nt; even triangles
    d = 2t+2 hang upside down between them.
    """
    if p.d < 1:
        raise ValueError(f"triangle index must be >= 1, got d={p.d}")
    _check_local(rank, p.local_row, p.local_col)
    n = rank.n
    t, odd = divmod(p.d - 1, 2)
    if odd == 0:
        return p.local_row, p.local_col + 2 * n * t
    return 2 * n + 2 - p.local_row, p.local_col + p.local_row - 1 + 2 * n * t


def strip_local(rank: Rank, row: int, col: int) -> StripPoint:
    """Inverse of strip_global on the trapezoid: which triangle covers (row, col)."""
    n = rank.n
    if not 1 <= row <= 2 * n + 1 or not 1 <= col <= 4 * n + 1 - row:
        raise ValueError(f"not a trapezoid point: ({row}, {col})")
    if col <= 2 * n + 1 - row:
        return StripPoint(1, row, col)
    if col <= 2 * n:
        return StripPoint(2, 2 * n + 2 - row, col - (2 * n + 1 - row))
    return StripPoint(3, row, col - 2 * n)


def degree_of(p: StripPoint) -> int:
    """The degree of a part in triangle d is -d."""
    return -p.d


def trapezoid_degree(rank: Rank, p: TrapezoidPoint) -> int:
    """Degree of a trapezoid point: -1, -2 or -3 by covering triangle."""
    return degree_of(strip_local(rank, p.row, p.col))


def root_label(rank: Rank, local_row: int, local_col: int) -> RootLabel:
    """Root-vector label of a local triangle position.

    Bottom-row labels follow the signed sequence +1, ..., +n, -n, ..., -1;
    the label of (local_row, local_col) pairs entry local_col with entry
    local_col + local_row - 1.
    """
    _check_local(rank, local_row, local_col)
    n = rank.n
    signed = list(range(1, n + 1)) + list(range(-n, 0))
    return RootLabel(signed[local_col - 1], signed[local_col + local_row - 2])
