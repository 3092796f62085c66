"""Colored partitions: finite multisets of array points with statistics.

A colored partition is a map from points to positive multiplicities, stored
as the sorted tuple of its points with repeats, the canonical form of the
multiset.  Its length is the number of parts counted with multiplicity and
its degree is the multiplicity-weighted sum of point degrees.  Points may
come from the trapezoid or from the strip; the degree takes a degree function.
"""
from __future__ import annotations

from collections.abc import Mapping
from itertools import combinations, combinations_with_replacement, groupby
from typing import Callable, Hashable, Iterable, Iterator, Sequence

Point = Hashable
DegreeFn = Callable[[Point], int]


class ColoredPartition:
    """Immutable multiset of points with positive multiplicities, stored once, at
    construction, as `points`: its sorted points with repeats.  Every statistic
    is derived from that tuple, and two partitions are equal iff it is."""

    __slots__ = ("points",)

    def __init__(self, parts: Mapping | Iterable[tuple[Point, int]] = ()):
        items = parts.items() if isinstance(parts, Mapping) else parts
        points: list = []
        for point, mult in items:
            if mult <= 0:
                raise ValueError(f"multiplicity must be positive, got {mult}")
            points += [point] * mult
        self.points = tuple(sorted(points))

    @classmethod
    def from_points(cls, points: Iterable[Point]) -> "ColoredPartition":
        """The partition of a sequence of points, each occurrence one part."""
        pi = cls.__new__(cls)
        pi.points = tuple(sorted(points))
        return pi

    @property
    def length(self) -> int:
        return len(self.points)

    @property
    def parts(self) -> tuple[tuple[Point, int], ...]:
        """(point, multiplicity) pairs, sorted by point: a run's length once sorted."""
        return tuple((p, len(list(run))) for p, run in groupby(self.points))

    @property
    def support(self) -> tuple[Point, ...]:
        """The distinct points, in sorted order."""
        return tuple(dict.fromkeys(self.points))

    def multiplicity(self, point: Point) -> int:
        return self.points.count(point)

    def degree(self, degree_fn: DegreeFn) -> int:
        """Multiplicity-weighted sum of part degrees; 0 for the unit partition."""
        return sum(map(degree_fn, self.points))

    def __eq__(self, other) -> bool:
        return isinstance(other, ColoredPartition) and self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __bool__(self) -> bool:
        return bool(self.points)

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}: {m}" for p, m in self.parts)
        return f"ColoredPartition({{{inner}}})"


def distinct_picks(pi: ColoredPartition, length: int) -> Iterator[tuple[Point, ...]]:
    """Each sub-multiset of pi of the given length >= 0 once, as sorted points: the
    distinct picks of pi's sorted points, reversed into ascending multiplicity vectors."""
    return reversed(dict.fromkeys(combinations(pi.points, length)))


def sub_multisets(pi: ColoredPartition, length: int) -> list[ColoredPartition]:
    """All sub-multisets of pi with the given length, each exactly once.

    One per distinct pick, in lexicographic order of multiplicity vectors over
    pi's support; their number is the coefficient of z^length in the product
    of (1 + z + ... + z^m) over the part multiplicities m.
    """
    if length < 0 or length > pi.length:
        return []
    return [ColoredPartition.from_points(pts) for pts in distinct_picks(pi, length)]


def enumerate_partitions(
    region: Sequence[Point], length: int
) -> Iterator[ColoredPartition]:
    """Every partition with support in region and the given length, exactly once.

    Yields C(|region| + length - 1, length) partitions, in lexicographic order
    of their sorted points.  The region is sorted once, so each pick is sorted
    already and is stored as it is; a sorted region keeps its sequence order.
    """
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    for points in combinations_with_replacement(sorted(region), length):
        pi = ColoredPartition.__new__(ColoredPartition)
        pi.points = points
        yield pi
