"""Brute-force census of embedding counts.

Two oracles ground the library.  The full oracle sums N(pi) over every
length-4 multiset on the trapezoid in one process and buckets it by support
type, degree and shape.  It walks strictly increasing supports with the
largest index of each taken from a bitmask of the points that keep N > 0,
computes N from the comparabilities of the support alone and classifies
each support it finds.  The support oracle counts the supports of a
single type on the cone order itself: each incomparable pair with the right
row tag contributes the number of chains above it times the number below
it.  The cone order is a 2-D dominance order, so chains are counted in
quadrants of a grid by suffix sums, no candidate is built and it scales to
much larger ranks.  A third walk repeats the support count on the
upside-down trapezoid, so the up-down symmetry of the counts can be checked
on two genuinely different geometries.  The walks consult no closed form;
only n_by_type_from_supports multiplies a walked support count by the
per-support coefficient from closed_forms.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement
from typing import Callable, Iterable, Iterator, Sequence

from . import geometry
from .geometry import Rank, TrapezoidPoint

SAME_ROW = "|"
DIFF_ROW = "||"

_KEY_RE = re.compile(
    r"^(?:A(?P<ar>\d+)"
    r"|B(?P<br>\d+)(?P<bdelta>\|{1,2})"
    r"|C(?P<cdelta>\|{1,2})(?P<cr>\d+)"
    r"|D(?P<dr>\d+)(?P<ddelta>\|{1,2})(?P<ds>\d+))$"
)


@dataclass(frozen=True)
class SupportType:
    """Classification tag of a support admitting two or more embeddings.

    A(r): a chain of r >= 2 points.  B(r, delta): a chain of r points above
    one incomparable pair.  C(delta, r): a chain of r points below the pair.
    D(r, delta, s): chains of r points above and s below.  delta is "|" when
    the pair shares a row and "||" otherwise.
    """

    family: str
    r: int
    delta: str | None = None
    s: int = 0

    def __post_init__(self):
        if self.family not in ("A", "B", "C", "D"):
            raise ValueError(f"unknown family: {self.family!r}")
        if self.family == "A":
            if self.r < 2:
                raise ValueError(f"A requires a chain of >= 2, got {self.r}")
            if self.delta is not None or self.s:
                raise ValueError("A carries no pair parameters")
        else:
            if self.delta not in (SAME_ROW, DIFF_ROW):
                raise ValueError(f"invalid row tag: {self.delta!r}")
            if self.r < 1:
                raise ValueError(f"chain size must be >= 1, got {self.r}")
            if self.family == "D":
                if self.s < 1:
                    raise ValueError(f"lower chain size must be >= 1, got {self.s}")
            elif self.s:
                raise ValueError(f"{self.family} carries no lower chain")

    @staticmethod
    def a(r: int) -> "SupportType":
        return SupportType("A", r)

    @staticmethod
    def b(r: int, delta: str) -> "SupportType":
        return SupportType("B", r, delta)

    @staticmethod
    def c(delta: str, r: int) -> "SupportType":
        return SupportType("C", r, delta)

    @staticmethod
    def d(r: int, delta: str, s: int) -> "SupportType":
        return SupportType("D", r, delta, s)

    @classmethod
    def from_key(cls, key: str) -> "SupportType":
        m = _KEY_RE.match(key)
        if m is None:
            raise ValueError(f"not a support-type key: {key!r}")
        g = m.groupdict()
        if g["ar"] is not None:
            return cls.a(int(g["ar"]))
        if g["br"] is not None:
            return cls.b(int(g["br"]), g["bdelta"])
        if g["cr"] is not None:
            return cls.c(g["cdelta"], int(g["cr"]))
        return cls.d(int(g["dr"]), g["ddelta"], int(g["ds"]))

    @property
    def size(self) -> int:
        """Number of points in a support of this type."""
        if self.family == "A":
            return self.r
        return self.r + self.s + 2

    def key(self) -> str:
        if self.family == "A":
            return f"A{self.r}"
        if self.family == "B":
            return f"B{self.r}{self.delta}"
        if self.family == "C":
            return f"C{self.delta}{self.r}"
        return f"D{self.r}{self.delta}{self.s}"

    def __str__(self) -> str:
        return self.key()


# The thirteen types a length-4 partition can land on, in report order.
TYPE_KEYS: tuple[str, ...] = (
    "A2", "A3", "A4",
    "B1|", "B2|", "B1||", "B2||",
    "C|1", "C|2", "C||1", "C||2",
    "D1|1", "D1||1",
)


def all_types() -> tuple[SupportType, ...]:
    """The thirteen support types of length-4 partitions, in report order."""
    return tuple(SupportType.from_key(k) for k in TYPE_KEYS)


def mirror(t: SupportType) -> SupportType:
    """The type a support maps to under the up-down flip of the trapezoid."""
    if t.family == "A":
        return t
    if t.family == "B":
        return SupportType.c(t.delta, t.r)
    if t.family == "C":
        return SupportType.b(t.r, t.delta)
    return SupportType.d(t.s, t.delta, t.r)


LeqFn = Callable[[TrapezoidPoint, TrapezoidPoint], bool]


def classify_support(
    points: Iterable[TrapezoidPoint], leq: LeqFn = geometry.leq
) -> SupportType | None:
    """Classify a support set, or return None when no type applies.

    A chain of r >= 2 is A(r).  A set with exactly one incomparable pair
    splits the remaining points into those above both and those below both
    (each is then automatically a chain), giving B, C or D.  Anything else,
    including a bare pair and sets with two incomparable pairs, carries no
    second embedding and stays unclassified.
    """
    pts = list(points)
    pair = None
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            if not (leq(a, b) or leq(b, a)):
                if pair is not None:
                    return None
                pair = (a, b)
    if pair is None:
        return SupportType.a(len(pts)) if len(pts) >= 2 else None
    b, c = pair
    r = s = 0
    for x in pts:
        if x is b or x is c:
            continue
        if leq(b, x) and leq(c, x):
            r += 1
        elif leq(x, b) and leq(x, c):
            s += 1
        else:
            return None
    delta = SAME_ROW if b.row == c.row else DIFF_ROW
    if r and s:
        return SupportType.d(r, delta, s)
    if r:
        return SupportType.b(r, delta)
    if s:
        return SupportType.c(delta, s)
    return None


@dataclass
class CensusReport:
    """Exact counts from the full oracle.

    sigma counts the supports of each type; n_by_type, n_by_degree and
    n_by_shape accumulate N(pi) by support type, degree and shape; total is
    the sum of N(pi) over every length-4 multiset on the trapezoid; and
    unclassified is the N mass landing outside the thirteen types; a
    complete classification leaves it at 0.
    """

    rank: Rank
    sigma: dict[SupportType, int]
    n_by_type: dict[SupportType, int]
    n_by_degree: dict[int, int]
    n_by_shape: dict[tuple[int, ...], int]
    total: int
    unclassified: int


def all_shapes() -> list[tuple[int, ...]]:
    """The 15 possible shapes of a length-4 partition, in report order.

    Lightest total degree first; within a degree, lexicographic on the
    descending-absolute reading, so "2+2+1+1" precedes "3+1+1+1".
    """
    return sorted(
        combinations_with_replacement((-3, -2, -1), 4),
        key=lambda sh: (-sum(sh), tuple(-d for d in sh)),
    )


class _Region:
    """Index tables for a finite cone-ordered point set.

    down[i] is the bitmask of the points strictly below point i in the
    order and comp[i] the bitmask of the points comparable with it.
    """

    __slots__ = ("points", "rows", "degrees", "down", "comp")

    def __init__(
        self,
        points: Sequence[TrapezoidPoint],
        leq: LeqFn,
        degree_fn: Callable[[TrapezoidPoint], int],
    ):
        pts = list(points)
        m = len(pts)
        self.points = pts
        self.rows = [p.row for p in pts]
        self.degrees = [degree_fn(p) for p in pts]
        down = [0] * m
        up = [0] * m
        for i, a in enumerate(pts):
            for j in range(i + 1, m):
                b = pts[j]
                if leq(a, b):
                    down[j] |= 1 << i
                    up[i] |= 1 << j
                elif leq(b, a):
                    down[i] |= 1 << j
                    up[j] |= 1 << i
        self.down = down
        self.comp = [d | u for d, u in zip(down, up)]

    def classify(self, ids: Sequence[int]) -> SupportType | None:
        """Bitmask twin of classify_support, on point indices."""
        comp = self.comp
        npairs = 0
        bi = ci = -1
        size = len(ids)
        for x in range(size):
            ix = ids[x]
            cx = comp[ix]
            for y in range(x + 1, size):
                iy = ids[y]
                if not (cx >> iy) & 1:
                    npairs += 1
                    if npairs == 2:
                        return None
                    bi, ci = ix, iy
        if npairs == 0:
            return _intern("A", size, None, 0) if size >= 2 else None
        down = self.down
        db, dc = down[bi], down[ci]
        r = s = 0
        for ix in ids:
            if ix == bi or ix == ci:
                continue
            dx = down[ix]
            if (dx >> bi) & 1 and (dx >> ci) & 1:
                r += 1
            elif (db >> ix) & 1 and (dc >> ix) & 1:
                s += 1
            else:
                return None
        rows = self.rows
        delta = SAME_ROW if rows[bi] == rows[ci] else DIFF_ROW
        if r and s:
            return _intern("D", r, delta, s)
        if r:
            return _intern("B", r, delta, 0)
        if s:
            return _intern("C", s, delta, 0)
        return None


# One shared instance per (family, r, delta, s) for the census hot path.
_intern = cache(SupportType)


def _flipped_leq(a: TrapezoidPoint, b: TrapezoidPoint) -> bool:
    # On the upside-down trapezoid cones open down and to the left.
    return a.row <= b.row and b.col - (b.row - a.row) <= a.col <= b.col


def _flipped_points(n: int) -> list[TrapezoidPoint]:
    """The upside-down trapezoid: row i holds columns 1 .. 2n+i-1."""
    return [
        TrapezoidPoint(i, j) for i in range(1, 2 * n + 2) for j in range(1, 2 * n + i)
    ]


@cache
def _region(n: int) -> _Region:
    """The index tables of the rank-n trapezoid, built once per process."""
    rank = Rank(n)
    return _Region(
        geometry.trapezoid_points(rank),
        geometry.leq,
        lambda p: geometry.trapezoid_degree(rank, p),
    )


def _quadrant_chains(
    coords: Sequence[tuple[int, int]], size: int
) -> dict[tuple[int, int], int]:
    """Chains of the given size in every upper quadrant of a dominance order.

    The points are distinct (x, y) pairs ordered by a <= b exactly when
    x_a <= x_b and y_a <= y_b.  The result maps every corner (X, Y) of the
    bounding grid to the number of chains inside {x >= X, y >= Y}.  A chain
    lies there exactly when its lowest point does, so each step counts the
    chains one point longer by their lowest point p: the chains in p's
    quadrant that do not already start at p.  2-D suffix sums of those
    counts give the next quadrant table.
    """
    xs = range(min(x for x, _ in coords), max(x for x, _ in coords) + 1)
    ys = range(min(y for _, y in coords), max(y for _, y in coords) + 1)
    quadrant = {(x, y): 1 for x in xs for y in ys}  # the empty chain
    ends = dict.fromkeys(coords, 0)
    for _ in range(size):
        ends = {p: quadrant[p] - ends[p] for p in coords}
        quadrant = {}
        for x in reversed(xs):
            column = 0
            for y in reversed(ys):
                column += ends.get((x, y), 0)
                quadrant[x, y] = column + quadrant.get((x + 1, y), 0)
    return quadrant


def _count_supports(coords: Sequence[tuple[int, int]], t: SupportType) -> int:
    """Count the supports of type t among points of a dominance order.

    A(r) is a chain of r points.  A B, C or D support is one incomparable
    pair with the row tag of t, a chain of t's upper size above both and a
    chain of its lower size below both (B has an empty lower chain, C an
    empty upper one); transitivity makes every such set a support of type
    t, and its incomparable pair is unique, so each support is counted
    once.  An incomparable pair has x_b < x_c and y_c < y_b; the points
    above both dominate the corner (x_c, y_b) and the points below both
    are dominated by (x_b, y_c).  For each column pair a sweep up the y
    axis sums the lower chains of the c points passed, so the work is
    O(columns^2 * rows).  Since x + y is the row, the pair shares a row
    exactly when y_c = x_b + y_b - x_c.
    """
    lowest = (min(x for x, _ in coords), min(y for _, y in coords))
    if t.family == "A":
        return _quadrant_chains(coords, t.r)[lowest]
    above = t.r if t.family in ("B", "D") else 0
    below = t.s if t.family == "D" else (t.r if t.family == "C" else 0)
    up = _quadrant_chains(coords, above)
    # Chains below (X, Y) are the chains above (-X, -Y) in the negated order.
    down = _quadrant_chains([(-x, -y) for x, y in coords], below)
    points = set(coords)
    xs = sorted({x for x, _ in coords})
    ys = range(lowest[1], max(y for _, y in coords) + 1)
    total = same = 0
    for i, xb in enumerate(xs):
        for xc in xs[i + 1 :]:
            passed = 0  # lower chains of the c points with y_c < y
            for y in ys:
                if (xb, y) in points:
                    total += up[xc, y] * passed
                    yc = xb + y - xc
                    if (xc, yc) in points:
                        same += up[xc, y] * down[-xb, -yc]
                if (xc, y) in points:
                    passed += down[-xb, -y]
    return same if t.delta == SAME_ROW else total - same


def oracle_supports(rank: Rank, t: SupportType) -> int:
    """Count supports of type t in the trapezoid by a walk on the order.

    The cone order is the dominance order of (-col, col + row), so chains
    above and below each incomparable pair are read off quadrant tables of
    chain counts, without consulting any closed formula.  Structurally
    impossible types simply count 0.
    """
    points = geometry.trapezoid_points(rank)
    return _count_supports([(-p.col, p.col + p.row) for p in points], t)


def oracle_flipped(rank: Rank, t: SupportType) -> int:
    """Same walk on the upside-down trapezoid (long base up), whose order is
    the dominance order of (col, row - col)."""
    points = _flipped_points(rank.n)
    return _count_supports([(p.col, p.row - p.col) for p in points], t)


def n_by_type_from_supports(rank: Rank, t: SupportType) -> int:
    """N contributed by all supports of type t: support count times the
    per-support embedding coefficient."""
    from .closed_forms import embeddings_per_support

    return embeddings_per_support(rank.k, t) * oracle_supports(rank, t)


def _census(rank: Rank, region: _Region) -> CensusReport:
    """Sum N over every length-4 multiset on the region, bucketed.

    N(pi) = max(e - 1, 0), where e counts the length-3 sub-multisets of pi
    whose support is a chain, so it follows from the multiplicity pattern and
    the pairwise comparabilities of the support alone.  Supports are walked
    as strictly increasing index tuples.  e >= 2 needs a comparable pair
    (size 2), at least two comparable pairs of three (size 3) or five of six
    (size 4), so for fixed smaller indices the largest index runs over a
    bitmask of comp masks and the tail of indices above the one before it;
    every support left out has N = 0 on all its multisets.  Each support
    found is classified once, and its N mass goes to its type, or to
    unclassified when no type applies.  A fourth power embeds one leading
    term, so supports of one point are never visited either.
    """
    comp, degrees, classify = region.comp, region.degrees, region.classify
    by_shape: dict[tuple[int, ...], int] = {s: 0 for s in all_shapes()}
    # [N mass, supports] per type; classify returns interned types, and None
    # collects the mass outside every type.
    by_tag: dict[SupportType | None, list[int]] = {}

    def record(support: tuple[int, ...], multisets: tuple) -> None:
        # multisets: (e - 1, point indices with multiplicity) per pattern.
        mass = 0
        for n_pi, ids in multisets:
            if n_pi > 0:
                mass += n_pi
                by_shape[tuple(sorted([degrees[x] for x in ids]))] += n_pi
        tag = classify(support)
        acc = by_tag.get(tag)
        if acc is None:
            by_tag[tag] = [mass, 1]
        else:
            acc[0] += mass
            acc[1] += 1

    for i in range(len(comp)):
        ci = comp[i]
        # A comparable pair: each of its three patterns has e = 2, so N = 1.
        for l in _indices(ci & -(2 << i)):
            record((i, l), ((1, (i, i, i, l)), (1, (i, i, l, l)), (1, (i, l, l, l))))
        for j in range(i + 1, len(comp)):
            cj = comp[j]
            cij = (ci >> j) & 1
            # At most one of the pairs ij, ik, jk may be incomparable.
            for k in _indices((ci | cj if cij else ci & cj) & -(2 << j)):
                ck = comp[k]
                cik, cjk = (ci >> k) & 1, (cj >> k) & 1
                cijk = cij & cik & cjk
                record((i, j, k), (
                    (cij + cik + cijk - 1, (i, i, j, k)),
                    (cij + cjk + cijk - 1, (i, j, j, k)),
                    (cik + cjk + cijk - 1, (i, j, k, k)),
                ))
                # At most one of the six pairs may be incomparable.
                tail = (ci & cj | ci & ck | cj & ck) if cijk else ci & cj & ck
                for l in _indices(tail & -(2 << k)):
                    cil, cjl, ckl = (ci >> l) & 1, (cj >> l) & 1, (ck >> l) & 1
                    e = cijk + (cij & cil & cjl) + (cik & cil & ckl) + (cjk & cjl & ckl)
                    record((i, j, k, l), ((e - 1, (i, j, k, l)),))
    unclassified = by_tag.pop(None, [0, 0])[0]
    by_type = {t: 0 for t in all_types()}
    sigma = {t: 0 for t in all_types()}
    for tag, (mass, supports) in by_tag.items():
        by_type[tag] = by_type.get(tag, 0) + mass
        sigma[tag] = sigma.get(tag, 0) + supports
    by_degree = {d: 0 for d in range(-4, -13, -1)}
    for shape, v in by_shape.items():
        by_degree[sum(shape)] += v
    return CensusReport(
        rank=rank,
        sigma=sigma,
        n_by_type=by_type,
        n_by_degree=by_degree,
        n_by_shape=by_shape,
        total=unclassified + sum(by_type.values()),
        unclassified=unclassified,
    )


def _indices(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def oracle_full(rank: Rank) -> CensusReport:
    """Exhaustive census of N(pi) over every length-4 multiset on the trapezoid.

    One process walks the strictly increasing supports, the largest index
    of each taken from a bitmask, and visits only the supports that carry
    N > 0: 133 608 at n=4, where the trapezoid has about 6.0 million
    length-4 multisets.  That number still grows like n^8, so the command
    line runs it only up to its --oracle-cap; any valid rank is accepted
    here, and only the time grows.
    """
    if rank.k != 2:
        raise ValueError(f"the full oracle walks length-4 multisets; needs k=2, got k={rank.k}")
    return _census(rank, _region(rank.n))
