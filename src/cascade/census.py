"""Brute-force census of embedding counts.

Two oracles ground the library.  The full oracle sums N(pi) over every
length-4 multiset on the trapezoid in one process into one table, N by
support type and shape (its sorted degrees), folded into the report.  It
reaches each support from its definition, as a head and the points
completing it: a chain of one to three points, an incomparable pair, or
the pair and one point comparable to both.  Popcounts of one bitmask per
degree count them, so no support of four points is visited or classified
on its own.
The support oracle counts the supports of every type of at most k+2
points in one walk on the cone order itself: each incomparable pair
contributes the chains above it times those below it.  The cone order is
a 2-D dominance order, so each corner (a column and a row with a point)
packs the chains of every size in its quadrant into one integer: a column
pair's sweep takes one product per point for all sizes, building no set.
The same walk on the upside-down trapezoid, in dominance coordinates the
trapezoid negated and shifted by (0, 2n+2), counts each type as its
mirror: a consistency check of the walk under the reversed order, not a
second geometry.  The walks consult no closed form.
"""
from __future__ import annotations

import re
from itertools import combinations, combinations_with_replacement
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import geometry
from .geometry import Rank, TrapezoidPoint, _Validated

SAME_ROW = "|"
DIFF_ROW = "||"

_KEY_RE = re.compile(
    r"A(?P<ar>\d+)"
    r"|B(?P<br>\d+)(?P<bdelta>\|{1,2})"
    r"|C(?P<cdelta>\|{1,2})(?P<cr>\d+)"
    r"|D(?P<dr>\d+)(?P<ddelta>\|{1,2})(?P<ds>\d+)"
)


class _SupportTypeFields(NamedTuple):
    family: str
    r: int
    delta: str | None
    s: int


class SupportType(_Validated, _SupportTypeFields):
    """Classification tag of a support admitting two or more embeddings.

    A(r): a chain of r >= 2 points.  B(r, delta): a chain of r points above
    one incomparable pair.  C(delta, r): a chain of r points below the pair.
    D(r, delta, s): chains of r points above and s below.  delta is "|" when
    the pair shares a row and "||" otherwise.
    """

    __slots__ = ()

    def __new__(cls, family: str, r: int, delta: str | None = None, s: int = 0) -> SupportType:
        if family not in ("A", "B", "C", "D"):
            raise ValueError(f"unknown family: {family!r}")
        if family == "A":
            if r < 2:
                raise ValueError(f"A requires a chain of >= 2, got {r}")
            if delta is not None or s:
                raise ValueError("A carries no pair parameters")
        else:
            if delta not in (SAME_ROW, DIFF_ROW):
                raise ValueError(f"invalid row tag: {delta!r}")
            if r < 1:
                raise ValueError(f"chain size must be >= 1, got {r}")
            if family == "D":
                if s < 1:
                    raise ValueError(f"lower chain size must be >= 1, got {s}")
            elif s:
                raise ValueError(f"{family} carries no lower chain")
        return super().__new__(cls, family, r, delta, s)

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
        m = _KEY_RE.fullmatch(key)
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
    second embedding and stays unclassified.  A repeated point counts once.
    """
    pts = list(dict.fromkeys(points))
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
    return _pair_type(r, SAME_ROW if b.row == c.row else DIFF_ROW, s)


def _pair_type(r: int, delta: str, s: int) -> SupportType | None:
    """The type of an incomparable pair with r points above both and s below."""
    if r and s:
        return SupportType.d(r, delta, s)
    if r:
        return SupportType.b(r, delta)
    return SupportType.c(delta, s) if s else None


class CensusReport(NamedTuple):
    """Exact counts from the full oracle.

    n_by_type, n_by_degree and n_by_shape accumulate N(pi) by support type,
    degree and shape; total is the sum of N(pi) over every length-4 multiset
    on the trapezoid; and unclassified is the N mass landing outside the
    thirteen types; a complete classification leaves it at 0.
    """

    n_by_type: dict[SupportType, int]
    n_by_degree: dict[int, int]
    n_by_shape: dict[tuple[int, ...], int]
    total: int
    unclassified: int


def all_shapes(degrees: Iterable[int]) -> list[tuple[int, ...]]:
    """Every shape of a length-4 partition on parts of the given degrees, in
    report order; the trapezoid's degrees (-1, -2, -3) give 15.

    Lightest total degree first; within a degree, lexicographic on the
    descending-absolute reading, so "2+2+1+1" precedes "3+1+1+1".
    """
    return sorted(
        combinations_with_replacement(sorted(set(degrees)), 4),
        key=lambda sh: (-sum(sh), tuple(-d for d in sh)),
    )


def _quadrant_chains(
    columns: dict[int, list[int]], size: int, stride: int
) -> dict[tuple[int, int], int]:
    """Chains of each size 0..size in the upper quadrants of a dominance order.

    columns maps each x, ascending, to its points' ascending y; a <= b when
    x_a <= x_b and y_a <= y_b.  A corner (X, Y), a column and a row with a
    point, holds an int whose slot r (bits from r*stride) counts r-chains
    in {x >= X, y >= Y}.  Chains starting at p are p under a chain above p:
    a sweep down each column adds them, a slot up, to right[y], the
    quadrant right of it, 1 if empty.
    """
    rows = sorted({y for ys in columns.values() for y in ys}, reverse=True)
    cut = (1 << (size + 1) * stride) - 1  # drops the chains longer than size
    right = dict.fromkeys(rows, 1)
    quadrant = {}
    for x in reversed(columns):
        points = set(columns[x])
        column = 0  # chains whose lowest point is in this column, at y or above
        for y in rows:
            if y in points:
                column += (column + right[y]) << stride & cut
            quadrant[x, y] = right[y] = column + right[y]
    return quadrant


def _support_counts(
    coords: Sequence[tuple[int, int]], size: int
) -> dict[SupportType, int]:
    """Count the supports of every type of at most size points in one walk.

    A(r) is a chain of r points.  B, C and D supports are an incomparable
    pair, a chain of a points above both and of b below both (B has b = 0,
    C a = 0); the pair is unique, so each is counted once.  A pair has
    x_b < x_c and y_c < y_b: the points above both dominate (x_c, y_b),
    those below both are dominated by (x_b, y_c), and it shares a row
    exactly when y_c = x_b + y_b - x_c.  A sweep up each column pair's
    points sums the lower chains of the c points passed, O(column pairs *
    points).  Upper chains lie w bits apart and lower ones (size + 1) * w,
    so a product puts (a, b) in slot a + (size + 1) * b.  A slot counts
    distinct sets of at most 2 * size of the m points, fewer than
    C(m + 2 * size, 2 * size), and same <= total: none carries or borrows.
    An empty region has no corner and no chain.
    """
    w = comb(len(coords) + 2 * size, 2 * size).bit_length()
    slot = (1 << w) - 1
    points = set(coords)
    columns: dict[int, list[int]] = {}
    for x, y in sorted(points):
        columns.setdefault(x, []).append(y)
    up = _quadrant_chains(columns, size, w)
    chains = up[min(columns), min(y for _, y in points)] if points else 0
    counts = {SupportType.a(r): chains >> r * w & slot for r in range(2, size + 1)}
    # Chains below (X, Y) are the chains above (-X, -Y) in the negated order.
    negated = {-x: [-y for y in reversed(ys)] for x, ys in reversed(columns.items())}
    down = _quadrant_chains(negated, size - 2, (size + 1) * w)
    total = same = 0
    for (xb, bs), (xc, cs) in combinations(columns.items(), 2):
        passed = i = 0  # lower chains of the c points with y_c < y
        for y in bs:
            while i < len(cs) and cs[i] < y:
                passed += down[-xb, -cs[i]]
                i += 1
            above = up[xc, y]
            total += above * passed
            yc = xb + y - xc
            if (xc, yc) in points:
                same += above * down[-xb, -yc]
    for a in range(size - 1):
        for b in range(size - 1 - a):
            if a or b:
                shift = (a + (size + 1) * b) * w
                counts[_pair_type(a, SAME_ROW, b)] = same >> shift & slot
                counts[_pair_type(a, DIFF_ROW, b)] = (total - same) >> shift & slot
    return counts


def _coords(rank: Rank) -> list[tuple[int, int]]:
    """The trapezoid in dominance coordinates (-col, col + row)."""
    return [(-p.col, p.col + p.row) for p in geometry.trapezoid_points(rank)]


def _flipped_coords(rank: Rank) -> list[tuple[int, int]]:
    """The upside-down trapezoid (long base up): the trapezoid's coordinates
    negated and shifted by (0, 2n+2), so it counts mirror(t) as t."""
    return [(-x, 2 * rank.n + 2 - y) for x, y in _coords(rank)]


def support_counts(rank: Rank) -> dict[SupportType, int]:
    """Supports of every type of at most k+2 points in the trapezoid, by one
    walk on the order; no closed formula is consulted."""
    return _support_counts(_coords(rank), rank.k + 2)


def flipped_support_counts(rank: Rank) -> dict[SupportType, int]:
    """The same walk on the upside-down trapezoid: a consistency check of
    the walk under the reversed order, not a second geometry."""
    return _support_counts(_flipped_coords(rank), rank.k + 2)


def oracle_supports(rank: Rank, t: SupportType) -> int:
    """Supports of type t in the trapezoid; impossible types count 0."""
    return _support_counts(_coords(rank), t.size)[t]


def oracle_flipped(rank: Rank, t: SupportType) -> int:
    """Supports of type t in the upside-down trapezoid."""
    return _support_counts(_flipped_coords(rank), t.size)[t]


def _walk(
    points: Sequence[TrapezoidPoint], leq: LeqFn, degrees: Sequence[int]
) -> dict[tuple, int]:
    """N summed over every length-4 multiset on the points, by (type key or
    None when no type applies, shape: the multiset's degrees sorted).

    N(pi) = max(e - 1, 0), where e counts the length-3 sub-multisets of pi
    whose support is a chain: a chain of r points carries N = r - 1 on each
    multiset on it, and three or four points around one incomparable pair
    N = 1 on the pattern that keeps the pair simple.  Each support is a head
    and one completing point: a point i (A2) or a chain i < j (A3) or
    i < j < k (A4), completed by the later points comparable to all of it;
    an incomparable pair i < c, completed by a point x on one side of it:
    above both, below both, or comparable to both but neither (no type; only
    a non-transitive relation has it); or the pair and such an x, completed
    by the y > x comparable to all three, split alike.
    A head's completions read only its key: a chain i < j reads its later
    points comparable to both, cij, and its degrees, since each k is in cij
    and completes with cij & later[k]; a pair i < c reads both, above,
    below, its row tag and its degrees, since each x is on a side and
    completes with both & later[x].  So one pass counts the heads of each
    key, and each key's completions run once.  tally adds a mask's popcount
    on each level (degree), times the key's number of heads, under (type
    key, head degrees).  The tallies' expansion is the table's only writer:
    a chain head spreads its 4 - r repeats over all positions, so two
    points of equal degree still count twice; a pair head repeats its last
    point.  down[i], up[i] and comp[i] mask the points below, above and
    comparable to i.
    """
    pts = list(points)
    down, up = [0] * len(pts), [0] * len(pts)
    for i, a in enumerate(pts):
        for j in range(i + 1, len(pts)):
            if leq(a, pts[j]):
                down[j] |= 1 << i
                up[i] |= 1 << j
            elif leq(pts[j], a):
                down[i] |= 1 << j
                up[j] |= 1 << i
    comp = [d | u for d, u in zip(down, up)]
    later = [c & -(2 << i) for i, c in enumerate(comp)]  # comparable and after i
    full = (1 << len(pts)) - 1
    levels: dict[int, int] = {}  # degree -> mask of the points of that degree
    for x, d in enumerate(degrees):
        levels[d] = levels.get(d, 0) | 1 << x
    level_masks = list(levels.values())
    tallies: dict[tuple, list[int]] = {}  # (key, head degrees) -> counts by level
    pair_key = {  # (points above the pair, row tag, points below) -> key
        (r, delta, s): _pair_type(r, delta, s).key()
        for r in range(3) for s in range(3 - r) if r or s for delta in (SAME_ROW, DIFF_ROW)
    }

    def tally(head, mask, times=1):
        counts = tallies.setdefault(head, [0] * len(level_masks))
        for li, level in enumerate(level_masks):
            counts[li] += (mask & level).bit_count() * times

    chains: dict[tuple, int] = {}  # (cij, di, dj) -> chain heads i < j
    pairs: dict[tuple, int] = {}  # (both, above, below, row tag, di, dc) -> pairs i < c
    for i in range(len(comp)):
        ci, di = comp[i], degrees[i]
        if later[i]:
            tally(("A2", (di,)), later[i])
        for j in _indices(later[i]):
            key = (ci & later[j], di, degrees[j])
            chains[key] = chains.get(key, 0) + 1
        for c in _indices(~ci & full & -(2 << i)):
            delta = SAME_ROW if pts[i].row == pts[c].row else DIFF_ROW
            key = (ci & comp[c], up[i] & up[c], down[i] & down[c], delta, di, degrees[c])
            pairs[key] = pairs.get(key, 0) + 1
    for (cij, di, dj), times in chains.items():
        if cij:
            tally(("A3", (di, dj)), cij, times)
        for k in _indices(cij):
            mask = cij & later[k]
            if mask:
                tally(("A4", (di, dj, degrees[k])), mask, times)
    for (both, above, below, delta, di, dc), times in pairs.items():
        for r, s, side in ((1, 0, above), (0, 1, below), (0, 0, both ^ above ^ below)):
            tag = pair_key.get((r, delta, s))
            if side:
                tally((tag, (di, dc)), side, times)
            for x in _indices(side):
                head, rest = (di, dc, degrees[x]), both & later[x]
                if tag:
                    if rest & above:
                        tally((pair_key[r + 1, delta, s], head), rest & above, times)
                    if rest & below:
                        tally((pair_key[r, delta, s + 1], head), rest & below, times)
                    rest &= ~(above | below)
                if rest:
                    tally((None, head), rest, times)
    table: dict[tuple, int] = {}  # (type key or None, shape) -> N
    for (tag, head), counts in tallies.items():
        chain = tag in TYPE_KEYS[:3]
        n_pi = len(head) if chain else 1  # r - 1 on a chain of r
        for d, count in zip(levels, counts):
            if count:
                degs = (*head, d)
                pool = degs if chain else (d,)  # a pair head repeats its last point
                for extra in combinations_with_replacement(pool, 4 - len(degs)):
                    key = (tag, tuple(sorted((*degs, *extra))))
                    table[key] = table.get(key, 0) + n_pi * count
    return table


def _fold(table: dict[tuple, int], degrees: Iterable[int]) -> CensusReport:
    """The report of a walk's (type, shape) table: mass by type (None is
    unclassified), by shape on the given degrees and by total degree."""
    by_tag = dict.fromkeys((*TYPE_KEYS, None), 0)
    by_shape = dict.fromkeys(all_shapes(degrees), 0)
    for (tag, shape), n_pi in table.items():
        by_shape[shape] += n_pi
        by_tag[tag] += n_pi
    unclassified = by_tag.pop(None)
    by_type = {t: by_tag[t.key()] for t in all_types()}
    by_degree: dict[int, int] = {}
    for shape, v in by_shape.items():
        by_degree[sum(shape)] = by_degree.get(sum(shape), 0) + v
    return CensusReport(
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

    One process walks the heads of the supports, grouped by the masks their
    completions read: at n=4, where the trapezoid has about 6.0 million
    length-4 multisets, 1 542 chains of two points in 142 keys and 4 236
    incomparable pairs in 1 242, and counts the points completing each key
    by popcounts.  The keys grow more slowly than the heads, but the work
    still grows with n, so the command line runs it only up to its
    --oracle-cap; any valid rank is accepted here, and only the time grows.
    """
    if rank.k != 2:
        raise ValueError(f"the full oracle walks length-4 multisets; needs k=2, got k={rank.k}")
    points = geometry.trapezoid_points(rank)
    degrees = [geometry.trapezoid_degree(rank, p) for p in points]
    return _fold(_walk(points, geometry.leq, degrees), degrees)
