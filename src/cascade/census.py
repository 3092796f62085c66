"""Brute-force census of embedding counts, independent of every closed form.

Two oracles ground the library.  The full oracle walks every length-4
multiset over the trapezoid, computes N(pi) from scratch and buckets it by
support type, degree and shape.  The support oracle counts the supports of a
single type on the cone order itself: each incomparable pair with the right
row tag contributes the number of chains above it times the number below
it, and chains are counted by a memoised recursion over the order, so no
candidate is built and it scales to much larger ranks.  A third walk
repeats the support count on the upside-down trapezoid, so the up-down
symmetry of the counts can be checked on two genuinely different
geometries.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, Iterable, Sequence

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
    """The 15 possible shapes of a length-4 partition on the trapezoid."""
    return sorted(
        set(combinations_with_replacement((-3, -2, -1), 4))
    )


class _Region:
    """Index tables for a finite cone-ordered point set.

    down[i] and up[i] are bitmasks of the points strictly below and strictly
    above point i in the order; comp[i] is their union.
    """

    __slots__ = ("points", "rows", "degrees", "down", "up", "comp")

    def __init__(
        self,
        points: Sequence[TrapezoidPoint],
        leq: LeqFn,
        degree_fn: Callable[[TrapezoidPoint], int] | None = None,
    ):
        pts = list(points)
        m = len(pts)
        self.points = pts
        self.rows = [p.row for p in pts]
        self.degrees = [degree_fn(p) for p in pts] if degree_fn else None
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
        self.up = up
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


_INTERNED: dict[tuple, SupportType] = {}


def _intern(family: str, r: int, delta: str | None, s: int) -> SupportType:
    key = (family, r, delta, s)
    t = _INTERNED.get(key)
    if t is None:
        t = _INTERNED.setdefault(key, SupportType(family, r, delta, s))
    return t


def _canonical(t: SupportType) -> SupportType:
    return _intern(t.family, t.r, t.delta, t.s)


_REGIONS: dict[tuple[int, bool], _Region] = {}


def _flipped_leq(a: TrapezoidPoint, b: TrapezoidPoint) -> bool:
    # On the upside-down trapezoid cones open down and to the left.
    return a.row <= b.row and b.col - (b.row - a.row) <= a.col <= b.col


def _region(rank: Rank, flipped: bool) -> _Region:
    key = (rank.n, flipped)
    cached = _REGIONS.get(key)
    if cached is not None:
        return cached
    n = rank.n
    if flipped:
        points = [
            TrapezoidPoint(i, j)
            for i in range(1, 2 * n + 2)
            for j in range(1, 2 * n + i)
        ]
        region = _Region(points, _flipped_leq)
    else:
        region = _Region(
            geometry.trapezoid_points(rank),
            geometry.leq,
            lambda p: geometry.trapezoid_degree(rank, p),
        )
    return _REGIONS.setdefault(key, region)


def _chains(region: _Region, mask: int, size: int, memo: dict) -> int:
    """Number of chains of the given size inside the masked point set.

    Every chain is counted once, from its top point i, so
    chains(mask, r) = sum over i in mask of chains(down[i] & mask, r - 1):
    chain counting in the incidence algebra of the order.  Results for
    size >= 2 are memoised on (mask, size) in the caller's memo.
    """
    if size == 0:
        return 1
    if size == 1:
        return mask.bit_count()
    key = (mask, size)
    count = memo.get(key)
    if count is None:
        down = region.down
        count = 0
        m = mask
        while m:
            low = m & -m
            m ^= low
            count += _chains(region, down[low.bit_length() - 1] & mask, size - 1, memo)
        memo[key] = count
    return count


def _count_supports(region: _Region, t: SupportType) -> int:
    """Count the supports of type t in the region as sets.

    A(r) is a chain of r points.  A B, C or D support is one incomparable
    pair b < c with the row tag of t, a chain of t's upper size inside the
    common up-set of b and c and a chain of its lower size inside their
    common down-set; transitivity makes every such set a support of type t,
    and its incomparable pair is unique, so each support is counted once.
    """
    memo: dict[tuple[int, int], int] = {}
    m = len(region.points)
    if t.family == "A":
        return _chains(region, (1 << m) - 1, t.r, memo)
    above = t.r if t.family in ("B", "D") else 0
    below = t.s if t.family == "D" else (t.r if t.family == "C" else 0)
    same = t.delta == SAME_ROW
    comp, up, down, rows = region.comp, region.up, region.down, region.rows
    row_masks: dict[int, int] = {}
    for i, row in enumerate(rows):
        row_masks[row] = row_masks.get(row, 0) | (1 << i)
    count = 0
    for b in range(m):
        row_mask = row_masks[rows[b]]
        partners = ~comp[b] & ((1 << m) - (2 << b))  # incomparable, index > b
        partners &= row_mask if same else ~row_mask
        ub, db = up[b], down[b]
        while partners:
            low = partners & -partners
            partners ^= low
            c = low.bit_length() - 1
            count += _chains(region, ub & up[c], above, memo) * _chains(
                region, db & down[c], below, memo
            )
    return count


def oracle_supports(rank: Rank, t: SupportType) -> int:
    """Count supports of type t in the trapezoid by a walk on the order.

    Supports are counted by a memoised chain-count recursion over the cone
    order (incomparable pair first, chains above and below it), without
    consulting any closed formula.  Structurally impossible types simply
    count 0.
    """
    rank.validate()
    return _count_supports(_region(rank, False), t)


def oracle_flipped(rank: Rank, t: SupportType) -> int:
    """Same chain-count walk on the upside-down trapezoid (long base up)."""
    rank.validate()
    return _count_supports(_region(rank, True), t)


def n_by_type_from_supports(rank: Rank, t: SupportType) -> int:
    """N contributed by all supports of type t: support count times the
    per-support embedding coefficient."""
    from .closed_forms import embeddings_per_support

    return embeddings_per_support(rank.k, t) * oracle_supports(rank, t)


def _o1_accumulate(region: _Region, firsts: Iterable[int]) -> tuple:
    """Walk all length-4 multisets whose smallest point index is in firsts.

    N(pi) follows from the multiplicity pattern and the pairwise
    comparabilities of the support: each length-3 sub-multiset is a leading
    term iff its support is a chain.
    """
    comp = region.comp
    degrees = region.degrees
    classify = region.classify
    m = len(region.points)
    total = 0
    unclassified = 0
    by_type: dict[SupportType, int] = {}
    by_degree: dict[int, int] = {}
    by_shape: dict[tuple[int, ...], int] = {}
    sigma: dict[SupportType, int] = {}
    memo: dict[tuple[int, ...], SupportType | None] = {}
    for i in firsts:
        for j, k, l in combinations_with_replacement(range(i, m), 3):
            if i == l:
                continue  # a fourth power embeds exactly one leading term
            if i == k:  # i = j = k < l
                n_pi = (comp[i] >> l) & 1
                support = (i, l)
            elif j == l:  # i < j = k = l
                n_pi = (comp[i] >> j) & 1
                support = (i, j)
            elif i == j:
                if k == l:  # two doubled points
                    n_pi = (comp[i] >> k) & 1
                    support = (i, k)
                else:  # doubled i, simple k, l
                    c1 = (comp[i] >> k) & 1
                    c2 = (comp[i] >> l) & 1
                    e = c1 + c2 + (c1 & c2 & (comp[k] >> l) & 1)
                    n_pi = e - 1 if e > 1 else 0
                    support = (i, k, l)
            elif j == k:  # doubled j, simple i, l
                c1 = (comp[j] >> i) & 1
                c2 = (comp[j] >> l) & 1
                e = c1 + c2 + (c1 & c2 & (comp[i] >> l) & 1)
                n_pi = e - 1 if e > 1 else 0
                support = (i, j, l)
            elif k == l:  # doubled k, simple i, j
                c1 = (comp[k] >> i) & 1
                c2 = (comp[k] >> j) & 1
                e = c1 + c2 + (c1 & c2 & (comp[i] >> j) & 1)
                n_pi = e - 1 if e > 1 else 0
                support = (i, j, k)
            else:  # four distinct points: one triple per omitted point
                cij = (comp[i] >> j) & 1
                cik = (comp[i] >> k) & 1
                cil = (comp[i] >> l) & 1
                cjk = (comp[j] >> k) & 1
                cjl = (comp[j] >> l) & 1
                ckl = (comp[k] >> l) & 1
                e = (
                    (cij & cik & cjk)
                    + (cij & cil & cjl)
                    + (cik & cil & ckl)
                    + (cjk & cjl & ckl)
                )
                n_pi = e - 1 if e > 1 else 0
                support = (i, j, k, l)
            if not n_pi:
                continue
            total += n_pi
            if support in memo:
                tag = memo[support]
            else:
                tag = memo[support] = classify(support)
                if tag is not None:
                    sigma[tag] = sigma.get(tag, 0) + 1
            if tag is None:
                unclassified += n_pi
            else:
                by_type[tag] = by_type.get(tag, 0) + n_pi
            deg = degrees[i] + degrees[j] + degrees[k] + degrees[l]
            by_degree[deg] = by_degree.get(deg, 0) + n_pi
            shape = tuple(sorted((degrees[i], degrees[j], degrees[k], degrees[l])))
            by_shape[shape] = by_shape.get(shape, 0) + n_pi
    return total, unclassified, by_type, by_degree, by_shape, sigma


def _o1_worker(args: tuple) -> tuple:
    n, k, start, step = args
    region = _region(Rank(n, k), False)
    return _o1_accumulate(region, range(start, len(region.points), step))


def oracle_full(rank: Rank, cap: int = 4, threads: int = 1) -> CensusReport:
    """Exhaustive census of N(pi) over every length-4 multiset on the trapezoid.

    The cost grows like C(3n(2n+1)+3, 4), so ranks above the cap are refused.
    """
    rank.validate()
    if rank.k != 2:
        raise ValueError(f"the full oracle walks length-4 multisets; needs k=2, got k={rank.k}")
    if rank.n > cap:
        raise ValueError(f"oracle_full capped: n={rank.n} exceeds cap {cap}")
    region = _region(rank, False)
    m = len(region.points)
    if threads <= 1:
        partials = [_o1_accumulate(region, range(m))]
    else:
        import multiprocessing as mp

        jobs = [(rank.n, rank.k, w, threads) for w in range(threads)]
        with mp.Pool(threads) as pool:
            partials = pool.map(_o1_worker, jobs)
    total = 0
    unclassified = 0
    by_type: dict[SupportType, int] = {t: 0 for t in all_types()}
    by_degree: dict[int, int] = {d: 0 for d in range(-4, -13, -1)}
    by_shape: dict[tuple[int, ...], int] = {s: 0 for s in all_shapes()}
    sigma: dict[SupportType, int] = {t: 0 for t in all_types()}
    for p_total, p_uncls, p_type, p_degree, p_shape, p_sigma in partials:
        total += p_total
        unclassified += p_uncls
        for tag, v in p_type.items():
            by_type[_canonical(tag)] = by_type.get(_canonical(tag), 0) + v
        for deg, v in p_degree.items():
            by_degree[deg] = by_degree.get(deg, 0) + v
        for shape, v in p_shape.items():
            by_shape[shape] = by_shape.get(shape, 0) + v
        for tag, v in p_sigma.items():
            sigma[_canonical(tag)] = sigma.get(_canonical(tag), 0) + v
    return CensusReport(
        rank=rank,
        sigma=sigma,
        n_by_type=by_type,
        n_by_degree=by_degree,
        n_by_shape=by_shape,
        total=total,
        unclassified=unclassified,
    )
