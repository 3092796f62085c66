"""Leading terms: chain-supported partitions of length k+1 and the count N(pi).

A leading term is a colored partition of length k+1 whose support is a chain,
i.e. a zig-zag downward line a_1 > a_2 > ... > a_r of pairwise comparable
points in strictly decreasing rows.  E(pi) collects the leading terms embedded
in pi, and N(pi) = max(#E(pi) - 1, 0) counts the independent differences of
embeddings demanded by pi.
"""
from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from . import geometry
from .geometry import Rank
from .partitions import ColoredPartition, distinct_picks

LeqFn = Callable[[object, object], bool]


def is_chain(points: Iterable, leq: LeqFn = geometry.leq) -> bool:
    """True iff the points are pairwise comparable (a zig-zag downward line)."""
    pts = list(points)
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            if not (leq(a, b) or leq(b, a)):
                return False
    return True


def is_leading_term(rho: ColoredPartition, rank: Rank) -> bool:
    """True iff rho has length k+1 and chain support."""
    return rho.length == rank.k + 1 and is_chain(rho.support)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write total >= 1 as an ordered sum of `parts` positive
    integers: the gaps between parts - 1 cut points in 1..total-1."""
    for cuts in combinations(range(1, total), parts - 1):
        bounds = (0, *cuts, total)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _chains(region: Sequence, max_size: int) -> Iterator[tuple]:
    """All chains of size 1..max_size in region, as top-down tuples: no two
    points of one row are comparable, so each chain grows by the later points
    of the top-row-first order below its last point, hence below all of it."""
    ordered = sorted(region, key=lambda p: (-p.row, p.col))
    # The points a chain may grow by, keyed by its last point; () starts one.
    below = {(): ordered}
    for i, p in enumerate(ordered):
        below[(p,)] = [q for q in ordered[i + 1 :] if geometry.leq(q, p)]
    chains = [()]
    for _ in range(max_size):
        chains = [c + (q,) for c in chains for q in below[c[-1:]]]
        yield from chains


def enumerate_leading_terms(
    rank: Rank, region: Sequence
) -> Iterator[ColoredPartition]:
    """Every leading term supported in region, exactly once.

    Chains of size r carry C(k, r-1) terms each, one per composition of k+1
    into r positive multiplicities.
    """
    k = rank.k
    for chain in _chains(region, k + 1):
        for mults in _compositions(k + 1, len(chain)):
            yield ColoredPartition(zip(chain, mults))


@cache
def _is_chain_support(support: frozenset) -> bool:
    """is_chain, tested once per distinct support.  Sound because geometry.leq
    reads the two points alone, never the rank.  The cache holds one entry per
    distinct support of at most k+1 points that embeddings meets: 4 525 over
    every length-4 partition at n=1..2."""
    return is_chain(support)


def embeddings(pi: ColoredPartition, rank: Rank) -> list[ColoredPartition]:
    """E(pi): the leading terms dividing pi, its length-(k+1) picks with chain
    support; each distinct support is tested pairwise once per process."""
    picks = distinct_picks(pi, rank.k + 1)
    return [
        ColoredPartition.from_points(pts) for pts in picks
        if _is_chain_support(frozenset(pts))
    ]


def n_count(pi: ColoredPartition, rank: Rank) -> int:
    """N(pi) = max(#E(pi) - 1, 0), counting the chain picks that embeddings
    would build, without building them."""
    picks = distinct_picks(pi, rank.k + 1)
    return max(sum(1 for pts in picks if _is_chain_support(frozenset(pts))) - 1, 0)
