"""Leading terms: chain-supported partitions of length k+1 and the count N(pi).

A leading term is a colored partition of length k+1 whose support is a chain,
i.e. a zig-zag downward line a_1 > a_2 > ... > a_r of pairwise comparable
points in strictly decreasing rows.  E(pi) collects the leading terms embedded
in pi, and N(pi) = max(#E(pi) - 1, 0) counts the independent differences of
embeddings demanded by pi.  Both read pi's distinct length-(k+1) picks against
one process-wide set of tested picks, so each pick is tested for a chain once.
"""
from __future__ import annotations

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


_TESTED: set[tuple] = set()  # every pick _chain_picks has met in this process
_CHAIN_PICKS: set[tuple] = set()  # the chains among them


def _chain_picks(pi: ColoredPartition, size: int) -> set[tuple]:
    """The distinct picks of `size` of pi's sorted points that are chains, each
    hashed once per call and tested once per process.  One set serves every
    rank and level: is_chain of a pick with repeats is that of its support, and
    geometry.leq reads the two points alone."""
    picks = set(combinations(pi.points, size))
    new = picks - _TESTED
    if new:
        _TESTED.update(new)
        _CHAIN_PICKS.update(filter(is_chain, new))
    return picks & _CHAIN_PICKS


def embeddings(pi: ColoredPartition, rank: Rank) -> list[ColoredPartition]:
    """E(pi): the leading terms dividing pi, its length-(k+1) picks that are
    chains, in distinct_picks' order; each pick is tested once per process."""
    chains, picks = _chain_picks(pi, rank.k + 1), distinct_picks(pi, rank.k + 1)
    return [ColoredPartition.from_points(p) for p in picks if p in chains]


def n_count(pi: ColoredPartition, rank: Rank) -> int:
    """N(pi) = max(#E(pi) - 1, 0), counting the chain picks without building them."""
    return max(len(_chain_picks(pi, rank.k + 1)) - 1, 0)
