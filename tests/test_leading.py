"""Tests for leading terms, the embedding set E(pi), and N(pi)."""
from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from cascade.census import SupportType, oracle_supports
from cascade.geometry import Rank, TrapezoidPoint, leq, trapezoid_points
from cascade.leading import (
    _compositions,
    embeddings,
    enumerate_leading_terms,
    is_chain,
    is_leading_term,
    n_count,
)
from cascade.partitions import ColoredPartition, distinct_picks, enumerate_partitions

X = TrapezoidPoint(1, 1)
Y = TrapezoidPoint(1, 2)
Z = TrapezoidPoint(2, 1)


def test_is_chain_examples():
    assert is_chain([Z, X])
    assert not is_chain([X, Y])
    assert is_chain(
        [TrapezoidPoint(3, 1), TrapezoidPoint(2, 2), TrapezoidPoint(1, 2)]
    )
    assert is_chain([])
    assert is_chain([X])


def test_is_leading_term_examples():
    rank = Rank(1)
    assert is_leading_term(ColoredPartition({Z: 2, X: 1}), rank)
    assert not is_leading_term(ColoredPartition({X: 1, Y: 1, Z: 1}), rank)
    assert not is_leading_term(ColoredPartition({Z: 2}), rank)


def test_enumerate_leading_terms_n1():
    rank = Rank(1)
    region = trapezoid_points(rank)
    terms = list(enumerate_leading_terms(rank, region))
    assert len(terms) == len(set(terms))
    by_support_size = {}
    for t in terms:
        assert is_leading_term(t, rank)
        by_support_size[len(t.support)] = by_support_size.get(len(t.support), 0) + 1
    # 9 cubes a^3; 16 two-point chains, two compositions each; 8 three-point
    # chains, one composition each.
    assert by_support_size == {1: 9, 2: 32, 3: 8}
    assert len(terms) == 49


@pytest.mark.parametrize(
    "rank", [Rank(1), Rank(2), Rank(3), Rank(2, 3)], ids=["1", "2", "3", "2-3"]
)
def test_enumerate_leading_terms_complete(rank):
    region = trapezoid_points(rank)
    terms = list(enumerate_leading_terms(rank, region))
    brute = {
        pi
        for pi in enumerate_partitions(region, rank.k + 1)
        if is_leading_term(pi, rank)
    }
    assert len(terms) == len(set(terms))
    assert set(terms) == brute


@pytest.mark.parametrize("n, count", [(1, 49), (2, 588), (3, 3234), (4, 12012)])
def test_leading_term_count_from_chain_counts(n, count):
    """A length-3 leading term is a cube, a 2-chain carrying one of the two
    compositions of 3, or a 3-chain: m + 2 #A2 + #A3 terms, with the chains
    counted by the support walk."""
    rank = Rank(n)
    region = trapezoid_points(rank)
    chains = lambda r: oracle_supports(rank, SupportType.a(r))
    assert len(region) + 2 * chains(2) + chains(3) == count
    assert sum(1 for _ in enumerate_leading_terms(rank, region)) == count


def test_embeddings_examples():
    rank = Rank(1)
    pi = ColoredPartition({X: 1, Y: 1, Z: 2})
    e = embeddings(pi, rank)
    assert set(e) == {
        ColoredPartition({X: 1, Z: 2}),
        ColoredPartition({Y: 1, Z: 2}),
    }
    assert n_count(pi, rank) == 1

    quad = ColoredPartition({X: 4})
    assert embeddings(quad, rank) == [ColoredPartition({X: 3})]
    assert n_count(quad, rank) == 0


def test_embeddings_incomparable_squares():
    rank = Rank(1)
    pi = ColoredPartition({X: 2, Y: 2})
    assert embeddings(pi, rank) == []
    assert n_count(pi, rank) == 0


def test_four_point_chain_has_three_extra_embeddings():
    rank = Rank(2)
    chain = [
        TrapezoidPoint(4, 1),
        TrapezoidPoint(3, 1),
        TrapezoidPoint(2, 1),
        TrapezoidPoint(1, 1),
    ]
    assert is_chain(chain)
    pi = ColoredPartition.from_points(chain)
    assert len(embeddings(pi, rank)) == 4
    assert n_count(pi, rank) == 3


def _compositions_by_product(total, parts):
    """The ordered sums of `parts` positive integers equal to total, in
    lexicographic order; no part can exceed total - parts + 1."""
    return [
        c for c in product(range(1, total - parts + 2), repeat=parts) if sum(c) == total
    ]


@pytest.mark.parametrize("parts", range(1, 9))
def test_compositions_match_filtered_product(parts):
    for total in range(1, 9):
        assert list(_compositions(total, parts)) == _compositions_by_product(total, parts)


@pytest.mark.parametrize("n", [1, 2])
def test_chain_partitions_embed_once_per_chain_point(n):
    # Any length-4 partition supported on a full r-point chain admits
    # exactly r embeddings, whatever its multiplicities.
    rank = Rank(n)
    pts = trapezoid_points(rank)
    for size in (2, 3, 4):
        for subset in combinations(pts, size):
            if not is_chain(subset):
                continue
            for mults in _compositions_by_product(4, size):
                pi = ColoredPartition(zip(subset, mults))
                assert len(embeddings(pi, rank)) == size
                assert n_count(pi, rank) == size - 1


def test_embeddings_match_uncached_chain_filter_across_ranks():
    """The chain test of embeddings is made once per pick for the whole process,
    one set for every rank and level.  Partitions drawn at n = 1, 2, 3, each
    read at its own and every larger rank and at k = 1, 2, 3 in a shuffled
    order, revisit picks first tested at another rank or in another partition."""
    rng = random.Random(0)
    regions = {n: trapezoid_points(Rank(n)) for n in (1, 2, 3)}
    for _ in range(300):
        n = rng.choice((1, 2, 3))
        pi = ColoredPartition.from_points(rng.choices(regions[n], k=rng.randint(0, 7)))
        expected = {
            k: [
                ColoredPartition.from_points(p)
                for p in distinct_picks(pi, k + 1)
                if is_chain(set(p))
            ]
            for k in (1, 2, 3)
        }
        ranks = [Rank(m, k) for m in range(n, 4) for k in (1, 2, 3)]
        rng.shuffle(ranks)
        for rank in ranks:
            assert embeddings(pi, rank) == expected[rank.k]
            assert n_count(pi, rank) == max(len(expected[rank.k]) - 1, 0)


def test_pair_family_has_exactly_two_embeddings():
    rank = Rank(1)
    # One point above a same-row incomparable pair, the chain point doubled.
    pi = ColoredPartition({Z: 2, X: 1, Y: 1})
    assert len(embeddings(pi, rank)) == 2
    assert n_count(pi, rank) == 1


@pytest.mark.parametrize("n", [1])
def test_embedding_monotonicity(n):
    # Growing the partition never loses embeddings.
    rank = Rank(n)
    region = trapezoid_points(rank)[:6]
    smalls = list(enumerate_partitions(region, 3))
    for small in smalls:
        e_small = set(embeddings(small, rank))
        for extra in region:
            bigger = ColoredPartition(
                dict(small.parts) | {extra: small.multiplicity(extra) + 1}
            )
            assert all(m <= bigger.multiplicity(p) for p, m in small.parts)
            e_big = set(embeddings(bigger, rank))
            assert e_small <= e_big


def test_leading_terms_respect_flag_of_length():
    rank = Rank(2, 3)  # level 3: leading terms have length 4
    region = trapezoid_points(rank)[:8]
    for term in enumerate_leading_terms(rank, region):
        assert term.length == 4
        assert is_chain(term.support)
