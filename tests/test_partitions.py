"""Tests for colored partitions: statistics, sub-multisets, enumeration."""
from __future__ import annotations

import random
from collections import Counter
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cascade.geometry import Rank, TrapezoidPoint, trapezoid_degree, trapezoid_points
from cascade.leading import embeddings, is_leading_term
from cascade.partitions import ColoredPartition, enumerate_partitions, sub_multisets

X = TrapezoidPoint(1, 1)
Y = TrapezoidPoint(1, 2)
Z = TrapezoidPoint(2, 1)


def degree1(p: TrapezoidPoint) -> int:
    return trapezoid_degree(Rank(1), p)


def test_partition_basics():
    pi = ColoredPartition({X: 2, Y: 1})
    assert pi.length == 3
    assert pi.support == (X, Y)
    assert pi.multiplicity(X) == 2
    assert pi.multiplicity(Z) == 0
    assert pi.points == (X, X, Y)
    assert pi == ColoredPartition([(Y, 1), (X, 2)])
    assert hash(pi) == hash(ColoredPartition({Y: 1, X: 2}))
    assert bool(pi)
    assert not bool(ColoredPartition({}))


def test_partition_rejects_nonpositive_multiplicity():
    with pytest.raises(ValueError):
        ColoredPartition({X: 0})
    with pytest.raises(ValueError):
        ColoredPartition({X: -1})


def test_partition_merges_repeated_points():
    pi = ColoredPartition([(X, 1), (X, 2), (Y, 1)])
    assert pi == ColoredPartition({X: 3, Y: 1})
    assert ColoredPartition.from_points([X, Y, X]) == ColoredPartition({X: 2, Y: 1})


def test_degree():
    # (1,1) and (2,1) sit in the upright base triangle (degree -1);
    # (2,2) belongs to the inverted second triangle (degree -2).
    assert degree1(Z) == -1
    pi = ColoredPartition({X: 2, TrapezoidPoint(2, 2): 1})
    assert pi.degree(degree1) == -4
    assert ColoredPartition({}).degree(degree1) == 0


def divides(rho: ColoredPartition, pi: ColoredPartition) -> bool:
    """Reference: True iff rho is a sub-multiset of pi."""
    return all(m <= pi.multiplicity(p) for p, m in rho.parts)


def test_divides_examples():
    assert divides(ColoredPartition({X: 1}), ColoredPartition({X: 2, Y: 1}))
    assert not divides(ColoredPartition({X: 3}), ColoredPartition({X: 2, Y: 2}))
    assert divides(ColoredPartition({}), ColoredPartition({X: 2, Y: 1}))
    assert divides(ColoredPartition({}), ColoredPartition({}))


def test_sub_multisets_examples():
    pi = ColoredPartition({X: 2, Y: 1})
    assert sorted(sub_multisets(pi, 2), key=lambda r: r.parts) == [
        ColoredPartition({X: 1, Y: 1}),
        ColoredPartition({X: 2}),
    ]
    pi2 = ColoredPartition({X: 1, Y: 1, Z: 2})
    got = set(sub_multisets(pi2, 3))
    assert got == {
        ColoredPartition({X: 1, Y: 1, Z: 1}),
        ColoredPartition({X: 1, Z: 2}),
        ColoredPartition({Y: 1, Z: 2}),
    }
    assert sub_multisets(pi, 0) == [ColoredPartition({})]


def test_sub_multisets_out_of_range():
    pi = ColoredPartition({X: 2, Y: 1})
    assert sub_multisets(pi, 4) == []
    assert sub_multisets(pi, -1) == []


def _gf_coefficients(mults):
    """Coefficients of prod_a (1 + z + ... + z^{m_a}) as a list."""
    coeffs = [1]
    for m in mults:
        new = [0] * (len(coeffs) + m)
        for i, c in enumerate(coeffs):
            for j in range(m + 1):
                new[i + j] += c
        coeffs = new
    return coeffs


@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=5),
    st.integers(min_value=-1, max_value=22),
)
@settings(max_examples=200, deadline=None)
def test_sub_multisets_counts_match_generating_function(mults, length):
    points = trapezoid_points(Rank(2))[: len(mults)]
    pi = ColoredPartition(dict(zip(points, mults)))
    got = sub_multisets(pi, length)
    assert len(got) == len(set(got))
    coeffs = _gf_coefficients(mults)
    expected = coeffs[length] if 0 <= length < len(coeffs) else 0
    assert len(got) == expected
    for rho in got:
        assert rho.length == length
        assert divides(rho, pi)
    # Lexicographic in the multiplicity vector over pi's support.
    vectors = [tuple(rho.multiplicity(p) for p in pi.support) for rho in got]
    assert all(a < b for a, b in zip(vectors, vectors[1:]))


def _literal_sub_multisets(pi: ColoredPartition, length: int) -> list[ColoredPartition]:
    """Reference: filter the product of the multiplicity ranges by total, so
    the results come in lexicographic order of their multiplicity vectors."""
    if length < 0 or length > pi.length:
        return []
    return [
        ColoredPartition([(p, take) for (p, _), take in zip(pi.parts, takes) if take])
        for takes in product(*(range(m + 1) for _, m in pi.parts))
        if sum(takes) == length
    ]


RANK2_POINTS = trapezoid_points(Rank(2))


@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=5),
    st.integers(min_value=-1, max_value=22),
)
@settings(max_examples=200, deadline=None)
def test_sub_multisets_match_literal_product_filter(mults, length):
    pi = ColoredPartition(dict(zip(RANK2_POINTS, mults)))
    assert sub_multisets(pi, length) == _literal_sub_multisets(pi, length)


@given(
    st.lists(st.sampled_from(RANK2_POINTS), min_size=0, max_size=8),
    st.sampled_from([2, 3]),
)
@settings(max_examples=200, deadline=None)
def test_embeddings_match_literal_leading_term_filter(points, k):
    rank = Rank(2, k)
    pi = ColoredPartition(Counter(points))
    assert embeddings(pi, rank) == [
        rho for rho in _literal_sub_multisets(pi, k + 1) if is_leading_term(rho, rank)
    ]


@given(st.lists(st.sampled_from(RANK2_POINTS[:6]), min_size=0, max_size=10))
@settings(max_examples=200, deadline=None)
def test_from_points_matches_counted_constructor(points):
    got, expected = ColoredPartition.from_points(points), ColoredPartition(Counter(points))
    assert got.parts == expected.parts
    assert got.length == expected.length == len(points)
    assert hash(got) == hash(expected)


RANK3 = Rank(3)
RANK3_POINTS = trapezoid_points(RANK3)


@given(
    st.lists(st.tuples(st.sampled_from(RANK3_POINTS), st.integers(1, 3)), max_size=8),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_representations_agree_with_counter_reference(pairs, rng):
    """A Mapping, (point, mult) pairs with repeats and a shuffled expansion
    build one partition, whose statistics are those of a Counter."""
    counts = Counter()
    for point, mult in pairs:
        counts[point] += mult
    expansion = list(counts.elements())
    rng.shuffle(expansion)
    built = [
        ColoredPartition(dict(counts)),
        ColoredPartition(pairs),
        ColoredPartition.from_points(expansion),
    ]
    for pi in built:
        assert pi == built[0]
        assert hash(pi) == hash(built[0])
        assert pi.parts == tuple(sorted(counts.items()))
        assert pi.support == tuple(sorted(counts))
        assert pi.length == len(expansion)
        assert all(pi.multiplicity(p) == counts[p] for p in RANK3_POINTS)
        assert pi.degree(lambda p: trapezoid_degree(RANK3, p)) == sum(
            m * trapezoid_degree(RANK3, p) for p, m in counts.items()
        )
        assert pi.points == tuple(sorted(expansion))
        if expansion:
            # One more copy of a part: a different partition on the same support.
            assert pi != ColoredPartition.from_points(expansion + expansion[:1])


def test_enumerate_partitions_counts():
    region3 = trapezoid_points(Rank(1))[:3]
    got = list(enumerate_partitions(region3, 4))
    assert len(got) == 15 == comb(3 + 4 - 1, 4)
    assert len(set(got)) == 15
    assert sum(1 for _ in enumerate_partitions(trapezoid_points(Rank(1)), 4)) == 495
    assert sum(1 for _ in enumerate_partitions(trapezoid_points(Rank(2)), 4)) == 40920


def test_enumerate_partitions_edge_cases():
    region = trapezoid_points(Rank(1))[:2]
    assert list(enumerate_partitions(region, 0)) == [ColoredPartition({})]
    assert list(enumerate_partitions([], 0)) == [ColoredPartition({})]
    assert list(enumerate_partitions([], 2)) == []
    with pytest.raises(ValueError):
        list(enumerate_partitions(region, -1))


def test_enumerate_partitions_deterministic_order():
    region = trapezoid_points(Rank(1))[:3]
    assert list(enumerate_partitions(region, 2)) == list(
        enumerate_partitions(region, 2)
    )
    first = next(iter(enumerate_partitions(region, 3)))
    assert first == ColoredPartition({region[0]: 3})


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_enumerate_partitions_of_unsorted_region(order):
    """An unsorted region gives the partitions of its sorted copy, each once,
    and every partition holds its points sorted, as from_points stores them."""
    region = list(trapezoid_points(Rank(1)))
    if order == "reversed":
        region.reverse()
    else:
        random.Random(3).shuffle(region)
    assert region != sorted(region)
    for length in range(5):
        got = list(enumerate_partitions(region, length))
        assert got == list(enumerate_partitions(sorted(region), length))
        assert len(set(got)) == len(got) == comb(len(region) + length - 1, length)
        for pi in got:
            assert list(pi.points) == sorted(pi.points)
            assert pi.points == ColoredPartition.from_points(pi.points).points
