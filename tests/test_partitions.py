"""Tests for colored partitions: statistics, containment, enumeration, order."""
from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cascade.geometry import Rank, TrapezoidPoint, trapezoid_degree, trapezoid_points
from cascade.partitions import (
    ColoredPartition,
    compare,
    divides,
    enumerate_partitions,
    shape_of,
    sub_multisets,
)

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
    assert pi.expanded() == (X, X, Y)
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


def test_shape_of_examples():
    rank = Rank(2)
    deg = lambda p: trapezoid_degree(rank, p)
    pts = trapezoid_points(rank)
    by_degree = {}
    for p in pts:
        by_degree.setdefault(deg(p), []).append(p)
    pi = ColoredPartition({by_degree[-3][0]: 2, by_degree[-2][0]: 1})
    assert shape_of(pi, deg) == (-3, -3, -2)
    assert shape_of(ColoredPartition({}), deg) == ()
    quad = ColoredPartition({by_degree[-1][0]: 3, by_degree[-1][1]: 1})
    assert shape_of(quad, deg) == (-1, -1, -1, -1)
    assert quad.degree(deg) == -4


def test_shape_sorted_most_negative_first():
    rank = Rank(1)
    deg = lambda p: trapezoid_degree(rank, p)
    pi = ColoredPartition(
        {TrapezoidPoint(1, 1): 1, TrapezoidPoint(2, 2): 1, TrapezoidPoint(1, 3): 1}
    )
    # Degrees -1, -2, -3 in some order; shape lists heaviest parts first.
    assert shape_of(pi, deg) == (-3, -2, -1)


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


def test_compare_constraints():
    deg = lambda p: trapezoid_degree(Rank(1), p)
    longer = ColoredPartition({X: 3, Y: 2})
    shorter = ColoredPartition({X: 4})
    assert compare(longer, shorter, deg) == -1
    assert compare(shorter, longer, deg) == 1
    heavy = ColoredPartition({TrapezoidPoint(1, 3): 1, X: 1})  # degrees -3, -1
    light = ColoredPartition({Z: 1, Y: 1})  # degrees -2, -1
    assert heavy.length == light.length and heavy.degree(deg) < light.degree(deg)
    assert compare(heavy, light, deg) == -1
    assert compare(heavy, heavy, deg) == 0


def test_compare_is_total_order():
    deg = lambda p: trapezoid_degree(Rank(1), p)
    sample = list(enumerate_partitions(trapezoid_points(Rank(1))[:4], 3))
    for a in sample:
        for b in sample:
            c_ab, c_ba = compare(a, b, deg), compare(b, a, deg)
            assert c_ab == -c_ba
            assert (c_ab == 0) == (a == b)
    import functools

    ordered = sorted(sample, key=functools.cmp_to_key(lambda a, b: compare(a, b, deg)))
    for earlier, later in zip(ordered, ordered[1:]):
        assert compare(earlier, later, deg) == -1
    lengths = [p.length for p in ordered]
    assert lengths == sorted(lengths, reverse=True)
