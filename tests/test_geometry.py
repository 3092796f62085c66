"""Tests for the cone-ordered trapezoid model and root labels."""
from __future__ import annotations

import pytest

from cascade.geometry import (
    Rank,
    StripPoint,
    TrapezoidPoint,
    degree_of,
    leq,
    root_label,
    strip_global,
    strip_local,
    trapezoid_degree,
    trapezoid_points,
)


def test_rank_validation():
    assert (Rank(1).n, Rank(1).k) == (1, 2)
    assert Rank(10, 5) == Rank(10, 5) != Rank(10)
    assert hash(Rank(3, 2)) == hash(Rank(3))
    with pytest.raises(ValueError, match="rank must be >= 1, got 0"):
        Rank(0)
    with pytest.raises(ValueError, match="level must be >= 1, got 0"):
        Rank(2, 0)
    assert repr(Rank(3)) == "Rank(n=3, k=2)"
    assert Rank(n=4) == Rank(4)
    with pytest.raises(AttributeError):
        Rank(2).n = 3


def test_rank_is_built_only_through_its_checks():
    with pytest.raises(ValueError, match="rank must be >= 1, got 0"):
        Rank._make((0, 2))
    with pytest.raises(ValueError, match="rank must be >= 1, got 0"):
        Rank(3)._replace(n=0)
    with pytest.raises(ValueError, match="level must be >= 1, got 0"):
        Rank(3)._replace(k=0)
    assert Rank._make((3, 4)) == Rank(3)._replace(k=4) == Rank(3, 4)


def test_rank_equals_no_plain_tuple():
    assert Rank(3) != (3, 2) and (3, 2) != Rank(3)
    assert not Rank(3) == (3, 2) and not (3, 2) == Rank(3)
    assert hash(Rank(3)) == hash((3, 2))
    assert len({Rank(3), Rank(3, 2)}) == 1


def test_trapezoid_point_counts():
    assert len(trapezoid_points(Rank(1))) == 9
    assert len(trapezoid_points(Rank(3))) == 63
    pts = trapezoid_points(Rank(2))
    assert len(pts) == 30
    # Row-major from the bottom: the final point closes the top row of
    # width 4n+1-(2n+1) = 2n.
    assert pts[0] == TrapezoidPoint(1, 1)
    assert pts[-1] == TrapezoidPoint(5, 4)


def test_trapezoid_row_widths():
    for n in (1, 2, 3):
        pts = trapezoid_points(Rank(n))
        widths = {}
        for p in pts:
            widths[p.row] = max(widths.get(p.row, 0), p.col)
        assert widths == {i: 4 * n + 1 - i for i in range(1, 2 * n + 2)}
        assert len(pts) == len(set(pts)) == 3 * n * (2 * n + 1)


def test_leq_examples():
    assert leq(TrapezoidPoint(1, 1), TrapezoidPoint(2, 1))
    assert not leq(TrapezoidPoint(1, 4), TrapezoidPoint(3, 1))
    assert leq(TrapezoidPoint(2, 2), TrapezoidPoint(3, 1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_order_axioms(n):
    pts = trapezoid_points(Rank(n))
    below = {b: frozenset(a for a in pts if leq(a, b)) for b in pts}
    for a in pts:
        assert leq(a, a)
    for a in pts:
        for b in pts:
            if a != b:
                assert not (leq(a, b) and leq(b, a))
    # Transitivity as cone containment: a below b implies a's down-set is
    # inside b's.
    for b in pts:
        for a in below[b]:
            assert below[a] <= below[b]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_same_row_incomparability(n):
    for p in trapezoid_points(Rank(n)):
        for col in range(1, 4 * n + 2 - p.row):
            q = TrapezoidPoint(p.row, col)
            if q != p:
                assert not leq(p, q) and not leq(q, p)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_no_point_between_incomparable_pair(n):
    pts = trapezoid_points(Rank(n))
    for b in pts:
        for c in pts:
            if b is c or leq(b, c) or leq(c, b):
                continue
            for x in pts:
                if leq(x, b):
                    assert not leq(c, x)


def test_strip_global_examples():
    assert strip_global(Rank(2), StripPoint(1, 1, 1)) == (1, 1)
    assert strip_global(Rank(2), StripPoint(2, 1, 3)) == (5, 3)
    assert strip_global(Rank(2), StripPoint(3, 1, 1)) == (1, 5)


def test_strip_global_invalid_coordinates():
    with pytest.raises(ValueError):
        strip_global(Rank(2), StripPoint(0, 1, 1))
    with pytest.raises(ValueError):
        strip_global(Rank(2), StripPoint(1, 5, 1))
    with pytest.raises(ValueError):
        strip_global(Rank(2), StripPoint(1, 2, 4))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_strip_tiles_trapezoid(n):
    rank = Rank(n)
    image = {}
    for d in (1, 2, 3):
        for local_row in range(1, 2 * n + 1):
            for local_col in range(1, 2 * n + 2 - local_row):
                p = StripPoint(d, local_row, local_col)
                g = strip_global(rank, p)
                assert g not in image
                image[g] = p
                assert strip_local(rank, *g) == p
    assert set(image) == {(p.row, p.col) for p in trapezoid_points(rank)}
    # Each trapezoid row i receives exactly i-1 points from the inverted
    # (degree -2) triangle.
    for i in range(1, 2 * n + 2):
        from_even = sum(
            1 for (row, _), p in image.items() if row == i and p.d == 2
        )
        assert from_even == i - 1


@pytest.mark.parametrize("n", [2, 3])
def test_strip_global_injective_beyond_trapezoid(n):
    # Consecutive odd/even triangle pairs overlap in columns, so the map
    # must separate them by (row, col) alone within each pair and shift
    # whole periods by 2n.
    rank = Rank(n)
    seen = {}
    for d in range(1, 8):
        for local_row in range(1, 2 * n + 1):
            for local_col in range(1, 2 * n + 2 - local_row):
                p = StripPoint(d, local_row, local_col)
                g = strip_global(rank, p)
                assert g not in seen, (p, seen[g])
                seen[g] = p


def test_degree_of():
    assert degree_of(StripPoint(1, 1, 1)) == -1
    assert degree_of(StripPoint(3, 2, 1)) == -3
    assert degree_of(StripPoint(7, 1, 2)) == -7


@pytest.mark.parametrize("n", [1, 2])
def test_trapezoid_degree_matches_strip(n):
    rank = Rank(n)
    for p in trapezoid_points(rank):
        sp = strip_local(rank, p.row, p.col)
        assert trapezoid_degree(rank, p) == degree_of(sp) == -sp.d


def test_root_label_examples():
    assert root_label(Rank(3), 1, 4) == (-3, -3)
    assert root_label(Rank(3), 2, 3) == (3, -3)
    assert root_label(Rank(3), 6, 1) == (1, -1)


def test_root_label_out_of_range():
    with pytest.raises(ValueError):
        root_label(Rank(3), 0, 1)
    with pytest.raises(ValueError):
        root_label(Rank(3), 7, 1)
    with pytest.raises(ValueError):
        root_label(Rank(3), 1, 7)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_root_labels_distinct_and_complete(n):
    rank = Rank(n)
    labels = set()
    for local_row in range(1, 2 * n + 1):
        for local_col in range(1, 2 * n + 2 - local_row):
            labels.add(root_label(rank, local_row, local_col))
    assert len(labels) == n * (2 * n + 1)
    expected = (
        {(a, b) for a in range(1, n + 1) for b in range(a, n + 1)}
        | {(-a, -b) for a in range(1, n + 1) for b in range(1, a + 1)}
        | {(a, -b) for a in range(1, n + 1) for b in range(1, n + 1)}
    )
    assert labels == expected
