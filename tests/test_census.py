"""Tests for the support classifier and the two brute-force oracles.

The full oracle is cross-checked here against a from-scratch reference that
knows nothing about multiplicity patterns or bitmasks: it enumerates the
same partitions and recomputes N(pi) from their sub-multisets and chains.
"""
from __future__ import annotations

import hashlib
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from cascade import census, closed_forms
from cascade.census import (
    SupportType,
    all_shapes,
    all_types,
    classify_support,
    flipped_support_counts,
    mirror,
    oracle_flipped,
    oracle_full,
    oracle_supports,
    support_counts,
)
from cascade.closed_forms import dim_relation_space, dim_s_theta, embeddings_per_support
from cascade.geometry import (
    Rank,
    StripPoint,
    TrapezoidPoint,
    leq,
    strip_global,
    trapezoid_degree,
    trapezoid_points,
)
from cascade.leading import embeddings, is_chain
from cascade.partitions import ColoredPartition, enumerate_partitions, sub_multisets

P = TrapezoidPoint


def shape_of(pi, deg):
    """The ordinary partition of |pi|: part degrees sorted most negative first."""
    return tuple(sorted(deg(p) for p in pi.points))


def _flipped_leq(a, b):
    # On the upside-down trapezoid cones open down and to the left.
    return a.row <= b.row and b.col - (b.row - a.row) <= a.col <= b.col


def _flipped_points(n):
    """The upside-down trapezoid: row i holds columns 1 .. 2n+i-1."""
    return [P(i, j) for i in range(1, 2 * n + 2) for j in range(1, 2 * n + i)]


class TestSupportType:
    def test_keys_round_trip(self):
        for key in census.TYPE_KEYS:
            assert SupportType.from_key(key).key() == key
        t = SupportType.from_key("D3||2")
        assert (t.family, t.r, t.delta, t.s) == ("D", 3, "||", 2)
        assert SupportType.from_key("C||4") == SupportType.c("||", 4)

    def test_invalid_keys_rejected(self):
        for bad in ("", "A", "A1", "E2", "B2", "C2|", "B|2", "D1|", "D|1|1", "A2|", "A2\n"):
            with pytest.raises(ValueError):
                SupportType.from_key(bad)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SupportType.a(1)
        with pytest.raises(ValueError):
            SupportType("B", 1)
        with pytest.raises(ValueError):
            SupportType("B", 0, "|")
        with pytest.raises(ValueError):
            SupportType("D", 1, "|", 0)
        with pytest.raises(ValueError):
            SupportType("B", 1, "|", 1)

    def test_value_semantics(self):
        t = SupportType.d(1, "|", 1)
        assert repr(t) == "SupportType(family='D', r=1, delta='|', s=1)"
        assert str(t) == "D1|1"
        assert t == SupportType("D", 1, "|", 1) == SupportType.from_key("D1|1")
        assert t != SupportType.d(1, "||", 1)
        assert hash(t) == hash(SupportType.from_key("D1|1"))
        assert len({SupportType.a(2), SupportType("A", 2)}) == 1
        with pytest.raises(AttributeError):
            t.r = 2

    def test_built_only_through_its_checks(self):
        with pytest.raises(ValueError, match="A requires a chain of >= 2, got 1"):
            SupportType.a(2)._replace(r=1)
        with pytest.raises(ValueError, match="invalid row tag: None"):
            SupportType._make(("B", 1, None, 0))
        assert SupportType.a(2)._replace(r=3) == SupportType._make(("A", 3, None, 0))

    def test_equals_no_plain_tuple(self):
        t = SupportType.d(1, "|", 1)
        assert t != ("D", 1, "|", 1) and ("D", 1, "|", 1) != t
        assert not t == ("D", 1, "|", 1)
        assert hash(t) == hash(("D", 1, "|", 1))

    def test_sizes(self):
        assert SupportType.a(3).size == 3
        assert SupportType.b(2, "|").size == 4
        assert SupportType.d(1, "||", 1).size == 4

    def test_thirteen_types_in_report_order(self):
        assert [t.key() for t in all_types()] == list(census.TYPE_KEYS)

    def test_mirror_is_an_involution_swapping_b_and_c(self):
        assert mirror(SupportType.a(4)) == SupportType.a(4)
        assert mirror(SupportType.b(2, "|")) == SupportType.c("|", 2)
        assert mirror(SupportType.c("||", 1)) == SupportType.b(1, "||")
        assert mirror(SupportType.d(2, "|", 1)) == SupportType.d(1, "|", 2)
        for t in all_types():
            assert mirror(mirror(t)) == t


class TestClassifySupport:
    def test_small_support_examples(self):
        assert classify_support([P(2, 1), P(1, 1), P(1, 2)]) == SupportType.b(1, "|")
        assert classify_support([P(2, 1), P(2, 2), P(1, 2)]) == SupportType.c("|", 1)
        assert classify_support(
            [P(3, 1), P(2, 1), P(2, 2), P(1, 2)]
        ) == SupportType.d(1, "|", 1)

    def test_chains_and_small_sets(self):
        assert classify_support([]) is None
        assert classify_support([P(1, 1)]) is None
        assert classify_support([P(2, 1), P(1, 1)]) == SupportType.a(2)
        assert classify_support([P(3, 1), P(2, 1), P(1, 1)]) == SupportType.a(3)
        # A bare incomparable pair admits no second embedding.
        assert classify_support([P(1, 1), P(1, 2)]) is None

    def test_different_row_pair(self):
        # (2,3) and (1,1) at n=2: rows differ and neither cone contains the
        # other; (4,1) covers both.
        b, c = P(2, 3), P(1, 1)
        assert not leq(b, c) and not leq(c, b)
        assert classify_support([P(4, 1), b, c]) == SupportType.b(1, "||")

    def test_two_incomparable_pairs_unclassified(self):
        assert classify_support([P(1, 1), P(1, 2), P(1, 3)]) is None
        # Two same-row pairs stacked: each row is its own incomparable pair.
        assert classify_support([P(2, 1), P(2, 2), P(1, 1), P(1, 4)]) is None

    def test_repeated_points_count_once(self):
        """A multiset's points classify as its support: p p q is A2, and
        x x b c, with x above the same-row pair b, c, is B1|."""
        p, q = P(1, 1), P(2, 1)
        assert classify_support([p, p, q]) == SupportType.a(2)
        x, b, c = P(2, 1), P(1, 1), P(1, 2)
        pi = ColoredPartition.from_points([x, x, b, c])
        assert classify_support(pi.points) == SupportType.b(1, "|")
        assert classify_support(pi.points) == classify_support(pi.support)


def _naive_census(points, order, deg):
    """Reference full census over the given points under an order, built
    directly on sub-multisets and chains: N(pi) is the number of length-3
    sub-multisets with chain support, minus one, floored at zero.  joint
    holds the mass by (type key or None, shape) together."""
    by_type = {t: 0 for t in all_types()}
    by_degree = {}
    by_shape = {}
    joint = {}
    total = 0
    unclassified = 0
    for pi in enumerate_partitions(points, 4):
        chains = sum(1 for rho in sub_multisets(pi, 3) if is_chain(rho.support, order))
        n_pi = max(chains - 1, 0)
        if not n_pi:
            continue
        total += n_pi
        tag = classify_support(pi.support, leq=order)
        if tag is None:
            unclassified += n_pi
        else:
            by_type[tag] += n_pi
        by_degree[pi.degree(deg)] = by_degree.get(pi.degree(deg), 0) + n_pi
        shape = shape_of(pi, deg)
        by_shape[shape] = by_shape.get(shape, 0) + n_pi
        key = (tag and tag.key(), shape)
        joint[key] = joint.get(key, 0) + n_pi
    return total, unclassified, by_type, by_degree, by_shape, joint


def _census(points, order, deg):
    """The census walk's table on the points and the report it folds to."""
    degrees = [deg(p) for p in points]
    table = census._walk(points, order, degrees)
    return table, census._fold(table, degrees)


def _census_buckets(report, table):
    """A census report and its walk's (type, shape) table in the layout of
    _naive_census, empty report buckets dropped."""
    return (
        report.total,
        report.unclassified,
        report.n_by_type,
        {d: v for d, v in report.n_by_degree.items() if v},
        {s: v for s, v in report.n_by_shape.items() if v},
        table,
    )


# p <= x and x <= q, but p and q are incomparable.
_NOT_TRANSITIVE = (
    [P(1, 1), P(2, 1), P(3, 1)], frozenset({(P(1, 1), P(2, 1)), (P(2, 1), P(3, 1))})
)


@st.composite
def _antisymmetric_relations(draw):
    """Up to seven distinct points and a relation on them that holds in at
    most one direction for each pair; it need not be transitive."""
    points = draw(
        st.lists(st.builds(P, st.integers(1, 3), st.integers(1, 4)), unique=True, max_size=7)
    )
    related = frozenset(
        side
        for a, b in combinations(points, 2)
        if (side := draw(st.sampled_from([None, (a, b), (b, a)])))
    )
    return points, related


class TestOracleFull:
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_naive_reference(self, n):
        rank = Rank(n)
        points, deg = trapezoid_points(rank), lambda p: trapezoid_degree(rank, p)
        table, report = _census(points, leq, deg)
        assert report == oracle_full(rank)
        assert _census_buckets(report, table) == _naive_census(points, leq, deg)
        assert report.unclassified == 0

    @given(_antisymmetric_relations())
    @example(_NOT_TRANSITIVE)
    @settings(max_examples=200, deadline=None)
    def test_unclassified_bucket_is_walked(self, relation):
        """The census against sub-multisets and chains under a random
        antisymmetric relation, transitive or not.  In the example p <= x and
        x <= q, but p and q are incomparable: x lies neither above nor below
        both members of the pair, so the N = 1 of the multiset x x p q has
        no type, next to the 3 + 3 of the two comparable pairs."""
        points, related = relation
        order = lambda a, b: (a, b) in related
        deg = lambda point: -point.row
        table, report = _census(points, order, deg)
        assert _census_buckets(report, table) == _naive_census(points, order, deg)
        if relation == _NOT_TRANSITIVE:
            assert (report.unclassified, report.total) == (1, 7)

    @pytest.mark.parametrize("n, digest", [
        (1, "2e815674c0f2d75a1b1d9ee5f7ad51a868cee9f836c131798d2edb35782bc4ae"),
        (2, "11393f09aa348c34bcf5483f5269377f0def4a528009120087f969bfd56d2d52"),
        (3, "b27b6c42ef06aedac2f7b7526ad7b15fcd9deb268483daa752f35009a1ea1038"),
        (4, "6dc023a080259c869414de5d2ba4d499fbaed6d0e3ced10ae2e85d81da05c87e"),
        (5, "46f97f921bafd0699ce4db3e1e47aef08ab9dd4d4b5b4b5c075f1a0907ef0cd0"),
    ])
    def test_report_repr_is_pinned(self, n, digest):
        """The report's repr is pinned, so how the report and its types are
        declared cannot change their reprs, field order included."""
        text = repr(oracle_full(Rank(n)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n, cells", [(1, 39), (2, 110), (3, 113), (4, 113)])
    def test_walk_table_is_keyed_by_type_and_shape(self, n, cells):
        """The walk's table holds N by (type key, sorted degree 4-tuple): 113
        cells from n=3 on, no unclassified one, and the cells of each type
        sum to its mass in the report."""
        rank = Rank(n)
        points = trapezoid_points(rank)
        degrees = [trapezoid_degree(rank, p) for p in points]
        table = census._walk(points, leq, degrees)
        assert len(table) == cells
        for tag, shape in table:
            assert tag in census.TYPE_KEYS
            assert len(shape) == 4 and shape == tuple(sorted(shape))
        by_type = oracle_full(rank).n_by_type
        for t in all_types():
            assert sum(v for (tag, _), v in table.items() if tag == t.key()) == by_type[t]

    def test_n1_frozen_values(self):
        report = oracle_full(Rank(1))
        assert report.total == 126
        assert report.n_by_type[SupportType.a(2)] == 48
        assert report.n_by_degree == {
            -4: 7, -5: 16, -6: 16, -7: 16, -8: 16, -9: 16, -10: 16, -11: 16, -12: 7,
        }
        assert report.n_by_type[SupportType.b(1, "|")] == 11

    def test_n2_frozen_per_type(self):
        report = oracle_full(Rank(2))
        assert report.total == 3990
        frozen = {
            "A2": 435, "A3": 1608, "A4": 648,
            "B1|": 161, "B2|": 211, "B1||": 182, "B2||": 124,
            "C|1": 105, "C|2": 147, "C||1": 126, "C||2": 90,
            "D1|1": 95, "D1||1": 58,
        }
        assert {t.key(): v for t, v in report.n_by_type.items()} == frozen

    def test_bucket_keys_are_canonical_and_consistent(self):
        report = oracle_full(Rank(2))
        assert list(report.n_by_type) == list(all_types())
        assert list(report.n_by_degree) == list(range(-4, -13, -1))
        assert list(report.n_by_shape) == all_shapes((-1, -2, -3))
        assert sum(report.n_by_degree.values()) == report.total
        assert sum(report.n_by_shape.values()) == report.total
        assert sum(report.n_by_type.values()) + report.unclassified == report.total
        for shape, value in report.n_by_shape.items():
            assert len(shape) == 4 and all(d in (-1, -2, -3) for d in shape)
            assert report.n_by_degree[sum(shape)] >= value

    def test_cap_and_rank_guards(self):
        with pytest.raises(ValueError):
            oracle_full(Rank(0))
        with pytest.raises(ValueError, match="k=2"):
            oracle_full(Rank(1, 3))


@given(st.sampled_from([2, 3]), st.booleans(), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_census_walk_matches_naive_reference_on_subsets(n, flipped, by_row_and_col, data):
    """The census walk, from chains of three points and from incomparable
    pairs with one point comparable to both, against sub-multisets and
    chains on a random subset of the trapezoid or of the upside-down
    trapezoid, under the trapezoid's degrees or under -(row + col), which
    reaches past -3.  Each type's mass is its coefficient times the support
    walk's count on the subset."""
    rank = Rank(n)
    points, order, coords = _points_order_coords(n, flipped)
    subset = data.draw(
        st.lists(st.sampled_from(points), unique=True, max_size=10), label="points"
    )
    if by_row_and_col:
        deg = lambda p: -(p.row + p.col)
    elif flipped:
        # Row i of the upside-down trapezoid is row 2n+2-i of the trapezoid.
        deg = lambda p: trapezoid_degree(rank, P(2 * n + 2 - p.row, p.col))
    else:
        deg = lambda p: trapezoid_degree(rank, p)
    table, report = _census(subset, order, deg)
    assert _census_buckets(report, table) == _naive_census(subset, order, deg)
    counted = census._support_counts([coords(p) for p in subset], 4)
    for t in all_types():
        assert report.n_by_type[t] == embeddings_per_support(2, t) * counted[t]


def test_census_on_a_window_of_four_strip_triangles():
    """The strip's first four triangles at n=1, triangle d at degree -d: one
    degree past the trapezoid.  The total is (4T - 3)R - 2V at T=4, and
    byDegree is R at every degree but the two ends, which carry R - V."""
    rank = Rank(1)
    window = {
        P(*strip_global(rank, StripPoint(d, row, col))): -d
        for d in range(1, 5)
        for row in range(1, 3)
        for col in range(1, 4 - row)
    }
    assert len(window) == 12
    table, report = _census(list(window), leq, window.__getitem__)
    assert _census_buckets(report, table) == _naive_census(list(window), leq, window.__getitem__)
    r, v = dim_relation_space(rank), dim_s_theta(rank, 4)
    assert report.total == 13 * r - 2 * v == 190
    assert report.n_by_degree == {d: r - v if d in (-4, -16) else r for d in range(-4, -17, -1)}
    assert list(report.n_by_shape) == all_shapes((-1, -2, -3, -4))


def _points_order_coords(n: int, flipped: bool):
    """The points, the cone order and the dominance coordinates of a region."""
    if flipped:
        return _flipped_points(n), _flipped_leq, lambda p: (p.col, p.row - p.col)
    return trapezoid_points(Rank(n)), leq, lambda p: (-p.col, p.col + p.row)


@given(st.integers(min_value=1, max_value=6), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_orders_are_dominance_orders(n, flipped, data):
    """Both cone orders compare two coordinates: leq(a, b) holds exactly when
    P_a <= P_b and Q_a <= Q_b, with (P, Q) = (-col, col + row) on the
    trapezoid and (col, row - col) on the upside-down trapezoid."""
    points, order, coords = _points_order_coords(n, flipped)
    a = data.draw(st.sampled_from(points), label="a")
    b = data.draw(st.sampled_from(points), label="b")
    (pa, qa), (pb, qb) = coords(a), coords(b)
    assert order(a, b) == (pa <= pb and qa <= qb)


def _brute_support_count(rank: Rank, t: SupportType, flipped: bool = False) -> int:
    points, order, _ = _points_order_coords(rank.n, flipped)
    return sum(
        1
        for subset in combinations(points, t.size)
        if classify_support(subset, leq=order) == t
    )


class TestOracleSupports:
    def test_n1_examples(self):
        rank = Rank(1)
        assert oracle_supports(rank, SupportType.a(2)) == 16
        assert oracle_supports(rank, SupportType.a(4)) == 0
        assert oracle_supports(rank, SupportType.d(1, "|", 1)) == 2

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_subset_bruteforce(self, n):
        rank = Rank(n)
        for t in all_types():
            assert oracle_supports(rank, t) == _brute_support_count(rank, t)

    def test_matches_subset_bruteforce_beyond_thirteen(self):
        rank = Rank(2)
        for t in (SupportType.a(5), SupportType.b(3, "|"), SupportType.c("||", 2),
                  SupportType.d(2, "|", 1), SupportType.d(1, "||", 2)):
            assert oracle_supports(rank, t) == _brute_support_count(rank, t)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sigma_from_full_oracle_agrees(self, n):
        """A type's support count, read off the full census as its mass over
        its coefficient, equals the support walk's."""
        report = oracle_full(Rank(n))
        for t in all_types():
            sigma, rest = divmod(report.n_by_type[t], embeddings_per_support(2, t))
            assert (sigma, rest) == (oracle_supports(Rank(n), t), 0)

    def test_n_by_type_from_supports_examples(self):
        counted = support_counts(Rank(1))
        n_by_type = lambda t: embeddings_per_support(2, t) * counted[t]
        assert n_by_type(SupportType.a(2)) == 16 * 3 == 48
        assert n_by_type(SupportType.b(1, "|")) == 11
        assert n_by_type(SupportType.a(3)) == 8 * 6 == 48

    def test_walk_on_the_empty_set_counts_zero(self):
        """No point, no support: every type the walk knows counts 0."""
        for size in (2, 3, 4, 5):
            counts = census._support_counts([], size)
            assert counts.keys() == census._support_counts(census._coords(Rank(1)), size).keys()
            assert not any(counts.values()), size

    def test_one_walk_holds_the_thirteen_types(self):
        assert support_counts(Rank(2)).keys() == set(all_types())
        assert flipped_support_counts(Rank(2)).keys() == set(all_types())

    @pytest.mark.parametrize("n", [1, 2])
    def test_level_three_walk_matches_subset_bruteforce(self, n):
        """At k=3 the walk counts every type of at most five points; each
        equals classifying every subset of two to five points."""
        points = trapezoid_points(Rank(n))
        brute = Counter(
            classify_support(subset)
            for size in range(2, 6)
            for subset in combinations(points, size)
        )
        del brute[None]
        counted = support_counts(Rank(n, 3))
        assert len(counted) == 22 and all(t.size <= 5 for t in counted)
        assert {t: v for t, v in counted.items() if v} == dict(brute)


@given(
    st.integers(min_value=1, max_value=2),
    st.booleans(),
    st.sampled_from([*all_types(), SupportType.a(5), SupportType.d(2, "|", 1)]),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_support_count_matches_classified_subsets(n, flipped, t, data):
    """The grid walk on a random point subset against classifying every
    candidate subset under the cone order."""
    points, order, coords = _points_order_coords(n, flipped)
    subset = data.draw(
        st.lists(st.sampled_from(points), unique=True, max_size=12),
        label="subset",
    )
    expected = sum(
        1
        for candidate in combinations(subset, t.size)
        if classify_support(candidate, leq=order) == t
    )
    assert census._support_counts([coords(p) for p in subset], t.size)[t] == expected


def test_walks_build_no_region(monkeypatch):
    """The support and flipped walks never build the O(m^2) bitmask tables,
    which only the full census builds."""

    def no_census(*args):
        raise AssertionError("a support walk ran the full census")

    monkeypatch.setattr(census, "_walk", no_census)
    monkeypatch.setattr(census, "_fold", no_census)
    support_counts(Rank(3))
    flipped_support_counts(Rank(3))
    oracle_supports(Rank(3), SupportType.d(1, "|", 1))
    oracle_flipped(Rank(3), SupportType.d(1, "|", 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_flipped_trapezoid_is_the_trapezoid_reversed(n, monkeypatch):
    """phi(i, c) = (2n+2-i, c) maps the upside-down trapezoid onto the
    trapezoid.  The flipped dominance coordinates are those of the image
    negated and shifted by (0, 2n+2), the flipped order is the order of the
    images reversed, and the flipped walk runs on exactly those
    coordinates, so it is no second geometry."""
    phi = lambda p: P(2 * n + 2 - p.row, p.col)
    flipped, flipped_leq, flipped_coords = _points_order_coords(n, True)
    plain, _, plain_coords = _points_order_coords(n, False)
    assert sorted(map(phi, flipped)) == plain
    for p in flipped:
        x, y = plain_coords(phi(p))
        assert flipped_coords(p) == (-x, 2 * n + 2 - y)
    for a in flipped:
        for b in flipped:
            assert flipped_leq(a, b) == leq(phi(b), phi(a))
    walked = []
    monkeypatch.setattr(census, "_support_counts", lambda coords, size: walked.append(coords))
    flipped_support_counts(Rank(n))
    assert sorted(walked[0]) == sorted(map(flipped_coords, flipped))


class TestOracleFlipped:
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_flipped_subset_bruteforce(self, n):
        rank = Rank(n)
        for t in all_types():
            assert oracle_flipped(rank, t) == _brute_support_count(
                rank, t, flipped=True
            )

    def test_up_down_symmetry_examples(self):
        rank = Rank(2)
        for delta in ("|", "||"):
            assert oracle_flipped(rank, SupportType.b(1, delta)) == oracle_supports(
                rank, SupportType.c(delta, 1)
            )
        assert oracle_flipped(rank, SupportType.a(3)) == oracle_supports(
            rank, SupportType.a(3)
        )
        r1 = Rank(1)
        for delta in ("|", "||"):
            t = SupportType.d(1, delta, 1)
            assert oracle_flipped(r1, t) == oracle_supports(r1, t)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_mirror_table(self, n):
        rank = Rank(n)
        for t in all_types():
            assert oracle_flipped(rank, t) == oracle_supports(rank, mirror(t))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_census_mirrors_oracle_full(self, n):
        """The census walk, from chains and incomparable pairs, on the whole
        upside-down trapezoid with the degree of row 2n+2-i is the plain
        census with every type mirrored."""
        rank = Rank(n)
        deg = lambda p: trapezoid_degree(rank, P(2 * n + 2 - p.row, p.col))
        _, report = _census(_flipped_points(n), _flipped_leq, deg)
        plain = oracle_full(rank)
        flipped = flipped_support_counts(rank)
        assert report.total == plain.total
        assert report.n_by_degree == plain.n_by_degree
        assert report.n_by_shape == plain.n_by_shape
        for t in all_types():
            assert report.n_by_type[t] == plain.n_by_type[mirror(t)]
            assert report.n_by_type[t] == embeddings_per_support(2, t) * flipped[t]
        assert report.unclassified == 0


class TestFamilyCounts:
    """Each classified support carries exactly the predicted partitions."""

    def _supports_by_type(self, rank):
        pts = trapezoid_points(rank)
        found = {}
        for size in (2, 3, 4):
            for subset in combinations(pts, size):
                tag = classify_support(subset)
                if tag is not None:
                    found.setdefault(tag, []).append(subset)
        return found

    def test_exhaustive_at_n2(self):
        rank = Rank(2)
        found = self._supports_by_type(rank)
        checked = 0
        for tag, supports in found.items():
            for support in supports:
                partitions = [
                    pi
                    for pi in enumerate_partitions(list(support), 4)
                    if len(pi.support) == len(support)
                ]
                sizes = sorted(len(embeddings(pi, rank)) for pi in partitions)
                if tag.family == "A":
                    r = tag.r
                    expected_count = closed_forms.binomial(3, r - 1)
                    assert len(partitions) == expected_count
                    assert sizes == [r] * expected_count
                else:
                    # Exactly one partition reaches two embeddings (its pair
                    # points are simple); everything else embeds at most one.
                    winners = [
                        pi for pi in partitions if len(embeddings(pi, rank)) == 2
                    ]
                    assert len(winners) == closed_forms.binomial(
                        1, tag.r + tag.s - 1
                    )
                    assert all(len(embeddings(pi, rank)) <= 2 for pi in partitions)
                    pair = [
                        p
                        for p in support
                        if sum(
                            1
                            for q in support
                            if q != p and not leq(p, q) and not leq(q, p)
                        )
                    ]
                    for pi in winners:
                        assert all(pi.multiplicity(p) == 1 for p in pair)
                checked += len(partitions)
        assert checked > 0


def test_all_shapes_inventory():
    shapes = all_shapes((-1, -2, -3))
    assert len(shapes) == 15
    assert all(len(s) == 4 for s in shapes)
    assert len(set(shapes)) == 15
    degrees = sorted({sum(s) for s in shapes})
    assert degrees == list(range(-12, -3))
    assert shapes.index((-2, -2, -1, -1)) < shapes.index((-3, -1, -1, -1))


def test_shape_of_examples():
    rank = Rank(2)
    deg = lambda p: trapezoid_degree(rank, p)
    by_degree = {}
    for p in trapezoid_points(rank):
        by_degree.setdefault(deg(p), []).append(p)
    pi = ColoredPartition({by_degree[-3][0]: 2, by_degree[-2][0]: 1})
    assert shape_of(pi, deg) == (-3, -3, -2)
    assert shape_of(ColoredPartition({}), deg) == ()
    quad = ColoredPartition({by_degree[-1][0]: 3, by_degree[-1][1]: 1})
    assert shape_of(quad, deg) == (-1, -1, -1, -1)
    assert quad.degree(deg) == -4


def test_shape_sorted_most_negative_first():
    deg = lambda p: trapezoid_degree(Rank(1), p)
    pi = ColoredPartition({P(1, 1): 1, P(2, 2): 1, P(1, 3): 1})
    # Degrees -1, -2, -3 in some order; shape lists heaviest parts first.
    assert shape_of(pi, deg) == (-3, -2, -1)
