"""Tests for the support classifier and the two brute-force oracles.

The full oracle is cross-checked here against a from-scratch reference that
knows nothing about multiplicity patterns or bitmasks: it enumerates the
same partitions and recomputes N(pi) through the embeddings machinery.
"""
from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cascade import census, closed_forms
from cascade.census import (
    SupportType,
    all_shapes,
    all_types,
    classify_support,
    mirror,
    oracle_flipped,
    oracle_full,
    oracle_supports,
    n_by_type_from_supports,
)
from cascade.geometry import Rank, TrapezoidPoint, leq, trapezoid_degree, trapezoid_points
from cascade.leading import n_count
from cascade.partitions import ColoredPartition, enumerate_partitions, shape_of
from cascade.leading import embeddings

P = TrapezoidPoint


class TestSupportType:
    def test_keys_round_trip(self):
        for key in census.TYPE_KEYS:
            assert SupportType.from_key(key).key() == key
        t = SupportType.from_key("D3||2")
        assert (t.family, t.r, t.delta, t.s) == ("D", 3, "||", 2)
        assert SupportType.from_key("C||4") == SupportType.c("||", 4)

    def test_invalid_keys_rejected(self):
        for bad in ("", "A", "A1", "E2", "B2", "C2|", "B|2", "D1|", "D|1|1", "A2|"):
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

    @pytest.mark.parametrize("n", [1, 2])
    def test_bitmask_twin_matches_point_classifier(self, n):
        region = census._region(n, False)
        pts = region.points
        for size in (1, 2, 3, 4):
            for ids in combinations(range(len(pts)), size):
                expected = classify_support([pts[i] for i in ids])
                assert region.classify(ids) == expected

    def test_flipped_region_classifier_agrees_with_flipped_leq(self):
        region = census._region(1, True)
        pts = region.points
        for size in (2, 3):
            for ids in combinations(range(len(pts)), size):
                expected = classify_support(
                    [pts[i] for i in ids], leq=census._flipped_leq
                )
                assert region.classify(ids) == expected


def _naive_census(rank: Rank, points):
    """Reference full census over the given points, built directly on the
    embeddings machinery."""
    deg = lambda p: trapezoid_degree(rank, p)
    by_type = {t: 0 for t in all_types()}
    by_degree = {}
    by_shape = {}
    sigma = {t: 0 for t in all_types()}
    seen_supports = set()
    total = 0
    unclassified = 0
    for pi in enumerate_partitions(points, 4):
        n_pi = n_count(pi, rank)
        if not n_pi:
            continue
        total += n_pi
        tag = classify_support(pi.support)
        if tag is None:
            unclassified += n_pi
        else:
            by_type[tag] += n_pi
            if pi.support not in seen_supports:
                seen_supports.add(pi.support)
                sigma[tag] += 1
        by_degree[pi.degree(deg)] = by_degree.get(pi.degree(deg), 0) + n_pi
        shape = shape_of(pi, deg)
        by_shape[shape] = by_shape.get(shape, 0) + n_pi
    return total, unclassified, by_type, by_degree, by_shape, sigma


class TestOracleFull:
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_naive_reference(self, n):
        rank = Rank(n)
        report = oracle_full(rank)
        total, unclassified, by_type, by_degree, by_shape, sigma = _naive_census(
            rank, trapezoid_points(rank)
        )
        assert report.total == total
        assert report.unclassified == unclassified == 0
        assert report.n_by_type == by_type
        assert {d: v for d, v in report.n_by_degree.items() if v} == by_degree
        assert {s: v for s, v in report.n_by_shape.items() if v} == by_shape
        assert report.sigma == sigma

    def test_n1_frozen_values(self):
        report = oracle_full(Rank(1))
        assert report.total == 126
        assert report.n_by_type[SupportType.a(2)] == 48
        assert report.n_by_degree == {
            -4: 7, -5: 16, -6: 16, -7: 16, -8: 16, -9: 16, -10: 16, -11: 16, -12: 7,
        }
        assert report.sigma[SupportType.a(2)] == 16
        assert report.sigma[SupportType.b(1, "|")] == 11

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
        assert list(report.n_by_shape) == all_shapes()
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


@given(st.sampled_from([2, 3]), st.data())
@settings(max_examples=60, deadline=None)
def test_census_walk_matches_naive_reference_on_subsets(n, data):
    """The bitmask walk against n_count on a random subset of the trapezoid."""
    rank = Rank(n)
    points = data.draw(
        st.lists(st.sampled_from(trapezoid_points(rank)), unique=True, max_size=10),
        label="points",
    )
    region = census._Region(points, leq, lambda p: trapezoid_degree(rank, p))
    report = census._census(rank, region)
    expected = _naive_census(rank, points)
    assert (report.total, report.unclassified, report.n_by_type) == expected[:3]
    assert {d: v for d, v in report.n_by_degree.items() if v} == expected[3]
    assert {s: v for s, v in report.n_by_shape.items() if v} == expected[4]
    assert report.sigma == expected[5]


@given(st.integers(min_value=1, max_value=6), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_orders_are_dominance_orders(n, flipped, data):
    """Both cone orders compare two coordinates: leq(a, b) holds exactly when
    P_a <= P_b and Q_a <= Q_b, with (P, Q) = (-col, col + row) on the
    trapezoid and (col, row - col) on the upside-down trapezoid."""
    points = census._region(n, flipped).points
    a = data.draw(st.sampled_from(points), label="a")
    b = data.draw(st.sampled_from(points), label="b")
    if flipped:
        order, coords = census._flipped_leq, lambda p: (p.col, p.row - p.col)
    else:
        order, coords = leq, lambda p: (-p.col, p.col + p.row)
    (pa, qa), (pb, qb) = coords(a), coords(b)
    assert order(a, b) == (pa <= pb and qa <= qb)


def _brute_support_count(rank: Rank, t: SupportType, flipped: bool = False) -> int:
    if flipped:
        region = census._region(rank.n, True).points
        order = census._flipped_leq
    else:
        region = trapezoid_points(rank)
        order = leq
    return sum(
        1
        for subset in combinations(region, t.size)
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

    def test_sigma_from_full_oracle_agrees(self):
        report = oracle_full(Rank(2))
        for t in all_types():
            assert report.sigma[t] == oracle_supports(Rank(2), t)

    def test_n_by_type_from_supports_examples(self):
        rank = Rank(1)
        assert n_by_type_from_supports(rank, SupportType.a(2)) == 16 * 3 == 48
        assert n_by_type_from_supports(rank, SupportType.b(1, "|")) == 11
        assert n_by_type_from_supports(rank, SupportType.a(3)) == 8 * 6 == 48


@given(
    st.integers(min_value=1, max_value=2),
    st.booleans(),
    st.data(),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=100, deadline=None)
def test_chain_count_matches_classified_subsets(n, flipped, data, size):
    """The chain-count recursion against validating every candidate subset."""
    region = census._region(n, flipped)
    m = len(region.points)
    mask = data.draw(st.integers(min_value=0, max_value=(1 << m) - 1), label="mask")
    pts = [p for i, p in enumerate(region.points) if (mask >> i) & 1]
    if size == 0:
        expected = 1
    elif size == 1:
        expected = len(pts)
    else:
        order = census._flipped_leq if flipped else leq
        expected = sum(
            1
            for subset in combinations(pts, size)
            if classify_support(subset, leq=order) == SupportType.a(size)
        )
    assert census._chains(region, mask, size, {}) == expected


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
    shapes = all_shapes()
    assert len(shapes) == 15
    assert all(len(s) == 4 for s in shapes)
    assert len(set(shapes)) == 15
    degrees = sorted({sum(s) for s in shapes})
    assert degrees == list(range(-12, -3))
