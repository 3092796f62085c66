"""Acceptance gate: one test per shipped claim, at its stated budget.

Run `pytest -v tests/test_acceptance.py` for the one-line-per-criterion
view; add -s to see the PASS lines with measured runtimes.
"""
from __future__ import annotations

import time
from itertools import combinations

import pytest

from cascade import cli
from cascade.census import (
    all_types,
    classify_support,
    flipped_support_counts,
    mirror,
    oracle_full,
    support_counts,
)
from cascade.closed_forms import (
    binomial,
    dim_4theta_minus_alpha,
    dim_relation_space,
    dim_s_theta,
    embeddings_per_support,
    equivalence_identity,
    n_by_type_closed,
    n_total_closed,
    support_count_closed,
    weyl_dim,
)
from cascade.geometry import Rank, leq, trapezoid_points
from cascade.leading import embeddings, n_count
from cascade.partitions import enumerate_partitions

N9_TOTAL = 53905698
N12_TOTAL = 423955350


@pytest.fixture(scope="module")
def census_runs():
    """Full-census reports for n <= 5, one past the default cap, with runtimes."""
    reports, times = {}, {}
    for n in (1, 2, 3, 4, 5):
        start = time.perf_counter()
        reports[n] = oracle_full(Rank(n))
        times[n] = time.perf_counter() - start
    return reports, times


def test_criterion_01_smallest_rank_census(census_runs):
    reports, times = census_runs
    assert reports[1].total == 126
    assert times[1] < 0.1
    print(f"\nPASS criterion 1: n=1 census total 126 in {times[1]:.3f}s")


def test_criterion_02_rank_nine_support_walk():
    totals, times = {}, {}
    for n in (9, 12):
        rank = Rank(n)
        start = time.perf_counter()
        totals[n] = sum(embeddings_per_support(2, t) * c for t, c in support_counts(rank).items())
        times[n] = time.perf_counter() - start
    assert totals[9] == N9_TOTAL
    assert totals[12] == N12_TOTAL
    assert times[9] < 0.5
    assert times[12] < 1
    print(
        f"\nPASS criterion 2: n=9 walk total {totals[9]} in {times[9]:.1f}s, "
        f"n=12 total {totals[12]} in {times[12]:.1f}s"
    )


def test_criterion_03_oracles_agree(census_runs):
    reports, times = census_runs
    for n in (1, 2, 3, 4, 5):
        rank = Rank(n)
        report = reports[n]
        counted = support_counts(rank)
        for t in all_types():
            walked = embeddings_per_support(2, t) * counted[t]
            assert report.n_by_type[t] == walked, (n, t.key())
        assert report.total == n_total_closed(rank)
    assert reports[3].total == 40194
    assert reports[5].total == 980980
    assert times[3] < 1
    assert times[4] < 0.1
    assert times[5] < 0.3
    print(
        "\nPASS criterion 3: census and support walks agree for n=1..5 "
        f"(n=3 total 40194 in {times[3]:.2f}s, n=4 in {times[4]:.2f}s, "
        f"n=5 total 980980 in {times[5]:.2f}s)"
    )


def test_criterion_04_closed_sums_match_walks():
    start = time.perf_counter()
    closed = {
        (n, t): support_count_closed(Rank(n), t) for n in range(1, 25) for t in all_types()
    }
    sweep = time.perf_counter() - start
    assert sweep < 1
    for (n, t), count in closed.items():
        assert embeddings_per_support(2, t) * count == n_by_type_closed(Rank(n), t), (
            n,
            t.key(),
        )
    start = time.perf_counter()
    for n in range(1, 25):
        counted = support_counts(Rank(n))
        for t in all_types():
            assert closed[n, t] == counted[t], (n, t.key())
    elapsed = time.perf_counter() - start
    assert elapsed < 6
    print(
        "\nPASS criterion 4: closed nested sums match support walks, "
        f"13 types x n=1..24 ({elapsed:.1f}s, budget 6s); all 13 closed sums for "
        f"n=1..24 in {sweep:.2f}s (budget 1s)"
    )


def test_criterion_05_polynomials_match_weighted_sums():
    for n in range(1, 25):
        rank = Rank(n)
        for t in all_types():
            assert n_by_type_closed(rank, t) == embeddings_per_support(
                2, t
            ) * support_count_closed(rank, t), (n, t.key())
    print("\nPASS criterion 5: per-type polynomials = coefficient x closed sum, n=1..24")


def test_criterion_06_polynomials_sum_to_total():
    for n in range(1, 25):
        rank = Rank(n)
        assert sum(n_by_type_closed(rank, t) for t in all_types()) == n_total_closed(
            rank
        )
    print("\nPASS criterion 6: thirteen polynomials sum to the product form, n=1..24")


def test_criterion_07_weyl_dimensions():
    for n in range(1, 11):
        rank = Rank(n)
        for s in range(5):
            assert dim_s_theta(rank, s) == weyl_dim(rank, (2 * s,))
    for n in range(2, 11):
        rank = Rank(n)
        assert dim_4theta_minus_alpha(rank) == weyl_dim(rank, (7, 1))
    for n in range(1, 21):
        rank = Rank(n)
        assert dim_relation_space(rank) == (
            dim_s_theta(rank, 3) + dim_s_theta(rank, 4) + dim_4theta_minus_alpha(rank)
        )
    print(
        "\nPASS criterion 7: Weyl dimensions (s.theta n=1..10, (7,1) n=2..10, "
        "relation space n=1..20)"
    )


def test_criterion_08_equivalence_identity():
    for n in range(1, 101):
        assert equivalence_identity(Rank(n)), n
    print("\nPASS criterion 8: census total equals the dimension identity, n=1..100")


def test_criterion_09_classification_complete(census_runs):
    reports, _ = census_runs
    for n in (1, 2, 3, 4, 5):
        assert reports[n].unclassified == 0, n
    print("\nPASS criterion 9: every counted term classified, n=1..5")


def test_criterion_10_per_support_inventories():
    rank = Rank(2)
    start = time.perf_counter()
    pts = trapezoid_points(rank)
    supports_checked = 0
    for size in (2, 3, 4):
        for subset in combinations(pts, size):
            tag = classify_support(subset)
            if tag is None:
                continue
            partitions = [
                pi
                for pi in enumerate_partitions(list(subset), 4)
                if len(pi.support) == size
            ]
            counts = sorted(len(embeddings(pi, rank)) for pi in partitions)
            if tag.family == "A":
                expected = binomial(3, tag.r - 1)
                assert len(partitions) == expected, subset
                assert counts == [tag.r] * expected, subset
            else:
                winners = [c for c in counts if c == 2]
                assert len(winners) == binomial(1, tag.r + tag.s - 1), subset
                assert counts[-1] <= 2, subset
            supports_checked += 1
    elapsed = time.perf_counter() - start
    assert supports_checked > 0
    assert elapsed < 2
    print(
        f"\nPASS criterion 10: per-support inventories exhaustive at n=2, "
        f"{supports_checked} supports ({elapsed:.1f}s, budget 2s)"
    )


def test_criterion_11_up_down_symmetry():
    start = time.perf_counter()
    for n in range(1, 17):
        plain, flipped = support_counts(Rank(n)), flipped_support_counts(Rank(n))
        for t in all_types():
            assert flipped[t] == plain[mirror(t)], (n, t.key())
    elapsed = time.perf_counter() - start
    assert elapsed < 3
    print(
        "\nPASS criterion 11: flipped-region walks mirror plain walks, "
        f"n=1..16 ({elapsed:.1f}s, budget 3s)"
    )


def test_criterion_12_deterministic_output(tmp_path):
    renders = {}
    for command, extra in (
        ("verify", ["--n", "1..2"]),
        ("count", ["--n", "2"]),
    ):
        for fmt in ("text", "json", "csv"):
            outputs = []
            for run in (1, 2):
                target = tmp_path / f"{command}-{fmt}-{run}.txt"
                code = cli.main([command, *extra, "--format", fmt, "--out", str(target)])
                assert code == 0
                outputs.append(target.read_bytes())
            assert outputs[0] == outputs[1], (command, fmt)
            renders[command, fmt] = outputs[0]
    assert b"pass" in renders["verify", "text"]
    print("\nPASS criterion 12: verify and count byte-identical across two runs, 3 formats")


def test_criterion_13_relations_degree_by_degree(census_runs):
    """The census total 9R - 2V, with R the relation space and V the 4theta
    module, holds degree by degree and shape by shape."""
    reports, _ = census_runs
    for n in (1, 2, 3, 4, 5):
        rank = Rank(n)
        r, v = dim_relation_space(rank), dim_s_theta(rank, 4)
        by_degree = {d: r - v if d in (-4, -12) else r for d in range(-4, -13, -1)}
        assert reports[n].n_by_degree == by_degree, n
        for shape, value in reports[n].n_by_shape.items():
            if shape == (-3, -2, -2, -1):
                assert value == v, (n, shape)
            elif -3 in shape and -1 in shape:
                assert value == 0, (n, shape)
            elif len(set(shape)) == 1:
                assert value == r - v, (n, shape)
            else:
                assert value == r, (n, shape)
    print("\nPASS criterion 13: byDegree and byShape follow R and V, n=1..5")


def test_criterion_14_reference_path_totals():
    """N summed over every length-4 partition by its literal definition:
    N(pi) = #E(pi) - 1, with E(pi) the chain-supported length-3 sub-multisets."""
    start = time.perf_counter()
    sums = {}
    for n in (1, 2):
        rank = Rank(n)
        partitions = list(enumerate_partitions(trapezoid_points(rank), 4))
        sums[n] = (len(partitions), sum(n_count(pi, rank) for pi in partitions))
    elapsed = time.perf_counter() - start
    assert sums == {1: (495, 126), 2: (40920, 3990)}
    assert elapsed < 0.5
    print(
        "\nPASS criterion 14: reference path sums N to 126 over 495 partitions "
        f"at n=1 and 3990 over 40920 at n=2 ({elapsed:.2f}s, budget 0.5s)"
    )
