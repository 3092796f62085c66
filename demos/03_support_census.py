"""
Classifying supports and running the full census
================================================

Every partition with a positive count N has a support falling into one
of thirteen shapes: chains A(r), chains broken by one incomparable pair
near the bottom B(r, delta), near the top C(delta, s), or in the middle
D(r, delta, s), where delta records whether the pair shares a row.
This script classifies a few supports by hand, then runs the exhaustive
census and prints every table it produces.
"""

from cascade.census import classify_support, oracle_full, support_counts, all_types
from cascade.closed_forms import embeddings_per_support
from cascade.geometry import Rank, TrapezoidPoint

P = TrapezoidPoint

# Three small supports, classified point by point.  The pair {(1,1),(1,2)}
# shares row one, so delta is "|"; a pair on different rows gets "||".
examples = [
    [P(2, 1), P(1, 1), P(1, 2)],
    [P(2, 1), P(2, 2), P(1, 2)],
    [P(3, 1), P(2, 1), P(2, 2), P(1, 2)],
    [P(3, 1), P(2, 1), P(1, 1)],
    [P(1, 1), P(1, 2), P(1, 3)],
]
for support in examples:
    tag = classify_support(support)
    label = tag.key() if tag is not None else "unclassified"
    print(f"{[tuple(p) for p in support]} -> {label}")

# The census: N summed over all length-four partitions, bucketed three
# ways.  Rank two finishes in under a second.  Counting distinct supports
# never needs the partition walk: one chain-count walk on the order gives
# the count of every type directly.
rank = Rank(2)
report = oracle_full(rank)
counted = support_counts(rank)
print(f"\ncensus at n={rank.n}: total {report.total}, "
      f"unclassified {report.unclassified}")

print("\nby support type (count of partitions / distinct supports):")
for t in all_types():
    print(f"  {t.key():7s} {report.n_by_type[t]:6d}  on {counted[t]:4d} supports")

print("\nby total degree:")
for degree, value in report.n_by_degree.items():
    print(f"  {degree:4d}: {value}")

print("\nby shape (multiset of point degrees):")
for shape, value in report.n_by_shape.items():
    if value:
        print(f"  {shape}: {value}")

# Every support of a type carries the same N, so the census mass of a type
# is that coefficient times its support count.
print("\nsupport walk cross-check at n=2:")
for t in all_types()[:4]:
    assert report.n_by_type[t] == embeddings_per_support(2, t) * counted[t]
    print(f"  {t.key():7s} {counted[t]} supports (matches census)")
