"""
Colored partitions, embeddings and the count N
==============================================

A colored partition is a finite multiset of region points.  For each
partition of length four the library counts its embeddings: the
leading terms of length three that divide the partition itself.  The
integer N attached to the partition is one less than that embedding
count (floored at zero), and summing N over all length-four partitions
is the census everything else cross-checks.
"""

from cascade.geometry import Rank, TrapezoidPoint, trapezoid_points
from cascade.leading import embeddings, enumerate_leading_terms, is_leading_term, n_count
from cascade.partitions import ColoredPartition, enumerate_partitions

rank = Rank(1)
region = trapezoid_points(rank)

# How many multisets of each length live on the rank-one region?
for length in (1, 2, 3, 4):
    count = sum(1 for _ in enumerate_partitions(region, length))
    print(f"multisets of length {length}: {count}")

# A leading term is a chain multiset of length k+1 = 3: every pair of
# distinct support points comparable in the cone order.
leading = list(enumerate_leading_terms(rank, region))
print(f"\nleading terms at n=1: {len(leading)}")
by_support_size = {}
for term in leading:
    by_support_size[len(term.support)] = by_support_size.get(len(term.support), 0) + 1
print(f"  by support size: {by_support_size}")

# Pick a partition and walk through its count by hand.
x, y, z = TrapezoidPoint(1, 1), TrapezoidPoint(1, 2), TrapezoidPoint(2, 1)
pi = ColoredPartition({x: 1, y: 1, z: 2})
print(f"\npartition {{x, y, z^2}} with x={tuple(x)}, y={tuple(y)}, z={tuple(z)}")
embs = embeddings(pi, rank)
for term in embs:
    parts = [tuple(p) for p in term.points]
    print(f"  embedding: {parts}  (chain? {is_leading_term(term, rank)})")
print(f"  N = {n_count(pi, rank)}  (embeddings minus one)")

# A fourth power embeds exactly once, so it contributes nothing.
fourth = ColoredPartition({x: 4})
print(f"\nfourth power at {tuple(x)}: {len(embeddings(fourth, rank))} embedding, "
      f"N = {n_count(fourth, rank)}")

# Two incomparable squares embed not at all.
squares = ColoredPartition({x: 2, y: 2})
print(f"incomparable squares: {len(embeddings(squares, rank))} embeddings, "
      f"N = {n_count(squares, rank)}")

# The full census at rank one: N summed over every length-four
# partition of the region.
total = sum(n_count(p, rank) for p in enumerate_partitions(region, 4))
print(f"\nsum of N over all length-4 partitions at n=1: {total}")
