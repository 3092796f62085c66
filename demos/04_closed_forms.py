"""
Closed formulas for every table the census produces
===================================================

The brute-force walks of the census have exact closed counterparts:
nested sums over row indices for the number of supports of each type,
one polynomial in the rank per type for the partition counts, and a
single product formula for the grand total.  This script evaluates all
of them and confirms they reproduce the walks.
"""

from cascade.census import SupportType, all_types, support_counts
from cascade.closed_forms import (
    embeddings_per_support,
    n_by_type_closed,
    n_total_closed,
    support_count_closed,
)
from cascade.geometry import Rank

# Closed nested sums against the chain-count walk, rank by rank.
print("supports of each type: closed sum vs walk")
for n in (1, 2, 3):
    rank = Rank(n)
    counted = support_counts(rank)
    row = []
    for t in all_types():
        closed = support_count_closed(rank, t)
        assert closed == counted[t]
        row.append(f"{t.key()}={closed}")
    print(f"  n={n}: " + " ".join(row))

# Each support of a given type carries a fixed number of partitions;
# the per-type count is that coefficient times the support count.
print("\nembedding coefficients at k=2:")
for t in all_types():
    count = embeddings_per_support(2, t)
    noun = "partition" if count == 1 else "partitions"
    print(f"  {t.key():7s} carries {count} {noun} per support")

# The thirteen per-type polynomials and the product-form total.
print("\nper-type polynomial values:")
for n in (1, 2, 3, 10):
    rank = Rank(n)
    values = {t.key(): n_by_type_closed(rank, t) for t in all_types()}
    total = n_total_closed(rank)
    assert sum(values.values()) == total
    print(f"  n={n}: total {total}")
    print(f"        {values}")

# The closed sums are generic in their parameters: shapes beyond the
# thirteen that appear at length four evaluate just as well.
print("\ngeneric shapes at n=3:")
for key in ("A5", "A6", "B3|", "C||3", "D2|2"):
    t = SupportType.from_key(key)
    print(f"  {key:5s} {support_count_closed(Rank(3), t)} supports")
