"""
The root-labelled triangular array and its cone order
=====================================================

The whole library lives on one combinatorial region: a trapezoid of
lattice points that unrolls into a strip of alternating up/down
triangles, each point carrying a pair of signed indices as its label.
This script builds the region at small rank and prints every view of it.
"""

from cascade.geometry import (
    Rank,
    leq,
    root_label,
    strip_global,
    strip_local,
    trapezoid_degree,
    trapezoid_points,
)



# The region at rank n has 2n+1 rows; row i (counted from the bottom)
# holds 4n+1-i points, for 3n(2n+1) points in total.
rank = Rank(2)
points = trapezoid_points(rank)
print(f"rank n={rank.n}: {len(points)} points in {2 * rank.n + 1} rows")

# Rows top-down, so the picture matches how the array is usually drawn.
print("\ntrapezoid rows (top row first):")
for row in range(2 * rank.n + 1, 0, -1):
    width = 4 * rank.n + 1 - row
    print(f"  row {row}: cols 1..{width}")

# Every point sits in one of three triangles glued side by side.  The
# odd triangles point up, the even one hangs upside down between them.
# strip_local recovers (triangle, local row, local column) from
# trapezoid coordinates; strip_global inverts it.
print("\nstrip decomposition of the top row:")
for col in range(1, 2 * rank.n + 1):
    p = strip_local(rank, 2 * rank.n + 1, col)
    assert strip_global(rank, p) == (2 * rank.n + 1, col)
    print(f"  ({2 * rank.n + 1},{col}) -> triangle {p.d}, "
          f"local ({p.local_row},{p.local_col})")

# Each triangle position carries a label: a pair drawn from the signed
# alphabet +1..+n, -n..-1.  Printing the first triangle apex-down to
# apex-up shows the familiar staircase of pairs.
print("\ntriangle 1, apex first:")
for local_row in range(2 * rank.n, 0, -1):
    labels = [
        "{},{}".format(*root_label(rank, local_row, local_col))
        for local_col in range(1, 2 * rank.n + 2 - local_row)
    ]
    print("  " + "  ".join(labels))

# The cone order: a point sits below another exactly when it lies in
# the downward cone the higher point spans.  Comparable pairs are the
# raw material of every chain count later on.
from cascade.geometry import TrapezoidPoint

a, b, c = TrapezoidPoint(1, 2), TrapezoidPoint(3, 1), TrapezoidPoint(1, 6)
print(f"\ncone order samples: {tuple(a)} <= {tuple(b)}: {leq(a, b)}; "
      f"{tuple(c)} <= {tuple(b)}: {leq(c, b)}; "
      f"{tuple(a)} <= {tuple(c)}: {leq(a, c)}")

# The cone of a point meets each lower row in a window of columns.
top = max(points, key=lambda p: (p.row, p.col))
for row in (top.row - 1, 1):
    cols = [q.col for q in points if q.row == row and leq(q, top)]
    print(f"cone of {tuple(top)} meets row {row} in cols {cols}")

# Finally the degree: -1, -2 or -3 according to the triangle the point
# lives in.  Degrees grade every census the library produces.
by_degree = {}
for p in points:
    by_degree.setdefault(trapezoid_degree(rank, p), 0)
by_degree = {d: sum(1 for p in points if trapezoid_degree(rank, p) == d)
             for d in sorted(by_degree)}
print(f"\npoints per degree: {by_degree}")
