"""Closed-form counts: nested chain sums, per-type polynomials, Weyl dimensions.

Everything here is exact integer arithmetic.  The nested sums mirror the
displayed counting formulas bound for bound, so an empty range contributes
exactly 0 and structurally impossible parameters need no special casing.
Each inner sum over a contiguous range is read off running sums of g(i)
and i * g(i); a gap chain is built bottom up, one depth at a time, by
sum_{lo <= i < s} (s - i + 1) g(i) = (s + 1) sum g(i) - sum i g(i).
Every division is checked: a nonzero remainder means a transcription fault,
not a rounding issue, and raises immediately.
"""
from __future__ import annotations

from math import comb
from typing import Callable, Sequence

from .geometry import Rank


def binomial(a: int, b: int) -> int:
    """Binomial coefficient, 0 outside the triangle 0 <= b <= a."""
    if b < 0 or a < 0 or b > a:
        return 0
    return comb(a, b)


def embeddings_per_support(k: int, t) -> int:
    """How much N each support of type t contributes, at charge level k.

    Counts the leading terms dividing a generic partition on the support,
    minus one, summed over the partitions the support carries.
    """
    if t.family == "A":
        return (t.r - 1) * binomial(k + 1, t.r - 1)
    if t.family in ("B", "C"):
        return binomial(k - 1, t.r - 1)
    return binomial(k - 1, t.r + t.s - 1)


def _running_sums(g: dict[int, int], lo: int) -> tuple[dict[int, int], dict[int, int]]:
    """Sums of g(i) and of i * g(i) over lo <= i <= s, for every row s of g,
    whose rows ascend one by one."""
    sums, moments, total, moment = {}, {}, 0, 0
    for s, value in g.items():
        if s >= lo:
            total += value
            moment += s * value
        sums[s], moments[s] = total, moment
    return sums, moments


def _gap_chains(length: int, low: Callable[[int], int], tail: Callable[[int], int],
                top: int) -> dict[int, int]:
    """Sum over strictly descending tails i_2 > ... > i_length below each
    start row s, for s from the lowest bound up to top.

    Depth length + 1 is tail(s).  Depth p is sum_{low(p) <= i < s}
    (s - i + 1) g(i) over depth p + 1, for every s at once from the
    running sums; an exhausted range contributes 0.
    """
    g = {s: tail(s) for s in range(min(map(low, range(1, length + 1))), top + 1)}
    for p in range(length, 1, -1):
        sums, moments = _running_sums(g, low(p))
        g = {s: (s + 1) * sums.get(s - 1, 0) - moments.get(s - 1, 0) for s in g}
    return g


def _upper_anchored(n: int, r: int, low: Callable[[int], int]) -> dict[int, int]:
    """Chains hanging below the top edge, by anchor row a in [2, 2n+2-r]:
    i_1 in [a + low(1), 2n+1], weighted by the row width (4n+1-i_1), gap
    factors with i_p >= a + low(p), and the landing gap (i_r - a + 1).  The
    anchor only shifts every row, i = a + j, so one table in j serves all
    anchors: upper(a) = sum_{low(1) <= j <= 2n+1-a} (4n+1-a-j) g(j)."""
    sums, moments = _running_sums(_gap_chains(r, low, lambda j: j + 1, 2 * n - 1), low(1))
    return {
        a: (4 * n + 1 - a) * sums[2 * n + 1 - a] - moments[2 * n + 1 - a]
        for a in range(2, 2 * n + 3 - r)
    }


def _anchored_chains(length: int, low: Callable[[int], int], top: int) -> dict[int, int]:
    """Chains starting at or below an anchor row, by anchor up to top: l_1
    in [low(1), anchor], weighted by the gap (anchor - l_1 + 1) and then
    descending gap factors.  Neither low nor the tail depends on the anchor,
    so every anchor reads one table."""
    sums, moments = _running_sums(_gap_chains(length, low, lambda _: 1, top), low(1))
    return {a: (a + 1) * sums[a] - moments[a] for a in sums}


def _sum_a(n: int, r: int) -> int:
    g = _gap_chains(r, lambda p: r - p + 1, lambda _: 1, 2 * n + 1)
    return sum((4 * n + 1 - i1) * g[i1] for i1 in range(r, 2 * n + 2))


def _sum_b_same(n: int, r: int) -> int:
    upper = _upper_anchored(n, r, lambda p: r - p)
    total = 0
    for d in range(1, 2 * n + 2 - r):
        for ell in range(1, 2 * n + 3 - d - r):
            total += upper[ell + d]
    return total


def _sum_c_same(n: int, r: int) -> int:
    lower = _anchored_chains(r, lambda p: r - p + 1, 2 * n + 1)
    total = 0
    for d in range(1, 2 * n + 2 - r):
        for ell in range(d + r, 2 * n + 2):
            total += (4 * n + 1 - ell - d) * lower[ell - d]
    return total


def _sum_d_same(n: int, r: int, s: int) -> int:
    upper = _upper_anchored(n, r, lambda p: p - r)
    lower = _anchored_chains(s, lambda q: s - q + 1, 2 * n + 1)
    total = 0
    for d in range(1, (2 * n + 2 - r - s) // 2 + 1):
        for ell in range(s + d, 2 * n + 3 - r - d):
            total += upper[ell + d] * lower[ell - d]
    return total


def _sum_b_diff(n: int, r: int) -> int:
    # The range over ell of upper(ell + d) is a difference of running sums.
    above, _ = _running_sums(_upper_anchored(n, r, lambda p: r - p), 2)
    total = 0
    for d in range(1, 2 * n + 1 - r):
        for h in range(1, 2 * n + 2 - d - r):
            total += above[2 * n + 2 - r] - above[h + d]
    return 2 * total


def _sum_c_diff(n: int, r: int) -> int:
    # With j = ell - d - h the weight is (4n+1-2d-h) - j for r <= j <= 2n+1-d-h.
    sums, moments = _running_sums(
        _anchored_chains(r, lambda p: r - p + 1, 2 * n + 1), r
    )
    total = 0
    for d in range(1, 2 * n + 1 - r):
        for h in range(1, 2 * n + 2 - d - r):
            top = 2 * n + 1 - d - h
            total += (4 * n + 1 - 2 * d - h) * sums[top] - moments[top]
    return 2 * total


def _sum_d_diff(n: int, r: int, s: int) -> int:
    upper = _upper_anchored(n, r, lambda p: p - r)
    lower = _anchored_chains(s, lambda q: s - q + 1, 2 * n + 1)
    total = 0
    for d in range(1, (2 * n + 1 - r - s) // 2 + 1):
        for h in range(1, 2 * n + 3 - 2 * d - r - s):
            for ell in range(s + d + h, 2 * n + 3 - r - d):
                total += upper[ell + d] * lower[ell - d - h]
    return 2 * total


def support_count_closed(rank: Rank, t) -> int:
    """Closed nested-sum count of supports of type t in the trapezoid.

    The sums are evaluated with their bounds taken literally, so parameters
    too large for the trapezoid yield empty ranges and count 0.
    """
    n = rank.n
    if t.family == "A":
        return _sum_a(n, t.r)
    if t.family == "B":
        return _sum_b_same(n, t.r) if t.delta == "|" else _sum_b_diff(n, t.r)
    if t.family == "C":
        return _sum_c_same(n, t.r) if t.delta == "|" else _sum_c_diff(n, t.r)
    return (
        _sum_d_same(n, t.r, t.s) if t.delta == "|" else _sum_d_diff(n, t.r, t.s)
    )


# Per-type N polynomials for k = 2: numerator coefficients by descending
# power of n (constant term 0 throughout), then the denominator.
_POLYS: dict[str, tuple[tuple[int, ...], int]] = {
    "A2": ((20, 60, 19, -3, 0), 2),
    "A3": ((56, 420, 590, -225, -151, 30, 0), 15),
    "A4": ((48, 672, 2296, 0, -4613, 798, 1009, -210, 0), 280),
    "B1|": ((48, 140, 120, 25, -3, 0), 30),
    "B2|": ((128, 952, 1652, 490, -553, -182, 33, 0), 630),
    "B1||": ((56, 132, 50, -45, -16, 3, 0), 45),
    "B2||": ((144, 992, 840, -1456, -1239, 518, 255, -54, 0), 1260),
    "C|1": ((8, 20, 10, -5, -3, 0), 6),
    "C|2": ((16, 112, 160, -20, -101, -2, 15, 0), 90),
    "C||1": ((16, 32, 0, -20, -1, 3, 0), 15),
    "C||2": ((32, 208, 112, -392, -182, 217, 38, -33, 0), 315),
    "D1|1": ((256, 1512, 2884, 1575, -686, -567, 66, 0), 2520),
    "D1||1": ((72, 368, 448, -322, -707, -28, 187, -18, 0), 1260),
}


def _exact_div(num: int, den: int, what: str) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"polynomial transcription fault: {what}")
    return q


def n_by_type_closed(rank: Rank, t) -> int:
    """Evaluate the closed N polynomial for one of the thirteen types."""
    if rank.k != 2:
        raise ValueError(f"the N polynomials are for level 2; needs k=2, got k={rank.k}")
    key = t.key()
    try:
        coeffs, den = _POLYS[key]
    except KeyError:
        raise ValueError(f"no closed polynomial for type {key}") from None
    acc = 0
    for c in coeffs:
        acc = acc * rank.n + c
    return _exact_div(acc, den, f"{key} at n={rank.n}")


def n_total_closed(rank: Rank) -> int:
    """The grand total 7(10n-1)/4 * C(2n+6, 7), for level 2."""
    if rank.k != 2:
        raise ValueError(f"the closed total is for level 2; needs k=2, got k={rank.k}")
    n = rank.n
    return _exact_div(
        7 * (10 * n - 1) * binomial(2 * n + 6, 7), 4, f"total at n={n}"
    )


def weyl_dim(rank: Rank, lam: Sequence[int]) -> int:
    """Weyl dimension of the symplectic irreducible with highest weight lam.

    lam is given in epsilon coordinates, at most n entries, weakly decreasing
    and nonnegative; shorter tuples are padded with zeros.
    """
    n = rank.n
    lam = tuple(lam)
    if len(lam) > n:
        raise ValueError(f"weight has {len(lam)} parts, rank allows {n}")
    lam = lam + (0,) * (n - len(lam))
    if any(lam[i] < lam[i + 1] for i in range(n - 1)) or lam[-1] < 0:
        raise ValueError(f"not a dominant weight: {lam}")
    a = [lam[i] + n - i for i in range(n)]
    b = [n - i for i in range(n)]
    num = den = 1
    for i in range(n):
        num *= a[i]
        den *= b[i]
        for j in range(i + 1, n):
            num *= (a[i] - a[j]) * (a[i] + a[j])
            den *= (b[i] - b[j]) * (b[i] + b[j])
    return _exact_div(num, den, f"weyl at {lam}")


def dim_s_theta(rank: Rank, s: int) -> int:
    """Closed dimension C(2n+2s-1, 2s) of the module generated by s copies
    of the highest root."""
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    return binomial(2 * rank.n + 2 * s - 1, 2 * s)


def dim_4theta_minus_alpha(rank: Rank) -> int:
    """Closed dimension (2n+7)(n-1)/4 * C(2n+5, 6) of the weight (7, 1)
    irreducible."""
    n = rank.n
    return _exact_div(
        (2 * n + 7) * (n - 1) * binomial(2 * n + 5, 6), 4, f"(7,1) at n={n}"
    )


def dim_relation_space(rank: Rank) -> int:
    """Dimension 2n * C(2n+6, 7) of the degree-4 relation space; verify
    checks it against the sum of its three irreducible constituents."""
    return 2 * rank.n * binomial(2 * rank.n + 6, 7)


def equivalence_identity(rank: Rank) -> bool:
    """Check 9 * dim(relation space) - 2 * dim(4 theta module) == N total."""
    lhs = 9 * dim_relation_space(rank) - 2 * dim_s_theta(rank, 4)
    return lhs == n_total_closed(rank)
