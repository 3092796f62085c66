"""Closed-form counts: nested chain sums, per-type polynomials, Weyl dimensions.

Everything here is exact integer arithmetic.  The nested sums mirror the
displayed counting formulas bound for bound, so an empty range contributes
exactly 0 and structurally impossible parameters need no special casing.
Each distinct inner chain sum is evaluated once per call: by anchor row, and
by (start, depth) inside a chain, in caches local to the call.
Every division is checked: a nonzero remainder means a transcription fault,
not a rounding issue, and raises immediately.
"""
from __future__ import annotations

from functools import cache
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


def _gap_chain(start: int, p: int, length: int, low: Callable[[int], int],
               tail: Callable[[int], int], memo: dict) -> int:
    """Sum over strictly descending tails i_p > ... > i_length below start.

    Each step multiplies by the gap factor (i_{p-1} - i_p + 1); the innermost
    value is fed to tail.  An exhausted range contributes 0, an already
    complete chain (p > length) contributes tail(start).  Values for p <=
    length are memoised on (start, p) in the caller's memo, so one memo must
    serve exactly one (low, tail) pair.
    """
    if p > length:
        return tail(start)
    total = memo.get((start, p))
    if total is None:
        total = 0
        for i in range(low(p), start):
            total += (start - i + 1) * _gap_chain(i, p + 1, length, low, tail, memo)
        memo[start, p] = total
    return total


def _one(_: int) -> int:
    return 1


def _upper_chain(n: int, length: int, low: Callable[[int], int], anchor: int) -> int:
    """Chains hanging below the top edge: i_1 in [low(1), 2n+1], weighted by
    the row width (4n+1-i_1), gap factors, and the landing gap to the anchor."""
    memo: dict = {}
    total = 0
    for i1 in range(low(1), 2 * n + 2):
        total += (4 * n + 1 - i1) * _gap_chain(
            i1, 2, length, low, lambda last: last - anchor + 1, memo
        )
    return total


def _anchored_chains(length: int, low: Callable[[int], int]) -> Callable[[int], int]:
    """Chains starting at or below an anchor row, by anchor: l_1 in
    [low(1), anchor], weighted by the gap (anchor - l_1 + 1) and then
    descending gap factors.  Neither low nor the tail depends on the anchor,
    so every anchor shares one gap memo."""
    memo: dict = {}

    def chain(anchor: int) -> int:
        total = 0
        for l1 in range(low(1), anchor + 1):
            total += (anchor - l1 + 1) * _gap_chain(l1, 2, length, low, _one, memo)
        return total

    return cache(chain)


def _sum_a(n: int, r: int) -> int:
    memo: dict = {}
    total = 0
    for i1 in range(r, 2 * n + 2):
        total += (4 * n + 1 - i1) * _gap_chain(i1, 2, r, lambda p: r - p + 1, _one, memo)
    return total


def _sum_b_same(n: int, r: int) -> int:
    upper = cache(lambda a: _upper_chain(n, r, lambda p: a + r - p, a))
    total = 0
    for d in range(1, 2 * n + 2 - r):
        for ell in range(1, 2 * n + 3 - d - r):
            total += upper(ell + d)
    return total


def _sum_c_same(n: int, r: int) -> int:
    lower = _anchored_chains(r, lambda p: r - p + 1)
    total = 0
    for d in range(1, 2 * n + 2 - r):
        for ell in range(d + r, 2 * n + 2):
            total += (4 * n + 1 - ell - d) * lower(ell - d)
    return total


def _sum_d_same(n: int, r: int, s: int) -> int:
    upper = cache(lambda a: _upper_chain(n, r, lambda p: a - r + p, a))
    lower = _anchored_chains(s, lambda q: s - q + 1)
    total = 0
    for d in range(1, (2 * n + 2 - r - s) // 2 + 1):
        for ell in range(s + d, 2 * n + 3 - r - d):
            total += upper(ell + d) * lower(ell - d)
    return total


def _sum_b_diff(n: int, r: int) -> int:
    upper = cache(lambda a: _upper_chain(n, r, lambda p: a + r - p, a))
    total = 0
    for d in range(1, 2 * n + 1 - r):
        for h in range(1, 2 * n + 2 - d - r):
            for ell in range(h + 1, 2 * n + 3 - d - r):
                total += upper(ell + d)
    return 2 * total


def _sum_c_diff(n: int, r: int) -> int:
    lower = _anchored_chains(r, lambda p: r - p + 1)
    total = 0
    for d in range(1, 2 * n + 1 - r):
        for h in range(1, 2 * n + 2 - d - r):
            for ell in range(d + h + r, 2 * n + 2):
                total += (4 * n + 1 - ell - d) * lower(ell - d - h)
    return 2 * total


def _sum_d_diff(n: int, r: int, s: int) -> int:
    upper = cache(lambda a: _upper_chain(n, r, lambda p: a - r + p, a))
    lower = _anchored_chains(s, lambda q: s - q + 1)
    total = 0
    for d in range(1, (2 * n + 1 - r - s) // 2 + 1):
        for h in range(1, 2 * n + 3 - 2 * d - r - s):
            for ell in range(s + d + h, 2 * n + 3 - r - d):
                total += upper(ell + d) * lower(ell - d - h)
    return 2 * total


def support_count_closed(rank: Rank, t) -> int:
    """Closed nested-sum count of supports of type t in the trapezoid.

    The sums are evaluated with their bounds taken literally, so parameters
    too large for the trapezoid yield empty ranges and count 0.
    """
    rank.validate()
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
    rank.validate()
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
    """The grand total 7(10n-1)/4 * C(2n+6, 7)."""
    rank.validate()
    n = rank.n
    return _exact_div(
        7 * (10 * n - 1) * binomial(2 * n + 6, 7), 4, f"total at n={n}"
    )


def weyl_dim(rank: Rank, lam: Sequence[int]) -> int:
    """Weyl dimension of the symplectic irreducible with highest weight lam.

    lam is given in epsilon coordinates, at most n entries, weakly decreasing
    and nonnegative; shorter tuples are padded with zeros.
    """
    rank.validate()
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
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"polynomial transcription fault: weyl at {lam}")
    return q


def dim_s_theta(rank: Rank, s: int) -> int:
    """Closed dimension C(2n+2s-1, 2s) of the module generated by s copies
    of the highest root."""
    rank.validate()
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    return binomial(2 * rank.n + 2 * s - 1, 2 * s)


def dim_4theta_minus_alpha(rank: Rank) -> int:
    """Closed dimension (2n+7)(n-1)/4 * C(2n+5, 6) of the weight (7, 1)
    irreducible."""
    rank.validate()
    n = rank.n
    return _exact_div(
        (2 * n + 7) * (n - 1) * binomial(2 * n + 5, 6), 4, f"(7,1) at n={n}"
    )


def dim_relation_space(rank: Rank) -> int:
    """Dimension 2n * C(2n+6, 7) of the degree-4 relation space.

    Computed twice: the product form, and the sum of its three irreducible
    constituents.  A mismatch means a transcribed dimension is wrong.
    """
    rank.validate()
    n = rank.n
    product = 2 * n * binomial(2 * n + 6, 7)
    parts = (
        dim_s_theta(rank, 3) + dim_s_theta(rank, 4) + dim_4theta_minus_alpha(rank)
    )
    if product != parts:
        raise ArithmeticError("tri-sum identity violated")
    return parts


def equivalence_identity(rank: Rank) -> bool:
    """Check 9 * dim(relation space) - 2 * dim(4 theta module) == N total."""
    rank.validate()
    lhs = 9 * dim_relation_space(rank) - 2 * dim_s_theta(rank, 4)
    return lhs == n_total_closed(rank)
