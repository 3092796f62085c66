"""Correctness checks on the reports the benchmark's operations produce.

Every expected number here is computed by the benchmark itself from the
paper's formulas with ``math.comb``; nothing is compared against a stored
copy of an earlier run.  Each ``check_*`` function returns a list of
problems, empty when the report is correct.
"""
from __future__ import annotations

import json
import re
from math import comb

# The thirteen support types, in the program's report order.
TYPE_KEYS = (
    "A2", "A3", "A4",
    "B1|", "B2|", "B1||", "B2||",
    "C|1", "C|2", "C||1", "C||2",
    "D1|1", "D1||1",
)

_KEY_RE = re.compile(
    r"^(?:A(?P<a>\d+)|B(?P<br>\d+)(?P<bd>\|\|?)|C(?P<cd>\|\|?)(?P<cr>\d+)"
    r"|D(?P<dr>\d+)(?P<dd>\|\|?)(?P<ds>\d+))$"
)


def _exact_quarter(num: int) -> int:
    q, rem = divmod(num, 4)
    if rem:
        raise ArithmeticError(f"{num} is not divisible by 4")
    return q


def total(n: int) -> int:
    """The grand total 7(10n-1)/4 * C(2n+6, 7)."""
    return _exact_quarter(7 * (10 * n - 1) * comb(2 * n + 6, 7))


def dim_s_theta(n: int, s: int) -> int:
    """C(2n+2s-1, 2s)."""
    return comb(2 * n + 2 * s - 1, 2 * s)


def dim_7_1(n: int) -> int:
    """(2n+7)(n-1)/4 * C(2n+5, 6)."""
    return _exact_quarter((2 * n + 7) * (n - 1) * comb(2 * n + 5, 6))


def dim_relation_space(n: int) -> int:
    """2n * C(2n+6, 7)."""
    return 2 * n * comb(2 * n + 6, 7)


def region_size(n: int) -> int:
    """Points in the rank-n trapezoid: 3n(2n+1)."""
    return 3 * n * (2 * n + 1)


def _parse_key(key: str) -> dict:
    m = _KEY_RE.match(key)
    if m is None:
        raise ValueError(f"not a support-type key: {key!r}")
    return m.groupdict()


def mirror(key: str) -> str:
    """The type a support maps to under the up-down flip: B and C swap,
    D swaps its two chains, A stays."""
    g = _parse_key(key)
    if g["a"] is not None:
        return key
    if g["br"] is not None:
        return f"C{g['bd']}{g['br']}"
    if g["cr"] is not None:
        return f"B{g['cr']}{g['cd']}"
    return f"D{g['ds']}{g['dd']}{g['dr']}"


def coefficient(key: str) -> int:
    """N carried by one support of the type at k=2: (r-1)C(3, r-1) for a
    chain A(r), C(1, r-1) for B and C, C(1, r+s-1) for D."""
    g = _parse_key(key)
    if g["a"] is not None:
        r = int(g["a"])
        return (r - 1) * comb(3, r - 1)
    if g["br"] is not None or g["cr"] is not None:
        return comb(1, int(g["br"] or g["cr"]) - 1)
    return comb(1, int(g["dr"]) + int(g["ds"]) - 1)


def _load(report: bytes) -> tuple[object, list[str]]:
    try:
        return json.loads(report), []
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return None, [f"report is not JSON: {exc}"]


def _equal(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _sum_types(rows: dict, what: str, problems: list[str]) -> int | None:
    if sorted(rows) != sorted(TYPE_KEYS):
        problems.append(f"{what}: type keys {sorted(rows)} are not the thirteen types")
        return None
    return sum(rows.values())


def check_verify(report: bytes, ns: tuple[int, ...]) -> list[str]:
    """``cascade verify --format json`` over ranks ``ns``, all below the
    full-oracle cap."""
    doc, problems = _load(report)
    if doc is None:
        return problems
    _equal(problems, "pass", doc.get("pass"), True)
    rows: dict[tuple[int, str, str], dict] = {}
    for row in doc.get("results", []):
        rows[(row["n"], row["check"], row["key"])] = row
        if not row.get("ok") or row["expected"] != row["got"]:
            problems.append(f"row {row['n']} {row['check']} {row['key']} fails")
    if sorted({n for n, _, _ in rows}) != sorted(ns):
        problems.append(f"ranks {sorted({n for n, _, _ in rows})}, expected {list(ns)}")

    def got(n: int, check: str, key: str):
        row = rows.get((n, check, key))
        if row is None:
            problems.append(f"row {n} {check} {key} missing")
            return None
        return row["got"]

    for n in ns:
        want = total(n)
        _equal(problems, f"n={n} full-census total", got(n, "full-census", "total"), want)
        by_type = {k: got(n, "full-census", k) for k in TYPE_KEYS}
        if None not in by_type.values():
            _equal(problems, f"n={n} full-census byType sum", sum(by_type.values()), want)
        _equal(problems, f"n={n} oracle total", got(n, "support-count", "oracle-total"), want)
        _equal(problems, f"n={n} total-sum", got(n, "total-sum", "all"), want)
        for key in TYPE_KEYS:
            _equal(
                problems,
                f"n={n} flipped {key}",
                got(n, "flipped", key),
                got(n, "support-count", mirror(key)),
            )
        for s in range(5):
            _equal(problems, f"n={n} weyl {s}theta", got(n, "weyl", f"{s}theta"), dim_s_theta(n, s))
        if n >= 2:
            _equal(problems, f"n={n} weyl 7+1", got(n, "weyl", "7+1"), dim_7_1(n))
        _equal(
            problems, f"n={n} relation space",
            got(n, "weyl", "relation-space"), dim_relation_space(n),
        )
        _equal(problems, f"n={n} equivalence", got(n, "equivalence", "identity"), True)
    return problems


def check_types_only(report: bytes, n: int) -> list[str]:
    """``cascade count --types-only --format json`` at rank ``n``."""
    doc, problems = _load(report)
    if doc is None:
        return problems
    _equal(problems, "n", doc.get("n"), n)
    _equal(problems, "total", doc.get("total"), total(n))
    type_sum = _sum_types(doc.get("byType", {}), "byType", problems)
    if type_sum is not None:
        _equal(problems, "byType sum", type_sum, total(n))
    return problems


def check_closed_forms(report: bytes, ns: tuple[int, ...]) -> list[str]:
    """The closed-form sweep written by ``op.py closed-forms``."""
    doc, problems = _load(report)
    if doc is None:
        return problems
    ranks = doc.get("ranks", [])
    _equal(problems, "ranks", [r.get("n") for r in ranks], list(ns))
    for r in ranks:
        n = r["n"]
        want = total(n)
        _equal(problems, f"n={n} total", r["total"], want)
        type_sum = _sum_types(r["byType"], f"n={n} byType", problems)
        if type_sum is not None:
            _equal(problems, f"n={n} byType sum", type_sum, want)
        for key in TYPE_KEYS:
            support = r["supportCount"].get(key)
            weighted = None if support is None else coefficient(key) * support
            _equal(problems, f"n={n} type-count {key}", r["typeCount"].get(key), weighted)
            _equal(problems, f"n={n} byType {key}", r["byType"].get(key), weighted)
        weyl = r["weyl"]
        for s in range(5):
            for side in ("closed", "weyl"):
                _equal(problems, f"n={n} {s}theta {side}", weyl[f"{s}theta"][side], dim_s_theta(n, s))
        if n >= 2:
            for side in ("closed", "weyl"):
                _equal(problems, f"n={n} 7+1 {side}", weyl["7+1"][side], dim_7_1(n))
        _equal(problems, f"n={n} relation space", weyl["relation-space"], dim_relation_space(n))
        _equal(problems, f"n={n} equivalence", r["equivalence"], True)
    return problems


def check_brute_force(report: bytes, ns: tuple[int, ...]) -> list[str]:
    """The partition walk written by ``op.py brute-force``."""
    doc, problems = _load(report)
    if doc is None:
        return problems
    ranks = doc.get("ranks", [])
    _equal(problems, "ranks", [r.get("n") for r in ranks], list(ns))
    for r in ranks:
        n = r["n"]
        _equal(problems, f"n={n} partitions", r["partitions"], comb(region_size(n) + 3, 4))
        _equal(problems, f"n={n} total", r["total"], total(n))
    return problems


def check_identical(reports: list[bytes]) -> list[str]:
    """Repeated runs of one operation must print byte-identical reports."""
    return [
        f"report of run {i + 1} differs from run 1"
        for i, report in enumerate(reports)
        if report != reports[0]
    ]
