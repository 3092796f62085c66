"""Command-line front end: verification suites, count tables, array renderings.

verify (--n INT|A..B) checks every identity per rank, count (--n INT,
--types-only) emits one rank's census table and print-array (--n INT,
--coords) renders the triangles; verify and count also take --format
json|csv|text and --oracle-cap N (full census up to rank N, 0 for none),
and all three take --out.  main checks the parsed arguments once, each
rank by constructing its Rank, and passes the namespace to its handler.

Every command runs in one process.  Output is fully deterministic for a
fixed configuration: no timings, fixed key orders everywhere.  Exit codes
follow CI conventions: 0 all checks pass, 1 an identity fails (a mismatch,
or a closed form raising ArithmeticError, each reported as a FAIL row), 2
usage error or a report that cannot be written.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from functools import cache

from . import census, closed_forms, geometry
from .census import SupportType, all_types, mirror
from .geometry import Rank

_RANGE_RE = re.compile(r"^(\d+)\.\.(\d+)$")


def _parse_n(text: str) -> tuple[int, ...]:
    m = _RANGE_RE.match(text)
    if m:
        return tuple(range(int(m.group(1)), int(m.group(2)) + 1))
    if text.isdigit():
        return (int(text),)
    raise argparse.ArgumentTypeError(f"expected INT or A..B, got {text!r}")


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit(text: str, out: str | None) -> int:
    """Write the report to stdout or to the --out file.

    Returns 0, or 2 with a reported error when the report cannot be written."""
    try:
        if out is None:
            sys.stdout.write(text)
        else:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except OSError as exc:
        target = out or "stdout"
        return _usage_error(f"cannot write report to {target}: {exc.strerror or exc}")
    return 0


def _shape_key(shape: tuple[int, ...]) -> str:
    return "+".join(str(-d) for d in sorted(shape))


def _shape_order() -> list[tuple[int, ...]]:
    # Lightest total degree first; within a degree, lexicographic on the
    # descending-absolute reading, so "2+2+1+1" precedes "3+1+1+1".
    return sorted(
        census.all_shapes(), key=lambda sh: (-sum(sh), tuple(-d for d in sorted(sh)))
    )


class _Checks:
    """Accumulates verification rows and renders them in any format."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, str, str, object, object]] = []

    def add(self, n: int, check: str, key: str, expected, got) -> None:
        self.rows.append((n, check, key, expected, got))

    @property
    def failures(self) -> list[tuple[int, str, str, object, object]]:
        return [row for row in self.rows if row[3] != row[4]]

    def render_text(self) -> str:
        lines = []
        current_n = None
        for n, check, key, expected, got in self.rows:
            if n != current_n:
                lines.append(f"n={n}")
                current_n = n
            if expected == got:
                lines.append(f"ok {check} {key} {got}")
            else:
                lines.append(
                    f"FAIL {check} {key} n={n} expected {expected} got {got}"
                )
        bad = len(self.failures)
        if bad:
            lines.append(f"FAIL {bad} of {len(self.rows)} checks")
        else:
            lines.append(f"pass {len(self.rows)} checks")
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        results = [
            {
                "n": n,
                "check": check,
                "key": key,
                "expected": expected,
                "got": got,
                "ok": expected == got,
            }
            for n, check, key, expected, got in self.rows
        ]
        return json.dumps({"results": results, "pass": not self.failures}, indent=2) + "\n"

    def render_csv(self) -> str:
        # The writer quotes a fault message that carries a comma.
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("check", "n", "key", "expected", "got", "status"))
        for n, check, key, expected, got in self.rows:
            status = "ok" if expected == got else "FAIL"
            writer.writerow((check, n, key, expected, got, status))
        return buf.getvalue()

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.render_json()
        if fmt == "csv":
            return self.render_csv()
        return self.render_text()


def cmd_verify(args: argparse.Namespace) -> int:
    """Run every identity check for each rank in the range."""
    checks = _Checks()
    for rank in args.n:
        _verify_rank(checks, rank, args.oracle_cap)
    return _emit(checks.render(args.fmt), args.out) or (1 if checks.failures else 0)


def _verify_rank(checks: _Checks, rank: Rank, cap: int) -> None:
    """Add the check rows of one rank; the full census runs for n <= cap.

    A closed form raising ArithmeticError (an inexact division or a broken
    internal identity) ends the rank with one FAIL row of the running check
    that carries the message.  Each closed value is computed once, where a
    check first needs it, so a fault is still reported by that check.
    """
    n = rank.n
    types = all_types()
    total_closed = cache(lambda: closed_forms.n_total_closed(rank))
    type_closed = cache(lambda t: closed_forms.n_by_type_closed(rank, t))
    support_closed = cache(lambda t: closed_forms.support_count_closed(rank, t))
    check = "full-census"
    try:
        # Full-census comparison, affordable only up to the cap.
        if n <= cap:
            report = census.oracle_full(rank)
            checks.add(n, check, "total", total_closed(), report.total)
            checks.add(n, check, "unclassified", 0, report.unclassified)
            for t in types:
                checks.add(n, check, t.key(), type_closed(t), report.n_by_type[t])
            checks.add(n, check, "degree-sum", report.total, sum(report.n_by_degree.values()))
            checks.add(n, check, "shape-sum", report.total, sum(report.n_by_shape.values()))
        # Support walks against the closed nested sums.
        check = "support-count"
        counted: dict[str, int] = {}
        for t in types:
            counted[t.key()] = census.oracle_supports(rank, t)
            checks.add(n, check, t.key(), support_closed(t), counted[t.key()])
        oracle_total = sum(
            closed_forms.embeddings_per_support(rank.k, t) * counted[t.key()] for t in types
        )
        checks.add(n, check, "oracle-total", total_closed(), oracle_total)
        # Coefficient times closed sum against the per-type polynomial.
        check = "type-count"
        for t in types:
            checks.add(
                n,
                check,
                t.key(),
                type_closed(t),
                closed_forms.embeddings_per_support(rank.k, t) * support_closed(t),
            )
        # Sum of the thirteen polynomials against the product form.
        check = "total-sum"
        checks.add(n, check, "all", total_closed(), sum(type_closed(t) for t in types))
        # Weyl dimension cross-checks.
        check = "weyl"
        for s in range(5):
            checks.add(
                n,
                check,
                f"{s}theta",
                closed_forms.dim_s_theta(rank, s),
                closed_forms.weyl_dim(rank, (2 * s,)),
            )
        if n >= 2:
            checks.add(
                n,
                check,
                "7+1",
                closed_forms.dim_4theta_minus_alpha(rank),
                closed_forms.weyl_dim(rank, (7, 1)),
            )
        checks.add(
            n,
            check,
            "relation-space",
            2 * n * closed_forms.binomial(2 * n + 6, 7),
            closed_forms.dim_relation_space(rank),
        )
        check = "equivalence"
        checks.add(n, check, "identity", True, closed_forms.equivalence_identity(rank))
        # Up-down symmetry: flipped walk equals the mirrored plain walk.
        check = "flipped"
        for t in types:
            checks.add(
                n, check, t.key(), counted[mirror(t).key()], census.oracle_flipped(rank, t)
            )
    except ArithmeticError as exc:
        checks.add(n, check, "error", "no error", str(exc))


def _count_payload(rank: Rank, types_only: bool):
    """Ordered (section, rows) pairs plus the total."""
    if types_only:
        by_type = {
            t.key(): census.n_by_type_from_supports(rank, t) for t in all_types()
        }
        return [("byType", by_type)], sum(by_type.values())
    report = census.oracle_full(rank)
    by_type = {t.key(): report.n_by_type[t] for t in all_types()}
    by_degree = {str(d): v for d, v in report.n_by_degree.items()}
    by_shape = {_shape_key(s): report.n_by_shape[s] for s in _shape_order()}
    return (
        [("byType", by_type), ("byDegree", by_degree), ("byShape", by_shape)],
        report.total,
    )


def cmd_count(args: argparse.Namespace) -> int:
    """Emit the census table for a single rank."""
    (rank,) = args.n
    if not args.types_only and rank.n > args.oracle_cap:
        return _usage_error(
            f"n={rank.n} exceeds the full-oracle cap {args.oracle_cap}; "
            "use --types-only or raise --oracle-cap"
        )
    sections, total = _count_payload(rank, args.types_only)
    if args.fmt == "json":
        doc: dict = {"n": rank.n}
        for name, rows in sections:
            doc[name] = rows
        doc["total"] = total
        text = json.dumps(doc, indent=2) + "\n"
    elif args.fmt == "csv":
        lines = ["key,count"]
        for _, rows in sections:
            lines.extend(f"{key},{value}" for key, value in rows.items())
        lines.append(f"total,{total}")
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"n {rank.n}"]
        for name, rows in sections:
            lines.append(name)
            lines.extend(f"  {key} {value}" for key, value in rows.items())
        lines.append(f"total {total}")
        text = "\n".join(lines) + "\n"
    return _emit(text, args.out)


def cmd_print_array(args: argparse.Namespace) -> int:
    """Render the three root-labelled triangles, coordinates on request."""
    (rank,) = args.n
    n = rank.n
    blocks = []
    for d in (1, 2, 3):
        lines = [f"triangle {d}"]
        # Odd triangles point up (apex first); even ones hang upside down.
        order = range(2 * n, 0, -1) if d % 2 == 1 else range(1, 2 * n + 1)
        for local_row in order:
            labels = [
                "{},{}".format(*geometry.root_label(rank, local_row, local_col))
                for local_col in range(1, 2 * n + 2 - local_row)
            ]
            lines.append(" ".join(labels))
        blocks.append("\n".join(lines))
    if args.coords:
        lines = ["trapezoid"]
        for row in range(2 * n + 1, 0, -1):
            cells = []
            for col in range(1, 4 * n + 2 - row):
                p = geometry.strip_local(rank, row, col)
                cells.append(f"{p.d}:{p.local_row},{p.local_col}")
            lines.append(" ".join(cells))
        blocks.append("\n".join(lines))
    return _emit("\n\n".join(blocks) + "\n", args.out)


def _add_command(commands, name: str, run, summary: str, *, report: bool = True):
    """A subcommand with --n and --out, plus --format and --oracle-cap for
    the commands whose report they shape."""
    sub = commands.add_parser(name, help=summary)
    sub.set_defaults(run=run)
    sub.add_argument(
        "--n", type=_parse_n, required=True, metavar="INT|A..B",
        help="rank, or inclusive range like 1..3",
    )
    if report:
        sub.add_argument(
            "--format", choices=("json", "csv", "text"), default="text", dest="fmt"
        )
        sub.add_argument(
            "--oracle-cap", type=int, default=4, metavar="N",
            help="largest rank given the exhaustive census (0 = none)",
        )
    sub.add_argument("--out", default=None, help="write the report to a file")
    return sub


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cascade",
        description="Exact census and closed-form verification of embedding counts.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    _add_command(commands, "verify", cmd_verify, "run every identity check")

    p_count = _add_command(commands, "count", cmd_count, "emit the census table")
    p_count.add_argument(
        "--types-only", action="store_true", dest="types_only",
        help="count by support walks only (scales past the full-oracle cap)",
    )

    p_array = _add_command(
        commands, "print-array", cmd_print_array,
        "render the root-labelled triangles", report=False,
    )
    p_array.add_argument(
        "--coords", action="store_true",
        help="also print the trapezoid in strip coordinates",
    )

    args = parser.parse_args(argv)
    if not args.n:
        return _usage_error("empty rank range")
    try:
        args.n = tuple(map(Rank, args.n))
    except ValueError as exc:
        return _usage_error(str(exc))
    if args.command != "print-array" and args.oracle_cap < 0:
        return _usage_error(f"oracle cap must be >= 0, got {args.oracle_cap}")
    if args.command != "verify" and len(args.n) != 1:
        return _usage_error(f"{args.command} takes a single --n value")
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
