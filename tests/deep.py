"""The deep lane: re-runnable mutants of the program, beside Tier-1.

Each entry of MUTANTS is a deliberate fault: a file under the repository
root, an exact old text that occurs once in it, the new text that replaces
it and the tests that must catch it.  For each entry the script copies the
tree to a temporary directory, applies the entry there and runs all its
tests with pytest.  The mutant is killed when a test fails and survives when
all pass; a survivor is a missing test.  The script prints each outcome and,
below it, the node ids of the tests that failed: the mutant's killers.  It
exits 1 if any mutant survives or cannot be run (its old text is gone, or
pytest ends in an error rather than a test failure).

Each mutant of census.py also runs the user's own check, `cascade verify
--n 1..5 --oracle-cap 5`, on the mutated copy, and the script prints its
exit code and how it ended: in a FAIL row, in a traceback, or passing.
That line is a report; it does not change the exit code.

Each entry of CHECKS is a deep check, too slow for Tier-1, run on the tree
itself: it returns None when it holds and a message when it does not, and a
failed check makes the script exit 1 as a surviving mutant does.

    python3 tests/deep.py                  # every entry
    python3 tests/deep.py NAME [NAME ...]  # the named entries

pytest does not collect this file.  tests/test_deep.py checks that each old
text occurs exactly once in today's source, so a refactor carries the
catalogue along.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
CENSUS = "src/cascade/census.py"
NAIVE = "tests/test_census.py::TestOracleFull::test_matches_naive_reference"
UNCLASSIFIED = "tests/test_census.py::TestOracleFull::test_unclassified_bucket_is_walked"
SUBSETS = "tests/test_census.py::TestOracleSupports::test_matches_subset_bruteforce"
LEADING = "src/cascade/leading.py"
PARTITIONS = "src/cascade/partitions.py"
ACROSS_RANKS = "tests/test_leading.py::test_embeddings_match_uncached_chain_filter_across_ranks"
GEOMETRY = "src/cascade/geometry.py"
CLI = "src/cascade/cli.py"
INIT = "src/cascade/__init__.py"
BAD_KEYS = "tests/test_census.py::TestSupportType::test_invalid_keys_rejected"
VERIFY = ("-m", "cascade.cli", "verify", "--n", "1..5", "--oracle-cap", "5")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS: tuple[Mutant, ...] = (
    # The census walk's pair heads: one tally per side, expanded under the shape.
    Mutant(
        "pair-head-spread-like-chain", CENSUS,
        "pool = degs if chain else (d,)", "pool = degs",
        (NAIVE,),
    ),
    Mutant(
        "pair-sides-swapped", CENSUS,
        "((1, 0, above), (0, 1, below),", "((1, 0, below), (0, 1, above),",
        (NAIVE,),
    ),
    Mutant(
        "pair-neither-side-dropped", CENSUS,
        ", (0, 0, both ^ above ^ below))", ")",
        (UNCLASSIFIED,),
    ),
    Mutant(
        "shape-key-unsorted", CENSUS,
        "key = (tag, tuple(sorted((*degs, *extra))))", "key = (tag, (*degs, *extra))",
        (NAIVE,),
    ),
    Mutant(
        "pair-head-n-is-head-length", CENSUS,
        "n_pi = len(head) if chain else 1", "n_pi = len(head)",
        (NAIVE,),
    ),
    # The walk's head classes: each key's completions run once, weighted by
    # its number of heads.  On a transitive order a pair's points comparable
    # to both are those above or below both; only a non-transitive one tells.
    Mutant(
        "pair-key-without-both", CENSUS,
        "key = (ci & comp[c], up[i] & up[c], down[i] & down[c],",
        "key = (up[i] & up[c] | down[i] & down[c], up[i] & up[c], down[i] & down[c],",
        (UNCLASSIFIED,),
    ),
    Mutant(
        "group-weight-dropped", CENSUS,
        "(mask & level).bit_count() * times", "(mask & level).bit_count()",
        (NAIVE,),
    ),
    Mutant(
        "chain-key-without-first-degree", CENSUS,
        "key = (ci & later[j], di, degrees[j])", "key = (ci & later[j], degrees[j], degrees[j])",
        (NAIVE,),
    ),
    # The support walk's column-pair sweep and its quadrant tables.
    Mutant(
        "sweep-pointer-advances-on-equal-y", CENSUS,
        "while i < len(cs) and cs[i] < y:", "while i < len(cs) and cs[i] <= y:",
        (SUBSETS,),
    ),
    Mutant(
        "sweep-pointer-not-reset", CENSUS,
        "total = same = 0\n    for (xb, bs), (xc, cs) in combinations(columns.items(), 2):\n"
        "        passed = i = 0",
        "total = same = i = 0\n    for (xb, bs), (xc, cs) in combinations(columns.items(), 2):\n"
        "        passed = 0",
        (SUBSETS,),
    ),
    Mutant(
        "quadrant-right-not-carried", CENSUS,
        "quadrant[x, y] = right[y] = column + right[y]", "quadrant[x, y] = column + right[y]",
        (SUBSETS,),
    ),
    # The literal reference path: one process-wide set of tested picks, and
    # partitions built from the sorted region.
    Mutant(
        "chain-picks-unfiltered", LEADING,
        "_CHAIN_PICKS.update(filter(is_chain, new))", "_CHAIN_PICKS.update(new)",
        ("tests/test_leading.py::test_embeddings_incomparable_squares", ACROSS_RANKS),
    ),
    Mutant(
        "chain-picks-only-new", LEADING,
        "return picks & _CHAIN_PICKS", "return new & _CHAIN_PICKS",
        (ACROSS_RANKS,),
    ),
    Mutant(
        "partitions-region-unsorted", PARTITIONS,
        "combinations_with_replacement(sorted(region), length)",
        "combinations_with_replacement(region, length)",
        ("tests/test_partitions.py::test_enumerate_partitions_of_unsorted_region",),
    ),
    # The value classes' checks, the key parsers and the lean start-up.
    Mutant(
        "rank-check-dropped", GEOMETRY,
        '        if n < 1:\n            raise ValueError(f"rank must be >= 1, got {n}")\n', "",
        ("tests/test_geometry.py::test_rank_validation",
         "tests/test_cli.py::TestVerify::test_rank_zero_rejected"),
    ),
    Mutant(
        "support-type-check-dropped", CENSUS,
        '            if r < 2:\n                raise ValueError(f"A requires a chain of >= 2, got {r}")\n',
        "",
        ("tests/test_census.py::TestSupportType::test_constructor_validation", BAD_KEYS),
    ),
    Mutant(
        "key-re-not-full", CENSUS,
        "_KEY_RE.fullmatch(key)", "_KEY_RE.match(key)",
        (BAD_KEYS,),
    ),
    Mutant(
        "range-re-not-full", CLI,
        "_RANGE_RE.fullmatch(text)", "_RANGE_RE.match(text)",
        ("tests/test_cli.py::TestVerify::test_range_with_trailing_newline_rejected",),
    ),
    Mutant(
        "partitions-imported-eagerly", INIT,
        "from .census import CensusReport, SupportType, classify_support\n",
        "from .census import CensusReport, SupportType, classify_support\n"
        "from .partitions import ColoredPartition\n",
        ("tests/test_stdlib_only.py::test_cli_startup_loads_only_what_it_runs",),
    ),
    # One path per job: the relation-space row, the shared strip bounds, the
    # validated value classes and the FAIL row for every fault in a check.
    Mutant(
        "relation-space-row-from-product", CLI,
        "parts = theta(3) + theta(4) + minus_alpha()",
        "parts = closed_forms.dim_relation_space(rank)",
        ("tests/test_cli.py::TestVerify::test_broken_constituent_is_a_relation_space_fail_row",),
    ),
    Mutant(
        "root-label-unchecked", GEOMETRY,
        "    _check_local(rank, local_row, local_col)\n    n = rank.n\n    signed",
        "    n = rank.n\n    signed",
        ("tests/test_geometry.py::test_root_label_out_of_range",),
    ),
    Mutant(
        "make-skips-checks", GEOMETRY,
        "return cls(*iterable)", "return tuple.__new__(cls, iterable)",
        ("tests/test_geometry.py::test_rank_is_built_only_through_its_checks",
         "tests/test_census.py::TestSupportType::test_built_only_through_its_checks"),
    ),
    Mutant(
        "eq-accepts-tuples", GEOMETRY,
        "return type(other) is type(self) and tuple.__eq__(self, other)",
        "return tuple.__eq__(self, other)",
        ("tests/test_geometry.py::test_rank_equals_no_plain_tuple",
         "tests/test_census.py::TestSupportType::test_equals_no_plain_tuple"),
    ),
    Mutant(
        "verify-catches-arithmetic-only", CLI,
        "except (ArithmeticError, LookupError) as exc:", "except ArithmeticError as exc:",
        ("tests/test_cli.py::TestVerify::test_walk_lookup_fault_is_fail_row",),
    ),
)


def _verify_ending(copy: Path, env: dict[str, str]) -> str:
    """Run the verify command on the copy: its exit code and its ending."""
    proc = subprocess.run(
        [sys.executable, *VERIFY], cwd=copy, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if "Traceback" in proc.stderr:
        ending = "traceback"
    elif any(line.startswith("FAIL ") for line in proc.stdout.splitlines()):
        ending = "FAIL row"
    else:
        ending = "passes"
    return f"exit {proc.returncode}, {ending}"


def run(mutant: Mutant) -> tuple[str, list[str], str | None]:
    """Apply one mutant to a fresh copy of the tree and run all its tests:
    "killed", "survived", or why it could not be run, the node ids of the
    tests that failed or ended in an error, and, for a mutant of census.py,
    how the verify command ended on the copy."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, copy,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis"),
        )
        target = copy / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "old text does not occur exactly once", [], None
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        ending = _verify_ending(copy, env) if mutant.path == CENSUS else None
    # Summary lines read "FAILED <node id> - <message>" (or ERROR).
    killers = [
        line.split(" - ")[0].split(" ", 1)[1]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    outcome = {0: "survived", 1: "killed"}.get(proc.returncode, f"pytest exit {proc.returncode}")
    return outcome, killers, ending


def literal_table_at_rank_three() -> str | None:
    """The literal definition against the census walk at n=3, the first rank
    with all 113 cells: N(pi) by n_count over all 720 720 length-4
    partitions, summed by (type key or None, shape), must equal _walk's
    table cell by cell."""
    sys.path.insert(0, str(ROOT / "src"))
    from cascade import census, geometry
    from cascade.leading import n_count
    from cascade.partitions import enumerate_partitions

    rank = geometry.Rank(3)
    points = geometry.trapezoid_points(rank)
    degree = {p: geometry.trapezoid_degree(rank, p) for p in points}
    literal: dict[tuple, int] = {}
    for pi in enumerate_partitions(points, 4):
        n_pi = n_count(pi, rank)
        if n_pi:
            t = census.classify_support(pi.support)
            key = (t and t.key(), tuple(sorted(degree[p] for p in pi.points)))
            literal[key] = literal.get(key, 0) + n_pi
    walked = census._walk(points, geometry.leq, [degree[p] for p in points])
    wrong = sorted(
        (k for k in literal.keys() | walked.keys() if literal.get(k) != walked.get(k)), key=repr
    )
    if not wrong:
        return None
    first = wrong[0]
    return f"{len(wrong)} cells differ; {first}: literal {literal.get(first)}, walk {walked.get(first)}"


CHECKS = {"literal-table-n3": literal_table_at_rank_three}


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS} - CHECKS.keys()
    if unknown:
        print(f"unknown entries: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    failed = 0
    for mutant in chosen:
        outcome, killers, ending = run(mutant)
        print(f"{mutant.name}: {outcome}", *(f"  {k}" for k in killers), sep="\n")
        if ending:
            print(f"  verify: {ending}")
        sys.stdout.flush()
        failed += outcome != "killed"
    if chosen:
        print(f"{failed} of {len(chosen)} mutants not killed")
    checks = [name for name in CHECKS if not names or name in names]
    broken = 0
    for name in checks:
        fault = CHECKS[name]()
        print(f"{name}: {fault or 'holds'}")
        broken += fault is not None
    if checks:
        print(f"{broken} of {len(checks)} deep checks failed")
    return 1 if failed or broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
