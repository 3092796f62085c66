"""The benchmark's workloads, and the child process that runs one operation.

Every workload is a fixed set of ranks: the census is exact and has no
random input, so every seed gives the same operations.  One operation is
one fresh process.  The two command-line workloads run the ``cascade``
command exactly as a user would; the two library workloads run a function
of this file as ``python3 bench/workloads.py NAME``.

The same file runs an operation with tracing (``--trace FILE``) and the
region-build probe (``--probe``); both are only used by the traced run.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import checks

VERIFY_RANKS = (1, 2, 3, 4)
TYPES_ONLY_RANK = 7
CLOSED_FORM_RANKS = tuple(range(1, 25))
BRUTE_FORCE_RANKS = (1, 2)


@dataclass(frozen=True)
class Workload:
    name: str
    # Arguments to the cascade command, or None for a library operation.
    cli_args: tuple[str, ...] | None
    check: Callable[[bytes], list[str]]
    # (rank, flipped) regions the operation walks, for the region-build probe.
    regions: tuple[tuple[int, bool], ...] = ()


def closed_forms_sweep() -> dict:
    """Every closed-form check ``cascade verify`` makes, without the walks."""
    from cascade import closed_forms as cf
    from cascade.census import SupportType
    from cascade.geometry import Rank

    types = {key: SupportType.from_key(key) for key in checks.TYPE_KEYS}
    ranks = []
    for n in CLOSED_FORM_RANKS:
        rank = Rank(n, 2)
        support = {key: cf.support_count_closed(rank, t) for key, t in types.items()}
        weyl: dict[str, object] = {
            f"{s}theta": {"closed": cf.dim_s_theta(rank, s), "weyl": cf.weyl_dim(rank, (2 * s,))}
            for s in range(5)
        }
        if n >= 2:
            weyl["7+1"] = {
                "closed": cf.dim_4theta_minus_alpha(rank),
                "weyl": cf.weyl_dim(rank, (7, 1)),
            }
        weyl["relation-space"] = cf.dim_relation_space(rank)
        ranks.append({
            "n": n,
            "total": cf.n_total_closed(rank),
            "byType": {key: cf.n_by_type_closed(rank, t) for key, t in types.items()},
            "supportCount": support,
            "typeCount": {
                key: cf.embeddings_per_support(2, t) * support[key] for key, t in types.items()
            },
            "weyl": weyl,
            "equivalence": cf.equivalence_identity(rank),
        })
    return {"ranks": ranks}


def brute_force() -> dict:
    """N summed over every length-4 partition, by the reference path."""
    from cascade import geometry, leading, partitions
    from cascade.geometry import Rank

    ranks = []
    for n in BRUTE_FORCE_RANKS:
        rank = Rank(n, 2)
        count = total = 0
        for pi in partitions.enumerate_partitions(geometry.trapezoid_points(rank), 4):
            count += 1
            total += leading.n_count(pi, rank)
        ranks.append({"n": n, "partitions": count, "total": total})
    return {"ranks": ranks}


LIBRARY_OPS: dict[str, Callable[[], dict]] = {
    "closed-forms": closed_forms_sweep,
    "brute-force": brute_force,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-small",
            ("verify", "--n", f"{VERIFY_RANKS[0]}..{VERIFY_RANKS[-1]}", "--format", "json"),
            lambda report: checks.check_verify(report, VERIFY_RANKS),
            tuple((n, flipped) for n in VERIFY_RANKS for flipped in (False, True)),
        ),
        Workload(
            "types-only",
            ("count", "--n", str(TYPES_ONLY_RANK), "--types-only", "--format", "json"),
            lambda report: checks.check_types_only(report, TYPES_ONLY_RANK),
            ((TYPES_ONLY_RANK, False),),
        ),
        Workload(
            "closed-forms",
            None,
            lambda report: checks.check_closed_forms(report, CLOSED_FORM_RANKS),
        ),
        Workload(
            "brute-force",
            None,
            lambda report: checks.check_brute_force(report, BRUTE_FORCE_RANKS),
        ),
    )
}


def run_op(workload: Workload) -> int:
    """Run one operation in this process and print its report."""
    if workload.cli_args is None:
        doc = LIBRARY_OPS[workload.name]()
        sys.stdout.write(json.dumps(doc) + "\n")
        return 0
    from cascade import cli

    return cli.main(list(workload.cli_args))


def probe_regions(workload: Workload) -> float:
    """Region-build time: a cheap A2 walk on a fresh region minus the same
    walk again on the cached one, summed over the regions the workload walks."""
    from cascade import census
    from cascade.geometry import Rank

    t = census.SupportType.from_key("A2")
    build = 0.0
    for n, flipped in workload.regions:
        walk = census.oracle_flipped if flipped else census.oracle_supports
        rank = Rank(n, 2)
        t0 = perf_counter()
        walk(rank, t)
        t1 = perf_counter()
        walk(rank, t)
        t2 = perf_counter()
        build += (t1 - t0) - (t2 - t1)
    return build


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", metavar="FILE", help="trace the operation, write spans to FILE")
    mode.add_argument("--probe", action="store_true", help="print the region-build time")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.probe:
        print(json.dumps({"region_build_s": probe_regions(workload)}))
        return 0
    if args.trace is None:
        return run_op(workload)

    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    root = tracer.open(spans.ROOT)
    try:
        code = run_op(workload)
    finally:
        tracer.close(root)
        sys.stdout.flush()
    spans.write(tracer, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
