"""Benchmark of cascade: one workload per run, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-small --seed 1 --seconds 25 --trace 0

The run is a closed loop with one client: it starts one operation (one
fresh process) at a time and starts the next when it has ended, until
``--seconds`` have passed, so every run is made of whole operations.  Each
report is checked against values the benchmark computes itself, and the
reports of one run must be byte-identical.

``--trace 0`` prints the end-to-end metrics: median wall time, CPU time
(user plus system over the whole process tree, pool workers included) and
peak RSS of one operation, and the median time a fresh interpreter takes
to import ``cascade.cli``.  ``--trace 1`` runs the same untraced loop and
then one traced operation, and prints the per-layer metrics derived from
its spans.  The last line of standard output is one JSON object.

The inputs are fixed ranks; ``--seed`` is accepted and changes nothing,
because the census has no random input.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

import checks
import spans
from workloads import WORKLOADS, Workload

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 21
# Every run must end within 180 s; no operation may outlive this.
DEADLINE_S = 170.0
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import cascade.cli; "
    "print(time.perf_counter() - t)"
)


@dataclass
class Process:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    out: bytes
    err: bytes


def child_env() -> dict[str, str]:
    """What a user gets by default: the source tree on the path, no thread
    override, so the command opens its default pool of os.cpu_count()."""
    env = dict(os.environ)
    env.pop("CASCADE_THREADS", None)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv: list[str], timeout: float) -> Process:
    """Run one process in its own session and wait for it.

    wait4 reports the CPU time and peak RSS of the child together with the
    descendants it reaped, which are the pool workers.  On timeout the whole
    session is killed.
    """
    with tempfile.TemporaryFile(dir=ROOT) as out, tempfile.TemporaryFile(dir=ROOT) as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=out, stderr=err, start_new_session=True,
        )
        timer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Process(
            code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024,
            out=out.read(),
            err=err.read(),
        )


def op_argv(workload: Workload, *extra: str) -> list[str]:
    if workload.cli_args is not None and not extra:
        return [sys.executable, "-m", "cascade.cli", *workload.cli_args]
    return [sys.executable, str(HERE / "workloads.py"), workload.name, *extra]


def measure_setup() -> float | None:
    """Median import time of cascade.cli in fresh interpreters, or None
    when the program cannot be imported."""
    times = []
    for _ in range(SETUP_REPEATS):
        p = run_process([sys.executable, "-c", IMPORT_PROBE], timeout=60)
        if p.code != 0:
            sys.stderr.write(p.err.decode(errors="replace"))
            return None
        times.append(float(p.out))
    return median(times)


def checked(workload: Workload, report: bytes) -> list[str]:
    try:
        return workload.check(report)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return [f"malformed report: {exc!r}"]


def traced_metrics(workload: Workload, reports: list[bytes], wall_s: float, deadline: float):
    """Per-layer metrics from one traced operation and the region probe.

    Returns (metrics, missing, problems).  A traced operation or probe that
    fails leaves its metrics missing; it never stops the run.
    """
    metrics: dict[str, float] = {}
    missing: list[str] = []
    problems: list[str] = []

    build = 0.0
    if workload.regions:
        p = run_process(op_argv(workload, "--probe"), deadline - perf_counter())
        build = json.loads(p.out)["region_build_s"] if p.code == 0 else None
    if build is None:
        missing.append("census.region_build_s")
    else:
        metrics["census.region_build_s"] = build

    fd, path = tempfile.mkstemp(dir=ROOT, prefix=".bench-trace-", suffix=".json")
    os.close(fd)
    try:
        p = run_process(op_argv(workload, "--trace", path), deadline - perf_counter())
        if p.code == 0:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
    finally:
        os.unlink(path)
    if p.code != 0:
        sys.stderr.write(p.err.decode(errors="replace"))
        missing.extend(sorted(spans.NEEDS) + ["cli.report_bytes", "trace.overhead_s"])
        return metrics, missing, problems
    if reports and p.out != reports[0]:
        problems.append("the traced report differs from the untraced one")
    layer, absent, trace_problems = spans.derive(doc)
    metrics.update(layer)
    missing.extend(absent)
    problems.extend(trace_problems)
    metrics["cli.report_bytes"] = len(p.out) if workload.cli_args is not None else 0
    metrics["trace.overhead_s"] = p.wall_s - wall_s
    return metrics, missing, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    began = perf_counter()
    deadline = began + DEADLINE_S

    if not (ROOT / "src" / "cascade" / "cli.py").is_file():
        print(f"error: no cascade source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    setup_s = measure_setup()
    if setup_s is None:
        print("error: cascade.cli does not import", file=sys.stderr)
        return 2

    attempted = failed = 0
    reports: list[bytes] = []
    walls, cpus, rss = [], [], []
    problems: list[str] = []
    start = perf_counter()
    while True:
        p = run_process(op_argv(workload), deadline - perf_counter())
        attempted += 1
        sys.stderr.write(
            f"operation {attempted}: exit {p.code}, wall {p.wall_s:.4f} s, "
            f"cpu {p.cpu_s:.4f} s, peak rss {p.rss_mb:.1f} MB\n"
        )
        if p.code != 0:
            failed += 1
            sys.stderr.write(p.err.decode(errors="replace"))
        else:
            walls.append(p.wall_s)
            cpus.append(p.cpu_s)
            rss.append(p.rss_mb)
            reports.append(p.out)
            problems.extend(f"operation {attempted}: {m}" for m in checked(workload, p.out))
        if perf_counter() - start >= args.seconds:
            break
    problems.extend(checks.check_identical(reports))

    print(
        f"workload {workload.name}: {attempted} operations, {failed} failed; "
        f"seed {args.seed} (unused: fixed ranks); default pool of os.cpu_count() = "
        f"{os.cpu_count()} workers; Python {platform.python_version()}"
    )
    if not walls:
        print("error: every operation failed", file=sys.stderr)
        return 1

    if args.trace:
        metrics, missing, trace_problems = traced_metrics(
            workload, reports, median(walls), deadline
        )
        problems.extend(trace_problems)
        for name in missing:
            print(f"missing per-layer metric {name}", file=sys.stderr)
        units = {name: "s" if name.endswith("_s") else "count" for name in metrics}
        units["cli.report_bytes"] = "bytes"
    else:
        metrics = {
            "wall_s": median(walls),
            "cpu_s": median(cpus),
            "peak_rss_mb": median(rss),
            "setup_s": setup_s,
        }
        units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    for name, value in metrics.items():
        print(f"  {name} {value} {units[name]}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
