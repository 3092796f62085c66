"""Spans around the program's public functions, recorded from outside it.

``install`` replaces every public module-level function of the traced
modules with a wrapper, in every ``cascade`` module that holds a reference
to it, so calls through ``census.oracle_supports`` and through a bare
``oracle_supports`` inside ``census`` are both seen.  Spans (name, start,
end, parent) stay in memory and are written out once, by ``Tracer.dump``.
``derive`` turns a dump into the per-layer metrics.

A wrapper only times and counts: it passes every argument through and lets
every exception propagate, so a traced call returns what an untraced one
does.  A function a metric needs that is gone, or whose signature lost the
argument a wrapper reads, is listed as missing and its metrics are left
out; nothing else changes.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import multiprocessing
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

from checks import TYPE_KEYS

PACKAGE = "cascade"
MODULES = ("geometry", "partitions", "leading", "census", "closed_forms", "cli")

# Predicates called once per point pair or per sub-multiset: a span each
# would dominate the time being measured, so their calls are only counted
# and their time stays in the self time of the span that called them.
COUNTED = frozenset({
    "geometry.leq", "geometry.trapezoid_degree", "geometry.degree_of",
    "partitions.divides", "partitions.shape_of", "partitions.compare",
    "leading.is_chain", "leading.is_leading_term", "leading.embeddings",
    "closed_forms.binomial", "closed_forms.embeddings_per_support",
    "census.classify_support", "census.mirror",
})

# A walk's span is labelled with its support type, read from this argument.
LABEL_PARAM = {"census.oracle_supports": "t", "census.oracle_flipped": "t"}

# Walks whose integer results are summed into census.supports_counted.
TALLIED = ("census.oracle_supports", "census.oracle_flipped")

WEYL = (
    "closed_forms.weyl_dim", "closed_forms.dim_s_theta",
    "closed_forms.dim_4theta_minus_alpha", "closed_forms.dim_relation_space",
    "closed_forms.equivalence_identity",
)

ROOT = "op"


def type_metric(key: str) -> str:
    """Per-type walk metric: ``|`` is spelled ``s`` and ``||`` ``d``."""
    return f"census.oracle_supports.{key.replace('||', 'd').replace('|', 's')}_s"


def label_requirement(name: str) -> str:
    return f"{name}({LABEL_PARAM[name]})"


# Per-layer metric -> what it is derived from.  An entry "f(x)" needs
# function f to take an argument named x.
NEEDS: dict[str, tuple[str, ...]] = {
    **{
        type_metric(k): ("census.oracle_supports", label_requirement("census.oracle_supports"))
        for k in TYPE_KEYS
    },
    "census.oracle_supports_s": ("census.oracle_supports",),
    "census.oracle_flipped_s": ("census.oracle_flipped",),
    "census.oracle_full_s": ("census.oracle_full",),
    "census.pool_opens": (),
    "census.pool_workers": (),
    "census.supports_counted": TALLIED,
    "closed_forms.support_count_closed_s": ("closed_forms.support_count_closed",),
    "closed_forms.n_by_type_closed_s": ("closed_forms.n_by_type_closed",),
    "closed_forms.weyl_s": WEYL,
    "partitions.enumerate_partitions_s": ("partitions.enumerate_partitions",),
    "partitions.enumerate_partitions_calls": ("partitions.enumerate_partitions",),
    "partitions.sub_multisets_s": ("partitions.sub_multisets",),
    "partitions.sub_multisets_calls": ("partitions.sub_multisets",),
    "leading.n_count_s": ("leading.n_count",),
    "leading.n_count_calls": ("leading.n_count",),
    "cli.self_s": ("cli.main",),
    "trace.self_sum_s": (),
}


class Tracer:
    """Spans and call counts of one traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.labels: dict[int, str] = {}
        self.stack = [-1]
        self.calls: Counter[str] = Counter()
        self.tally: Counter[str] = Counter()
        self.pool_opens = 0
        self.pool_workers = 0
        self.missing: list[str] = []

    def open(self, name: str, label: str | None = None) -> int:
        i = len(self.start)
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        if label is not None:
            self.labels[i] = label
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        calls = self.calls
        if name in COUNTED:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        if inspect.isgeneratorfunction(fn):
            # One span per resumption: the consumer's work between two items
            # belongs to the consumer, not to the generator.
            @functools.wraps(fn)
            def resumed(*args, **kwargs):
                calls[name] += 1
                gen = fn(*args, **kwargs)
                while True:
                    i = self.open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.close(i)
                    yield item
            return resumed

        label_of = self._labeller(name, fn)
        tallied = name in TALLIED

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[name] += 1
            i = self.open(name, label_of(args, kwargs) if label_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if tallied and type(result) is int:
                self.tally[name] += result
            return result
        return spanned

    def _labeller(self, name: str, fn):
        param = LABEL_PARAM.get(name)
        if param is None:
            return None
        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            params = []
        if param not in params:
            self.missing.append(label_requirement(name))
            return None
        pos = params.index(param)

        def label_of(args, kwargs):
            if param in kwargs:
                return str(kwargs[param])
            return str(args[pos]) if pos < len(args) else None
        return label_of

    def wrap_pool(self) -> None:
        """Count pools opened and their size by wrapping multiprocessing.Pool."""
        original = multiprocessing.Pool

        @functools.wraps(original)
        def pool(processes=None, *args, **kwargs):
            self.pool_opens += 1
            self.pool_workers = max(self.pool_workers, processes or os.cpu_count() or 1)
            return original(processes, *args, **kwargs)
        multiprocessing.Pool = pool

    def dump(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "labels": {str(i): label for i, label in self.labels.items()},
            "calls": dict(self.calls),
            "tally": dict(self.tally),
            "pool_opens": self.pool_opens,
            "pool_workers": self.pool_workers,
            "missing": sorted(self.missing),
        }


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every traced module that imports.

    Functions that metrics need but that no longer exist are recorded in
    ``tracer.missing``.
    """
    modules = {}
    for short in MODULES:
        try:
            modules[short] = importlib.import_module(f"{PACKAGE}.{short}")
        except ImportError:
            continue
    wrapped: dict[int, tuple[object, object]] = {}
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            wrapped[id(obj)] = (obj, tracer.wrap(f"{short}.{attr}", obj))
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    present = {
        f"{short}.{attr}"
        for short, mod in modules.items()
        for attr, obj in vars(mod).items()
        if callable(obj)
    }
    needed = {f for needs in NEEDS.values() for f in needs if "(" not in f}
    tracer.missing.extend(sorted(needed - present))
    tracer.wrap_pool()


def self_times(doc: dict) -> tuple[list[float], list[float]]:
    """Duration and self time of every span: duration minus the time its
    child spans cover (children of one span never overlap)."""
    start, end, parent = doc["start"], doc["end"], doc["parent"]
    dur = [e - s for s, e in zip(start, end)]
    covered = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[i]
    return dur, [d - c for d, c in zip(dur, covered)]


def derive(doc: dict) -> tuple[dict[str, float], list[str], list[str]]:
    """Per-layer metrics from one dump.

    Returns (metrics, missing metric names, problems).  A problem means the
    spans are inconsistent: their self times do not add up to the root.
    """
    names = [doc["names"][i] for i in doc["name"]]
    parent = doc["parent"]
    labels = {int(i): label for i, label in doc["labels"].items()}
    dur, own = self_times(doc)
    problems = []

    inclusive: Counter[str] = Counter()
    exclusive: Counter[str] = Counter()
    by_type: Counter[str] = Counter()
    # Parents are opened before their children, so one pass in index order
    # sees every parent's flags before its children's.
    under_cli = [False] * len(names)
    in_engine = [False] * len(names)
    cli_self = 0.0
    for i, name in enumerate(names):
        inclusive[name] += dur[i]
        exclusive[name] += own[i]
        if name == "census.oracle_supports" and i in labels:
            by_type[labels[i]] += dur[i]
        p = parent[i]
        module = name.split(".", 1)[0]
        under_cli[i] = name == "cli.main" or (p >= 0 and under_cli[p])
        in_engine[i] = module in ("census", "closed_forms") or (p >= 0 and in_engine[p])
        if under_cli[i] and not in_engine[i]:
            cli_self += own[i]

    roots = [i for i, p in enumerate(parent) if p < 0]
    root_time = sum(dur[i] for i in roots)
    self_sum = sum(own)
    if [names[i] for i in roots] != [ROOT]:
        problems.append(f"expected one root span {ROOT!r}, got {[names[i] for i in roots]}")
    if abs(self_sum - root_time) > 1e-6:
        problems.append(f"self times add up to {self_sum} s, the root span lasts {root_time} s")

    calls = doc["calls"]
    metrics: dict[str, float] = {
        **{type_metric(k): by_type[k] for k in TYPE_KEYS},
        "census.oracle_supports_s": inclusive["census.oracle_supports"],
        "census.oracle_flipped_s": inclusive["census.oracle_flipped"],
        "census.oracle_full_s": inclusive["census.oracle_full"],
        "census.pool_opens": doc["pool_opens"],
        "census.pool_workers": doc["pool_workers"],
        "census.supports_counted": sum(doc["tally"].get(f, 0) for f in TALLIED),
        "closed_forms.support_count_closed_s": exclusive["closed_forms.support_count_closed"],
        "closed_forms.n_by_type_closed_s": exclusive["closed_forms.n_by_type_closed"],
        "closed_forms.weyl_s": sum(exclusive[f] for f in WEYL),
        "partitions.enumerate_partitions_s": exclusive["partitions.enumerate_partitions"],
        "partitions.enumerate_partitions_calls": calls.get("partitions.enumerate_partitions", 0),
        "partitions.sub_multisets_s": exclusive["partitions.sub_multisets"],
        "partitions.sub_multisets_calls": calls.get("partitions.sub_multisets", 0),
        "leading.n_count_s": exclusive["leading.n_count"],
        "leading.n_count_calls": calls.get("leading.n_count", 0),
        "cli.self_s": cli_self,
        "trace.self_sum_s": self_sum,
    }
    absent = set(doc["missing"])
    missing = sorted(m for m, needs in NEEDS.items() if absent.intersection(needs))
    for m in missing:
        del metrics[m]
    return metrics, missing, problems


def write(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
