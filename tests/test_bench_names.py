"""The program keeps every name the benchmark's traced run reads.

Only a traced run calls the region probe and wraps the functions its
per-layer metrics need, so a renamed or removed function shows there as a
"missing per-layer metric" line while the plain benchmark still passes.
These tests check the same names without running the benchmark.
"""
from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402


def _function(name: str):
    module, _, attr = name.partition(".")
    return getattr(importlib.import_module(f"{spans.PACKAGE}.{module}"), attr, None)


def test_every_function_a_metric_needs_exists():
    """Each "module.function" or "module.function(arg)" in spans.NEEDS names
    a function of cascade that takes arg."""
    broken = []
    for needs in spans.NEEDS.values():
        for need in needs:
            name, _, arg = need.rstrip(")").partition("(")
            fn = _function(name)
            if not callable(fn) or (arg and arg not in inspect.signature(fn).parameters):
                broken.append(need)
    assert broken == []


def test_the_labelled_walks_take_their_label():
    """The probe and the span labels call both oracles with a type t."""
    for name in ("census.oracle_supports", "census.oracle_flipped"):
        assert "t" in inspect.signature(_function(name)).parameters


def test_region_probe_runs():
    assert isinstance(workloads.probe_regions(workloads.WORKLOADS["verify-small"]), float)
