"""The deep lane's mutant catalogue stays applicable to today's source."""
from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _deep():
    spec = importlib.util.spec_from_file_location("deep", ROOT / "tests" / "deep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_mutant_old_text_occurs_exactly_once():
    """Each entry of tests/deep.py names a file and an old text that occurs
    once in it, so every mutant applies to the code as it stands."""
    mutants = _deep().MUTANTS
    assert len({m.name for m in mutants}) == len(mutants)
    stale = [m.name for m in mutants if (ROOT / m.path).read_text().count(m.old) != 1]
    assert stale == []
