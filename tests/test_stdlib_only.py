"""The runtime stays on the standard library, and the command line loads
only the modules it runs."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Print the top-level modules that importing the package loads, one a line.
PROBE = """
import sys
before = set(sys.modules)
import cascade.cli, cascade.leading, cascade.partitions
print("\\n".join(sorted({m.split(".")[0] for m in set(sys.modules) - before})))
"""

# Print every module that importing the command line loads, one a line.
CLI_PROBE = """
import sys
before = set(sys.modules)
import cascade.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""

# Modules that only other commands, or nothing at all, use: dataclasses
# alone brings in inspect, ast, dis and tokenize.
NOT_AT_STARTUP = {
    "dataclasses", "inspect", "ast", "dis", "tokenize", "csv",
    "cascade.partitions", "cascade.leading",
}


def _loaded(probe: str, *flags: str) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, *flags, "-c", probe], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_runtime_loads_only_standard_library_modules():
    loaded = _loaded(PROBE)
    assert "cascade" in loaded
    assert loaded - {"cascade"} <= sys.stdlib_module_names


def test_cli_startup_loads_only_what_it_runs():
    # -S: a bare interpreter, so nothing that site imports hides a module.
    loaded = _loaded(CLI_PROBE, "-S")
    assert "cascade.cli" in loaded
    assert loaded & NOT_AT_STARTUP == set()


def test_partitions_load_on_first_use():
    import cascade
    import cascade.partitions

    assert cascade.ColoredPartition is cascade.partitions.ColoredPartition
    namespace: dict = {}
    exec("from cascade import *", namespace)
    assert set(cascade.__all__) <= set(namespace)
